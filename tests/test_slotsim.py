import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from vanetgame import (canonical_structure, geometry, make_config, parse_structure, simulate_slots,
                       slotsim, structure_reports)
from conftest import COUNTERS, random_config
from test_slotsim_golden import CASES

GRAND = (frozenset({1, 2, 3, 4}),)


def test_all_idle_vehicles_produce_zero_estimates(default_cfg):
    silent = dataclasses.replace(default_cfg, p=np.zeros(2))
    rep = simulate_slots(GRAND, silent, 5_000, seed=1)
    assert (rep.throughput == 0.0).all() and (rep.payment == 0.0).all()
    assert (rep.revenue == 0.0).all() and (rep.cost == 0.0).all()
    assert rep.scheduled.sum() == 0


def test_single_vehicle_throughput_converges():
    cfg = make_config(1, 0, p=0.37, enc=np.zeros((0, 1)), delta=np.zeros((1, 0)),
                      price=np.zeros((0, 1)), cost_fwd=np.zeros((0, 1)),
                      cost_rcv=np.zeros((0, 1)))
    rep = simulate_slots((frozenset({1}),), cfg, 200_000, seed=2)
    assert abs(rep.throughput[0] - 0.37) <= 3.0 * rep.throughput_se[0]


def test_same_seed_same_report(default_cfg):
    a = simulate_slots(GRAND, default_cfg, 30_000, seed=9)
    b = simulate_slots(GRAND, default_cfg, 30_000, seed=9)
    assert (a.throughput == b.throughput).all()
    assert (a.relays_success == b.relays_success).all()


def test_chunk_size_does_not_change_the_stream(default_cfg):
    a = simulate_slots(GRAND, default_cfg, 30_000, seed=9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_SLOTS", 1_111)
        b = simulate_slots(GRAND, default_cfg, 30_000, seed=9)
    assert (a.scheduled == b.scheduled).all()
    assert (a.encounters == b.encounters).all()
    assert (a.relays_success == b.relays_success).all()
    assert (a.relays_fail == b.relays_fail).all()


def test_kernel_matches_plain_python_reference(default_cfg):
    cases = [
        (default_cfg, GRAND),
        (default_cfg, canonical_structure([{1, 3}, {2, 4}])),
        (default_cfg, canonical_structure([{1, 2, 3}, {4}])),
        (default_cfg, canonical_structure([{1}, {2}, {3}, {4}])),
    ]
    rng = np.random.default_rng(31)

    def random_structure(n_labels, n_players):
        blocks = {}
        for player, lab in enumerate(rng.integers(0, n_labels, size=n_players), start=1):
            blocks.setdefault(int(lab), set()).add(player)
        return canonical_structure(blocks.values())

    while len(cases) < 10:
        cfg = random_config(rng, k_max=4, m_max=4)
        cases.append((cfg, random_structure(3, cfg.n_players)))
    # wider games whose vehicle and RSU bits cross byte boundaries, with
    # activity and encounter probabilities at 0, 1/2 and 1 mixed in
    while len(cases) < 18:
        cfg = random_config(rng, k_max=10, m_max=18, k_min=6, m_min=6)
        p = np.where(rng.random(cfg.K) < 0.3, rng.integers(0, 3, cfg.K) / 2, cfg.p)
        enc = np.where(rng.random(cfg.enc.shape) < 0.3,
                       rng.integers(0, 3, cfg.enc.shape) / 2, cfg.enc)
        cases.append((dataclasses.replace(cfg, p=p, enc=enc),
                      random_structure(rng.integers(1, 4), cfg.n_players)))
    # a coalition whose RSUs lie in three bytes, with other coalitions' RSUs between them
    game, structure, _, _ = CASES["holes"]
    cfg = game()
    cases.append((cfg, parse_structure(structure, cfg.n_players)))
    for seed, (cfg, cs) in enumerate(cases):
        # 1024-slot chunks: the kernel crosses chunk boundaries, the reference does not
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "CHUNK_SLOTS", 1_024)
            rep = simulate_slots(cs, cfg, 2_500, seed=seed)
        want = reference.slot_counters(cs, cfg, 2_500, seed)
        for field in COUNTERS:
            assert (getattr(rep, field) == want[field]).all(), (seed, field)


probability = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def wide_games(draw):
    """(config, structure) with K <= 9 vehicles and M <= 17 RSUs in at most 5 coalitions,
    so vehicle and RSU bits cross bytes and some coalitions hold no RSU."""
    K, M = draw(st.integers(1, 9)), draw(st.integers(0, 17))
    p = draw(st.lists(probability, min_size=K, max_size=K))
    enc = draw(st.lists(probability, min_size=M * K, max_size=M * K))
    cfg = make_config(K, M, p=np.array(p), enc=np.reshape(enc, (M, K)), delta=0.5, price=1.5,
                      cost_fwd=0.3, cost_rcv=0.05)
    labels = draw(st.lists(st.integers(0, 4), min_size=K + M, max_size=K + M))
    blocks = [{m + 1 for m, lab in enumerate(labels) if lab == b} for b in set(labels)]
    return cfg, canonical_structure(blocks)


@settings(max_examples=40, deadline=None)
@given(wide_games(), st.integers(0, 2 ** 32 - 1))
def test_outcome_tally_matches_reference_across_chunks(game, seed):
    # 64-slot chunks: 400 slots cross six chunk boundaries; a row that meets no RSU
    # lands on the "no relay" index span, at a byte boundary when span is a multiple of 8
    cfg, cs = game
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_SLOTS", 64)
        rep = simulate_slots(cs, cfg, 400, seed)
    want = reference.slot_counters(cs, cfg, 400, seed)
    for field in COUNTERS:
        assert (getattr(rep, field) == want[field]).all(), field


def test_byte_tables_answer_rank_and_select():
    for x in range(256):
        ones = [i for i in range(8) if x >> i & 1]   # set bits by a direct scan
        assert slotsim.BITS[x].tolist() == [x >> i & 1 for i in range(8)]
        assert slotsim.POP[x] == bin(x).count("1") == len(ones)
        assert slotsim.SEL[x, :len(ones)].tolist() == ones   # SEL[x, 0]: the lowest set bit


def test_wide_simulation_memory_is_bounded():
    rng = np.random.default_rng(8)
    cfg = make_config(8, 8, p=0.2, enc=rng.uniform(0.4, 0.6, (8, 8)), delta=0.5, price=1.5,
                      cost_fwd=0.3, cost_rcv=0.05)
    tracemalloc.start()
    try:
        simulate_slots((frozenset(range(1, 17)),), cfg, 200_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_counter_consistency(default_cfg):
    rep = simulate_slots(GRAND, default_cfg, 50_000, seed=4)
    # at most one scheduled vehicle per coalition per slot (grand: per slot)
    assert rep.scheduled.sum() <= rep.n_slots
    # relays and bare transmissions partition the scheduled slots
    per_vehicle = (rep.relays.sum(axis=0) + rep.success_no_relay + rep.fail_no_relay)
    assert (per_vehicle == rep.scheduled).all()
    # relayed events never exceed encounters
    assert (rep.relays <= rep.encounters).all()


def test_exact_payment_revenue_conservation(default_cfg):
    rep = simulate_slots(GRAND, default_cfg, 50_000, seed=4)
    # integer event accounting: both sides derive from the same relay counts
    fee_total = float((rep.relays * default_cfg.price).sum())
    per_vehicle = (rep.relays * default_cfg.price).sum(axis=0)
    per_rsu = (rep.relays * default_cfg.price).sum(axis=1)
    assert fee_total == float(per_vehicle.sum()) == float(per_rsu.sum())
    np.testing.assert_allclose(rep.payment.sum(), rep.revenue.sum(), rtol=1e-12)


def test_success_requires_outside_silence(default_cfg):
    # two singleton-vehicle coalitions: a success for one implies the other
    # was idle, so successes never exceed sole-activity counts
    cs = canonical_structure([{1, 3}, {2, 4}])
    rep = simulate_slots(cs, default_cfg, 50_000, seed=6)
    successes = rep.success_no_relay + rep.relays_success.sum(axis=0)
    p = default_cfg.p
    expected = np.array([p[0] * (1 - p[1]), p[1] * (1 - p[0])]) * rep.n_slots
    # 5 sigma headroom on a binomial count
    sigma = np.sqrt(expected * (1 - expected / rep.n_slots))
    assert (np.abs(successes - expected) <= 5 * sigma + 1).all()


def test_estimates_match_closed_forms_across_structures(default_cfg):
    for seed, cs in enumerate([GRAND, canonical_structure([{1, 3, 4}, {2}]),
                               canonical_structure([{1, 2}, {3}, {4}])]):
        rep = simulate_slots(cs, default_cfg, 150_000, seed=100 + seed)
        for block in structure_reports(cs, default_cfg):
            for i in block.vehicle_payoff:
                tol = max(3 * rep.throughput_se[i - 1], 1e-3)
                assert abs(rep.throughput[i - 1] - block.throughput[i]) <= tol
                tol = max(3 * rep.payment_se[i - 1], 1e-3)
                assert abs(rep.payment[i - 1] - block.payment[i]) <= tol
            for j in block.rsu_payoff:
                r = j - default_cfg.K - 1
                tol = max(3 * rep.revenue_se[r], 1e-3)
                assert abs(rep.revenue[r] - block.revenue[j]) <= tol
                tol = max(3 * rep.cost_se[r], 1e-3)
                assert abs(rep.cost[r] - block.cost[j]) <= tol


def test_random_structures_and_configs_cross_validate():
    rng = np.random.default_rng(55)
    for _ in range(10):
        cfg = random_config(rng, k_max=3, m_max=3)
        players = list(range(1, cfg.n_players + 1))
        labels = rng.integers(0, 2, size=len(players))
        blocks = {}
        for player, lab in zip(players, labels):
            blocks.setdefault(int(lab), set()).add(player)
        cs = canonical_structure(blocks.values())
        rep = simulate_slots(cs, cfg, 60_000, seed=int(rng.integers(1 << 30)))
        for block in structure_reports(cs, cfg):
            for i, value in block.throughput.items():
                tol = max(4 * rep.throughput_se[i - 1], 5e-3)
                assert abs(rep.throughput[i - 1] - value) <= tol


@pytest.mark.parametrize("delta, n_slots", [(1 / 3, 100_000), (0.3, 1_000)])
def test_deterministic_quantities_read_their_event_value_and_stderr_zero(delta, n_slots):
    # one vehicle always active and always relayed by the one RSU: every slot is the same
    # event, so each estimate is that event's value and each stderr exactly 0.0
    # (built-in prices, costs and weights, where sum(x^2) - n mean^2 leaves 5.4e-11 and 3.4e-10)
    cfg = make_config(1, 1, p=1.0, enc=1.0, delta=delta, price=1.5, cost_fwd=0.5,
                      cost_rcv=0.2, alpha=10.0)
    rep = simulate_slots((frozenset({1, 2}),), cfg, n_slots, seed=7)
    assert rep.relays_success.tolist() == [[n_slots]]
    rate, charge = 1.0 + delta, 0.2 + 0.5
    values = {"throughput": rate, "payment": 1.5, "vehicle_payoff": 10.0 * rate - 1.0 * 1.5,
              "revenue": 1.5, "cost": charge, "rsu_payoff": 1.0 * 1.5 - 1.0 * charge}
    for field, value in values.items():
        assert getattr(rep, field).tolist() == [value], field
        assert getattr(rep, field + "_se").tolist() == [0.0], field


# values of every magnitude from 1e-200 to 1e200, either sign, and zero
magnitude = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-200, 200))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 5), st.integers(0, 40))
def test_mean_se_matches_the_repeated_samples(data, rows, events, idle):
    counts = np.array(data.draw(st.lists(st.lists(st.integers(0, 300), min_size=events,
                                                  max_size=events), min_size=rows, max_size=rows)))
    values = np.array(data.draw(st.lists(st.lists(magnitude, min_size=events, max_size=events),
                                         min_size=rows, max_size=rows)))
    n = max(int(counts.sum(axis=1).max()) + idle, 1)
    mean, se = slotsim._mean_se(counts, values, n)
    for row in range(rows):
        # the oracle: one sample per slot, idle slots 0.0, scaled so squares cannot overflow
        top = np.abs(values[row][counts[row] > 0]).max(initial=0.0) or 1.0
        x = np.zeros(n)
        x[:counts[row].sum()] = np.repeat(values[row] / top, counts[row])
        want_se = x.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
        assert abs(mean[row] - x.mean() * top) <= 1e-14 * top
        assert abs(se[row] - want_se * top) <= 1e-14 * top


def test_mean_se_resolves_a_small_spread_around_a_large_mean():
    # 999 slots worth 1.0 and one worth 1 + 2^-30: the stderr is 9.3e-13, and unshifted
    # sums of squares cancel it to 0.0
    h = 2.0 ** -30
    mean, se = slotsim._mean_se(np.array([[999, 1]]), np.array([[1.0, 1.0 + h]]), 1_000)
    x = np.repeat([0.0, h], [999, 1])   # the samples less 1.0, exactly
    assert abs(mean[0] - (1.0 + x.mean())) <= 1e-14
    assert abs(se[0] - x.std(ddof=1) / np.sqrt(1_000)) <= 1e-14


def test_mean_se_keeps_every_count_when_they_overfill_the_slots():
    # 103 events in 100 slots: the idle count is -3, and the mean is still sum(c * v) / n
    mean, _ = slotsim._mean_se(np.array([[101, 2]]), np.array([[1.0, 4.0]]), 100)
    assert mean[0] == pytest.approx(109 / 100, rel=1e-15)


def test_bad_inputs_rejected(default_cfg):
    with pytest.raises(ValueError, match="n_slots"):
        simulate_slots(GRAND, default_cfg, 0, seed=1)
    with pytest.raises(ValueError, match="invalid structure"):
        simulate_slots((frozenset({1, 2}),), default_cfg, 100, seed=1)


def test_report_rows_shape(default_cfg):
    rep = simulate_slots(GRAND, default_cfg, 1_000, seed=3)
    rows = rep.rows()
    assert len(rows) == 2 * 3 + 2 * 3
    players = {r[0] for r in rows}
    assert players == {1, 2, 3, 4}
    assert all(r[4] == 1_000 and r[5] == 3 for r in rows)
