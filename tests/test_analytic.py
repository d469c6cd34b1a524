import itertools
import tracemalloc

import numpy as np
import pytest

import reference
from vanetgame import ABS_TOL, GameConfig, analytic, oracle_relay_mean, player_payoffs
from conftest import random_config, random_coalition


def brute_force_shares(p_by_vehicle):
    """Enumerate every activity pattern; smallest-id active vehicle transmits."""
    ids = sorted(p_by_vehicle)
    shares = {i: 0.0 for i in ids}
    for pattern in itertools.product([False, True], repeat=len(ids)):
        prob = 1.0
        active = []
        for i, on in zip(ids, pattern):
            prob *= p_by_vehicle[i] if on else 1.0 - p_by_vehicle[i]
            if on:
                active.append(i)
        if active:
            shares[min(active)] += prob
    return shares


def test_share_pair_matches_known_values(default_cfg):
    share = player_payoffs(frozenset({1, 2, 3, 4}), default_cfg).share
    assert share[1] == 0.6
    assert share[2] == 0.6 * (1 - 0.6)


def test_share_singleton_is_activity_probability(default_cfg):
    assert player_payoffs(frozenset({2}), default_cfg).share[2] == 0.6


def test_share_three_vehicles_against_brute_force():
    cfg = GameConfig(3, 0, p=0.5, enc=np.zeros((0, 3)), delta=np.zeros((3, 0)),
                     price=np.zeros((0, 3)), cost_fwd=np.zeros((0, 3)),
                     cost_rcv=np.zeros((0, 3)))
    share = player_payoffs(frozenset({1, 2, 3}), cfg).share
    expected = brute_force_shares({1: 0.5, 2: 0.5, 3: 0.5})
    assert expected == {1: 0.5, 2: 0.25, 3: 0.125}
    for i in (1, 2, 3):
        assert abs(share[i] - expected[i]) <= ABS_TOL


def test_share_brute_force_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = random_config(rng, k_max=4, m_max=2)
        S = random_coalition(rng, cfg)
        vehicles = [m for m in S if m <= cfg.K]
        expected = brute_force_shares({i: float(cfg.p[i - 1]) for i in vehicles})
        share = player_payoffs(S, cfg).share
        for i in vehicles:
            assert abs(share[i] - expected[i]) <= ABS_TOL


def test_share_sum_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        cfg = random_config(rng)
        S = random_coalition(rng, cfg)
        vehicles = [m for m in S if m <= cfg.K]
        share = player_payoffs(S, cfg).share
        total = sum(share[i] for i in vehicles)
        idle = np.prod([1.0 - cfg.p[i - 1] for i in vehicles])
        assert abs(total - (1.0 - idle)) <= ABS_TOL


def test_relay_usage_single_rsu_is_encounter_probability(default_cfg):
    assert player_payoffs(frozenset({1, 3}), default_cfg).relay_prob[3][1] == 0.5


def test_relay_usage_pair_of_half_probability_rsus(default_cfg):
    relay_prob = player_payoffs(frozenset({1, 3, 4}), default_cfg).relay_prob
    # one competitor at q=0.5: q*(1-q) + q*q/2
    assert abs(relay_prob[3][1] - 0.375) <= ABS_TOL


def test_relay_usage_certain_encounters_split_evenly():
    cfg = GameConfig(1, 2, p=0.5, enc=1.0, delta=0.5, price=1.0,
                     cost_fwd=0.1, cost_rcv=0.1)
    relay_prob = player_payoffs(frozenset({1, 2, 3}), cfg).relay_prob
    assert abs(relay_prob[2][1] - 0.5) <= ABS_TOL
    assert abs(relay_prob[3][1] - 0.5) <= ABS_TOL


def test_relay_usage_row_sum_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cfg = random_config(rng, m_max=4)
        if cfg.M == 0:
            continue
        S = random_coalition(rng, cfg, need_rsu=True)
        rsus = [m for m in S if m > cfg.K]
        relay_prob = player_payoffs(S, cfg).relay_prob
        for i in [m for m in S if m <= cfg.K]:
            total = sum(relay_prob[j][i] for j in rsus)
            none = np.prod([1.0 - cfg.enc[j - cfg.K - 1, i - 1] for j in rsus])
            assert abs(total - (1.0 - none)) <= ABS_TOL


def test_weighted_mean_single_rsu(default_cfg):
    rep = player_payoffs(frozenset({2, 4}), default_cfg)
    assert abs(rep.rate_gain[2] - 0.5 * 0.5) <= ABS_TOL


def test_weighted_mean_no_rsus_is_zero(default_cfg):
    assert player_payoffs(frozenset({1, 2}), default_cfg).rate_gain[1] == 0.0
    assert player_payoffs(frozenset({1}), default_cfg).fee[1] == 0.0


def test_weighted_mean_uniform_weights_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cfg = random_config(rng, m_max=5, uniform_relay=True)
        if cfg.M == 0:
            continue
        S = random_coalition(rng, cfg, need_rsu=True)
        rsus = [m for m in S if m > cfg.K]
        rep = player_payoffs(S, cfg)
        for i in [m for m in S if m <= cfg.K]:
            reach = 1.0 - np.prod([1.0 - cfg.enc[j - cfg.K - 1, i - 1] for j in rsus])
            d_i = cfg.delta[i - 1, 0]
            assert abs(rep.rate_gain[i] - d_i * reach) <= ABS_TOL


def test_oracle_agreement_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        cfg = random_config(rng, k_max=3, m_max=5)
        if cfg.M == 0:
            continue
        S = random_coalition(rng, cfg, need_rsu=True)
        rsus = [m for m in S if m > cfg.K]
        rep = player_payoffs(S, cfg)
        for i in [m for m in S if m <= cfg.K]:
            weights = {j: float(cfg.delta[i - 1, j - cfg.K - 1]) for j in rsus}
            value, chosen = oracle_relay_mean(S, i, weights, cfg)
            assert abs(value - rep.rate_gain[i]) <= ABS_TOL
            for j in rsus:
                assert abs(chosen[j] - rep.relay_prob[j][i]) <= ABS_TOL


def test_oracle_symmetric_two_rsu_case():
    cfg = GameConfig(1, 2, p=0.5, enc=1.0, delta=0.5, price=1.0,
                     cost_fwd=0.0, cost_rcv=0.0)
    value, _ = oracle_relay_mean(frozenset({1, 2, 3}), 1, {2: 1.0, 3: 3.0}, cfg)
    assert abs(value - 2.0) <= ABS_TOL


def test_oracle_enumeration_bound():
    cfg = GameConfig(1, 21, p=0.5, enc=0.5, delta=0.5, price=1.0,
                     cost_fwd=0.0, cost_rcv=0.0)
    S = frozenset(range(1, 23))
    with pytest.raises(ValueError, match="enumeration bound"):
        oracle_relay_mean(S, 1, {j: 1.0 for j in range(2, 23)}, cfg)


def test_oracle_carries_sums_across_blocks(monkeypatch):
    # 2^14 encounter sets in 2,048 blocks of 8: every running sum crosses a block
    rng = np.random.default_rng(14)
    M = 14
    enc = np.where(rng.random(M) < 0.4, rng.choice([0.0, 0.5, 1.0], M), rng.random(M))
    cfg = GameConfig(1, M, p=0.5, enc=enc.reshape(M, 1), delta=0.5, price=1.0,
                     cost_fwd=0.0, cost_rcv=0.0)
    S, weights = frozenset(range(1, M + 2)), dict(zip(range(2, M + 2), rng.random(M).tolist()))
    monkeypatch.setattr(analytic, "_ORACLE_BLOCK_BITS", 3)
    assert oracle_relay_mean(S, 1, weights, cfg) == reference.oracle_relay_mean(S, 1, weights, cfg)


@pytest.mark.parametrize("n, P", [(5, 7), (2, 5), (3, 0), (0, 3)],
                         ids=["across-mask-blocks", "across-pair-batches", "empty", "no-rsus"])
def test_oracle_batch_equals_one_reference_call_per_pair(monkeypatch, n, P):
    # blocks of 8 (pair, set) cells: 5 RSUs take 4 blocks per pair, 2 RSUs 2 pairs per batch
    rng = np.random.default_rng(10 * n + P)
    K = max(P, 1)
    enc = np.where(rng.random((n, K)) < 0.4, rng.choice([0.0, 0.5, 1.0], (n, K)),
                   rng.random((n, K)))
    cfg = GameConfig(K, n, p=0.5, enc=enc, delta=0.5, price=1.0, cost_fwd=0.0, cost_rcv=0.0)
    S, rsus, w = frozenset(range(1, K + n + 1)), range(K + 1, K + n + 1), rng.random((P, n))
    monkeypatch.setattr(analytic, "_ORACLE_BLOCK_BITS", 3)
    value, chosen = analytic._oracle_batch(enc.T[:P], w)   # pair v: vehicle v + 1, every RSU
    assert value.shape == (P,) and chosen.shape == (P, n)
    for v in range(P):
        want = reference.oracle_relay_mean(S, v + 1, dict(zip(rsus, w[v].tolist())), cfg)
        assert (value[v], chosen[v].tolist()) == (want[0], list(want[1].values()))


def test_oracle_memory_is_bounded_at_twenty_rsus():
    cfg = GameConfig(1, 20, p=0.5, enc=0.5, delta=0.5, price=1.0,
                     cost_fwd=0.0, cost_rcv=0.0)
    tracemalloc.start()
    try:
        oracle_relay_mean(frozenset(range(1, 22)), 1, dict.fromkeys(range(2, 22), 1.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_throughput_singleton(default_cfg):
    # alone, a vehicle succeeds only when the other vehicle stays idle
    rep = player_payoffs(frozenset({1}), default_cfg)
    assert abs(rep.throughput[1] - 0.6 * 0.4) <= ABS_TOL


def test_throughput_zero_when_an_outsider_is_always_active():
    cfg = GameConfig(2, 0, p=[0.5, 1.0], enc=np.zeros((0, 2)), delta=np.zeros((2, 0)),
                     price=np.zeros((0, 2)), cost_fwd=np.zeros((0, 2)),
                     cost_rcv=np.zeros((0, 2)))
    assert player_payoffs(frozenset({1}), cfg).throughput[1] == 0.0


def test_throughput_grand_coalition_has_no_outside_discount(default_cfg):
    rep = player_payoffs(frozenset({1, 2, 3, 4}), default_cfg)
    expected = 0.6 * (1.0 + rep.rate_gain[1])
    assert abs(rep.throughput[1] - expected) <= ABS_TOL


def test_payment_single_pair():
    cfg = GameConfig(1, 1, p=0.6, enc=0.5, delta=0.5, price=1.5,
                     cost_fwd=0.0, cost_rcv=0.0)
    rep = player_payoffs(frozenset({1, 2}), cfg)
    assert abs(rep.payment[1] - 0.6 * 0.5 * 1.5) <= ABS_TOL


def test_payment_zero_without_rsus(default_cfg):
    assert player_payoffs(frozenset({1, 2}), default_cfg).payment[1] == 0.0


def test_payment_ignores_collisions_but_throughput_does_not(default_cfg):
    # same in-coalition quantities, different outside exposure
    small = player_payoffs(frozenset({1, 3, 4}), default_cfg)
    grand = player_payoffs(frozenset({1, 2, 3, 4}), default_cfg)
    assert small.payment[1] == grand.payment[1]
    assert small.throughput[1] < grand.throughput[1]


def test_revenue_cost_single_pair():
    cfg = GameConfig(1, 1, p=0.6, enc=0.5, delta=0.5, price=1.5,
                     cost_fwd=0.5, cost_rcv=0.2)
    rep = player_payoffs(frozenset({1, 2}), cfg)
    assert abs(rep.revenue[2] - 0.6 * 0.5 * 1.5) <= ABS_TOL
    assert abs(rep.cost[2] - 0.6 * 0.5 * (0.5 + 0.2)) <= ABS_TOL


def test_revenue_and_cost_zero_without_vehicles(default_cfg):
    rep = player_payoffs(frozenset({3, 4}), default_cfg)
    assert rep.revenue[3] == 0.0
    assert rep.cost[4] == 0.0


def test_cost_zero_when_costs_are_zero():
    cfg = GameConfig(2, 2, p=0.6, enc=0.5, delta=0.5, price=1.5,
                     cost_fwd=0.0, cost_rcv=0.0)
    assert player_payoffs(frozenset({1, 2, 3, 4}), cfg).cost[3] == 0.0


def test_payment_revenue_balance_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        cfg = random_config(rng)
        S = random_coalition(rng, cfg)
        rep = player_payoffs(S, cfg)
        paid = sum(rep.payment[i] for i in sorted(rep.payment))
        earned = sum(rep.revenue[j] for j in sorted(rep.revenue))
        assert abs(paid - earned) <= ABS_TOL


def test_player_payoffs_singleton_vehicle(default_cfg):
    rep = player_payoffs(frozenset({1}), default_cfg)
    assert abs(rep.vehicle_payoff[1] - 10 * 0.6 * 0.4) <= ABS_TOL


def test_player_payoffs_singleton_rsu_is_zero(default_cfg):
    rep = player_payoffs(frozenset({4}), default_cfg)
    assert rep.rsu_payoff[4] == 0.0
    assert rep.total_payoff == 0.0


def test_sum_payoff_free_of_fees_with_unit_weights():
    rng = np.random.default_rng(17)
    for _ in range(50):
        cfg = random_config(rng, unit_bg=True)
        S = random_coalition(rng, cfg)
        with_fees = player_payoffs(S, cfg).total_payoff
        import dataclasses
        cfg0 = dataclasses.replace(cfg, price=np.zeros_like(cfg.price))
        without = player_payoffs(S, cfg0).total_payoff
        assert abs(with_fees - without) <= ABS_TOL


def test_own_pair_monotonicity_in_encounter_probability():
    # raising an RSU's encounter probability with one vehicle never lowers
    # that pair's throughput, payment, revenue, or cost (uniform relay weights
    # keep the vehicle-side means monotone; heterogeneous weights would not)
    rng = np.random.default_rng(23)
    import dataclasses
    for _ in range(50):
        cfg = random_config(rng, k_max=3, m_max=3, uniform_relay=True)
        if cfg.M == 0:
            continue
        S = random_coalition(rng, cfg, need_rsu=True)
        vehicles = [m for m in S if m <= cfg.K]
        rsus = [m for m in S if m > cfg.K]
        i = vehicles[0]
        j = rsus[0]
        before = player_payoffs(S, cfg)
        enc = cfg.enc.copy()
        row, col = j - cfg.K - 1, i - 1
        enc[row, col] = min(1.0, enc[row, col] + rng.uniform(0.0, 1.0 - enc[row, col]))
        after = player_payoffs(S, dataclasses.replace(cfg, enc=enc))
        tol = 1e-12
        assert after.throughput[i] >= before.throughput[i] - tol
        assert after.payment[i] >= before.payment[i] - tol
        assert after.revenue[j] >= before.revenue[j] - tol
        assert after.cost[j] >= before.cost[j] - tol


def test_empty_coalition_rejected(default_cfg):
    with pytest.raises(ValueError, match="empty"):
        player_payoffs(frozenset(), default_cfg)


@pytest.mark.parametrize("members", [{0, 1}, {1, -1}, {1, 7}])
def test_players_outside_one_to_n_rejected(default_cfg, members):
    with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
        player_payoffs(frozenset(members), default_cfg)
    with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
        analytic._reports([frozenset({1, 2}), frozenset(members)], default_cfg)


@pytest.mark.parametrize("K, M, batch", [
    (5, 0, [{1}, {2, 4}, {1, 2, 3, 4, 5}]),   # no RSUs at all
    (3, 4, [{1, 4, 6}, {3, 5}, {4, 7}, {6}]),   # vehicle 2 in no coalition
    (2, 3, [{3, 4}, {5}]),   # no vehicle in any coalition
    (2, 3, []),
])
def test_given_coalitions_equal_the_reference(K, M, batch):
    cfg = random_config(np.random.default_rng(K * 10 + M), k_min=K, k_max=K, m_min=M, m_max=M)
    assert analytic._reports(batch, cfg) == [reference.player_payoffs(S, cfg) for S in batch]
