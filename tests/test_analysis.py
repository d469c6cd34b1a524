import dataclasses
import json
import operator
import pathlib
import tracemalloc

import numpy as np
import pytest

import reference
from vanetgame import analysis, analytic, model
from vanetgame.configio import load_config, resolve_encounter
from vanetgame import (ABS_TOL, GameConfig, canonical_structure, core_membership,
                       core_sufficient_conditions, enumerate_partitions,
                       normalize_structure, player_payoffs, run_identity_checks,
                       stability_verdict, structure_payoffs,
                       vehicle_coalition_profitability)
from conftest import random_config, random_coalition

ALL_SINGLETONS = canonical_structure([{1}, {2}, {3}, {4}])
VEHICLE_PAIR = canonical_structure([{1, 2}, {3}, {4}])
GRAND = (frozenset({1, 2, 3, 4}),)


def test_all_singletons_payoffs(default_cfg):
    vec = structure_payoffs(ALL_SINGLETONS, default_cfg)
    assert abs(vec[0] - 2.4) <= 1e-12
    assert abs(vec[1] - 2.4) <= 1e-12
    assert vec[2] == 0.0 and vec[3] == 0.0


def test_vehicle_pair_vs_singletons(default_cfg):
    pair = structure_payoffs(VEHICLE_PAIR, default_cfg)
    alone = structure_payoffs(ALL_SINGLETONS, default_cfg)
    # vehicle 2, RSU 3, RSU 4 see no difference; vehicle 1 strictly gains
    assert pair[1] == alone[1]
    assert pair[2] == alone[2] and pair[3] == alone[3]
    assert pair[0] > alone[0]


def test_structure_payoffs_invariant_under_normalization(default_cfg):
    for cs in enumerate_partitions(4):
        vec = structure_payoffs(cs, default_cfg)
        normalized = normalize_structure(cs, default_cfg.K)
        assert (structure_payoffs(normalized, default_cfg) == vec).all()


def test_rsu_pair_block_same_as_vehicle_pair_structure(default_cfg):
    with_rsu_block = canonical_structure([{1, 2}, {3, 4}])
    assert (structure_payoffs(with_rsu_block, default_cfg)
            == structure_payoffs(VEHICLE_PAIR, default_cfg)).all()


def test_structure_payoffs_rejects_non_partition(default_cfg):
    with pytest.raises(ValueError, match="invalid structure"):
        structure_payoffs((frozenset({1, 2}), frozenset({2, 3, 4})), default_cfg)


def test_profitability_pair(default_cfg):
    verdict = vehicle_coalition_profitability(frozenset({1, 2}), default_cfg)
    assert verdict == {1: True, 2: True}


def test_profitability_rejects_rsus(default_cfg):
    with pytest.raises(ValueError, match="contains RSUs"):
        vehicle_coalition_profitability(frozenset({1, 3}), default_cfg)


def test_profitability_rejects_negative_throughput_weight(default_cfg):
    cfg = dataclasses.replace(default_cfg, alpha=np.array([-1.0, 10.0]))
    with pytest.raises(ValueError, match="negative throughput weight for players \\[1\\]"):
        vehicle_coalition_profitability(frozenset({1, 2}), cfg)


def test_profitability_singleton_indifferent(default_cfg):
    assert vehicle_coalition_profitability(frozenset({2}), default_cfg) == {2: True}


def test_profitability_agrees_with_direct_payoffs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        cfg = random_config(rng, k_max=5, m_max=0)
        members = frozenset(
            int(v) for v in rng.choice(cfg.K, size=rng.integers(1, cfg.K + 1),
                                       replace=False) + 1)
        verdict = vehicle_coalition_profitability(members, cfg)
        rep = player_payoffs(members, cfg)
        for i in members:
            alone = player_payoffs(frozenset({i}), cfg).vehicle_payoff[i]
            direct = rep.vehicle_payoff[i] >= alone - 1e-12 * max(1.0, abs(alone))
            assert verdict[i] == direct


def _fee_residual(S, cfg):
    """The fee-cancellation residual that `check` reports, for one coalition."""
    rep = player_payoffs(S, cfg)
    rep0 = player_payoffs(S, dataclasses.replace(cfg, price=np.zeros_like(cfg.price)))
    return reference._gap([(rep.total_payoff, rep0.total_payoff), reference._balance(rep)])


def test_pricing_cancellation_default(default_cfg):
    assert _fee_residual(frozenset({1, 2, 3, 4}), default_cfg) <= ABS_TOL


def test_pricing_cancellation_trivial_without_rsus(default_cfg):
    assert _fee_residual(frozenset({1, 2}), default_cfg) == 0.0


def test_pricing_cancellation_scaled_prices():
    rng = np.random.default_rng(37)
    for _ in range(50):
        cfg = random_config(rng, unit_bg=True)
        S = random_coalition(rng, cfg)
        base = player_payoffs(S, cfg).total_payoff
        doubled = dataclasses.replace(cfg, price=2.0 * cfg.price)
        assert abs(player_payoffs(S, doubled).total_payoff - base) <= 1e-12
        assert _fee_residual(S, cfg) <= ABS_TOL
        assert _fee_residual(S, doubled) <= ABS_TOL


def test_pricing_cancellation_requires_unit_weights(default_cfg):
    lopsided = dataclasses.replace(default_cfg, beta=np.array([2.0, 1.0]))
    fees = [r for r in run_identity_checks(lopsided) if r.name.startswith("fees cancel")]
    assert [(r.passed, r.detail) for r in fees] == [
        (None, "skipped: needs unit payment/revenue weights")]


def test_check_results_and_profitability_verdicts_are_python_bools(default_cfg):
    k4m8 = load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json").game
    for cfg in (default_cfg, k4m8):
        results = run_identity_checks(cfg)
        assert all(r.passed is None or type(r.passed) is bool for r in results)
        json.dumps([dataclasses.asdict(r) for r in results])
        verdict = vehicle_coalition_profitability(frozenset(cfg.vehicles), cfg)
        assert all(type(x) is bool for x in verdict.values())


def test_conditions_fail_on_nonpositive_weight(default_cfg):
    broken = dataclasses.replace(default_cfg, alpha=np.array([0.0, 10.0]))
    verdict = core_sufficient_conditions(broken)
    assert not verdict.weights_positive
    assert verdict.weight_witness == 1


def test_conditions_on_default_config(default_cfg):
    # relay fees above forwarding costs make exclusive relaying attractive:
    # every member strictly preferring the grand coalition cannot hold here,
    # while the first two conditions do
    verdict = core_sufficient_conditions(default_cfg)
    assert verdict.weights_positive
    assert verdict.gains_strict
    assert not verdict.grand_preferred
    player, coalition = verdict.preference_witness
    assert player > default_cfg.K   # the witness is always an RSU here
    rep_s = player_payoffs(coalition, default_cfg)
    grand = player_payoffs(frozenset({1, 2, 3, 4}), default_cfg)
    assert rep_s.payoff_of(player) >= grand.payoff_of(player)


def test_conditions_fail_when_fees_dwarf_throughput(default_cfg):
    # price so high that a vehicle pays more than its weighted throughput
    expensive = dataclasses.replace(
        default_cfg, price=np.full((2, 2), 50.0), alpha=np.array([0.1, 0.1]))
    verdict = core_sufficient_conditions(expensive)
    assert not verdict.gains_strict


def single_rsu_config():
    return GameConfig(2, 1, p=0.6, enc=0.5, delta=0.5, price=1.5,
                      cost_fwd=0.5, cost_rcv=0.2, alpha=10.0, beta=1.0,
                      gamma=1.0, mu=1.0)


def test_conditions_hold_with_single_rsu():
    verdict = core_sufficient_conditions(single_rsu_config())
    assert verdict.all_hold


def test_membership_of_grand_vector(default_cfg):
    vec = structure_payoffs(GRAND, default_cfg)
    result = core_membership(vec, default_cfg)
    assert result.in_core and result.blocking is None


def test_membership_detects_singleton_blocking(default_cfg):
    vec = structure_payoffs(GRAND, default_cfg).copy()
    vec[0] = 0.0   # below what vehicle 1 earns alone
    result = core_membership(vec, default_cfg)
    assert not result.in_core
    assert result.blocking == frozenset({1})


def test_membership_reports_lexicographically_smallest_blocker(default_cfg):
    result = core_membership(np.full(4, -1.0), default_cfg)
    assert result.blocking == frozenset({1})


def test_membership_grand_coalition_blocks_dominated_vectors(default_cfg):
    # the all-singleton payoffs are dominated; {1,2,3} is the smallest blocker
    vec = structure_payoffs(ALL_SINGLETONS, default_cfg)
    result = core_membership(vec, default_cfg)
    assert not result.in_core
    assert result.blocking == frozenset({1, 2, 3})
    # strictly below the grand payoffs everywhere, the full set itself blocks
    grand_vec = structure_payoffs(GRAND, default_cfg)
    result = core_membership(grand_vec - 1e-9, default_cfg)
    assert not result.in_core


def test_preference_witness_is_the_smallest_id_member():
    # vehicle 1 and its exclusive relay 2 both beat the grand coalition, where
    # the expensive, useless RSU 3 takes half of the relaying
    cfg = GameConfig(1, 2, p=0.5, enc=0.5, delta=[[1.0, 0.0]], price=[[1.0], [5.0]],
                     cost_fwd=0.1, cost_rcv=0.0, alpha=10.0)
    verdict = stability_verdict(cfg)
    assert verdict.conditions.gains_strict
    assert verdict.conditions.preference_witness == (1, frozenset({1, 2}))
    assert verdict.membership.blocking == frozenset({1, 2})
    assert core_sufficient_conditions(cfg) == verdict.conditions


@pytest.mark.parametrize("n", range(1, 9))
def test_preorder_key_orders_coalitions_as_sorted_tuples(n):
    masks = np.arange(1, 1 << n)
    keys = analysis._preorder_key(masks, n).tolist()
    assert len(set(keys)) == len(keys)
    by_key = [int(m) for _, m in sorted(zip(keys, masks.tolist()))]

    def members(mask):
        return tuple(k + 1 for k in range(n) if mask >> k & 1)

    assert [members(m) for m in by_key] == sorted(members(m) for m in masks.tolist())


def test_sweep_memory_is_bounded_at_sixteen_players():
    # the table is walked in blocks: a whole 2^16-coalition table of n floats
    # per quantity would take 8 MB each, and a (K, M) relay array per mask of a
    # block peaks at 7.7 MB; a block's grid gathers relay terms per RSU set only
    cfg = random_config(np.random.default_rng(16), k_max=4, m_max=12, k_min=4, m_min=12)
    tracemalloc.start()
    try:
        stability_verdict(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_identity_check_memory_is_bounded_at_sixteen_players():
    # the oracle takes one batch per RSU count, split into 2^_ORACLE_BLOCK_BITS
    # (pair, encounter set) cells at a time; one oracle call per pair peaked at
    # 1.92 MB here, and one uncapped batch per RSU count at 16 MB
    cfg = random_config(np.random.default_rng(16), k_max=4, m_max=12, k_min=4, m_min=12)
    tracemalloc.start()
    try:
        run_identity_checks(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1.92 * 2 ** 20


@pytest.mark.parametrize("shape", ["singletons", "vehicle-rsu-pairs", "grand"])
def test_wide_structure_reports_equal_the_reference(shape):
    # K = M = 40: one relay pass over every (vehicle, coalition) pair of the structure
    K = M = 40
    cfg = random_config(np.random.default_rng(40), k_min=K, k_max=K, m_min=M, m_max=M)
    cs = canonical_structure({
        "singletons": [{m} for m in range(1, K + M + 1)],
        "vehicle-rsu-pairs": [{i, K + i} for i in range(1, K + 1)],
        "grand": [set(range(1, K + M + 1))]}[shape])
    assert analysis.structure_reports(cs, cfg) == [reference.player_payoffs(S, cfg) for S in cs]


def test_wide_grand_coalition_takes_no_round_per_vehicle_rsu_pair(monkeypatch):
    # the table branches on membership in a fixed number of places; a loop over
    # (vehicle, RSU) pairs made 8,820 np.where calls here, a branch per term 239
    K = M = 40
    cfg = random_config(np.random.default_rng(40), k_min=K, k_max=K, m_min=M, m_max=M)
    calls, where = [], np.where
    monkeypatch.setattr(np, "where", lambda *args: calls.append(args) or where(*args))
    analysis.structure_reports((frozenset(range(1, K + M + 1)),), cfg)
    assert len(calls) <= K + M


def test_non_finite_payoffs_are_rejected():
    # valid parameters whose products overflow, so payoffs would be inf or NaN
    cfg = GameConfig(2, 2, p=0.6, enc=0.5, delta=1e308, price=1e308, cost_fwd=0.5,
                     cost_rcv=0.2, alpha=1e308, beta=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        for analyse in (stability_verdict, run_identity_checks,
                        lambda c: structure_payoffs(GRAND, c)):
            with pytest.raises(ValueError, match="payoff of player 1 in its coalition is not "):
                analyse(cfg)


def test_membership_dimension_check(default_cfg):
    with pytest.raises(ValueError, match="shape"):
        core_membership(np.zeros(3), default_cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_rejects_non_finite_entries(default_cfg, bad):
    x = structure_payoffs(GRAND, default_cfg).copy()
    x[[1, 3]] = bad
    with pytest.raises(ValueError, match=r"not finite for players \[2, 4\]"):
        core_membership(x, default_cfg)


def test_core_results_hold_only_their_witnesses(default_cfg):
    assert [f.name for f in dataclasses.fields(analysis.CoreConditions)] == [
        "weight_witness", "gain_witness", "preference_witness"]
    assert [f.name for f in dataclasses.fields(analysis.CoreMembership)] == ["blocking"]
    verdict = stability_verdict(default_cfg)
    cond = verdict.conditions
    assert (cond.weights_positive, cond.gains_strict, cond.grand_preferred) == (True, True, False)
    assert verdict.membership.in_core and verdict.membership.blocking is None


def _sweep_reporting(monkeypatch, preference=True, blocker=None):
    """Make analysis._sweep drop the preference witness it finds unless asked to
    keep it, and report blocker (the one it finds when None)."""
    original = analysis._sweep

    def sweep(cfg, grand, x):
        gain, found, found_blocker = original(cfg, grand, x)
        return (gain, found if preference else None,
                found_blocker if blocker is None else blocker)
    monkeypatch.setattr(analysis, "_sweep", sweep)


def test_blocker_that_fails_reverification_is_an_invariant_breach(monkeypatch, default_cfg):
    # the grand vector is in the core, so vehicle 1 alone cannot dominate it
    _sweep_reporting(monkeypatch, blocker=frozenset({1}))
    with pytest.raises(RuntimeError, match=r"blocker \[1\] does not dominate"):
        stability_verdict(default_cfg)
    with pytest.raises(RuntimeError, match=r"blocker \[1\] does not dominate"):
        core_membership(structure_payoffs(GRAND, default_cfg), default_cfg)


def test_conditions_that_hold_beside_a_blocker_are_an_invariant_breach(monkeypatch):
    # {1, 2} really blocks here; hiding the preference witness makes all conditions hold
    cfg = GameConfig(1, 2, p=0.5, enc=0.5, delta=[[1.0, 0.0]], price=[[1.0], [5.0]],
                     cost_fwd=0.1, cost_rcv=0.0, alpha=10.0)
    _sweep_reporting(monkeypatch, preference=False)
    with pytest.raises(RuntimeError, match=r"conditions hold but .* blocked by \[1, 2\]"):
        stability_verdict(cfg)


def test_verdict_consistency_when_conditions_hold():
    verdict = stability_verdict(single_rsu_config())
    assert verdict.conditions.all_hold
    assert verdict.membership.in_core


def test_soundness_on_filtered_random_configs():
    # whenever the three conditions hold, the grand vector must be in the core
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(800):
        K = int(rng.integers(1, 4))
        cf = rng.uniform(0.05, 0.4, size=(1, K))
        cr = rng.uniform(0.05, 0.4, size=(1, K))
        cfg = GameConfig(
            K, 1, p=rng.uniform(0.3, 0.7, size=K), enc=rng.uniform(0.15, 0.85, size=(1, K)),
            delta=rng.uniform(0.1, 1.0, size=(K, 1)), price=cf + cr + rng.uniform(0.05, 0.8),
            cost_fwd=cf, cost_rcv=cr, alpha=rng.uniform(5.0, 15.0, size=K),
            beta=1.0, gamma=1.0, mu=1.0)
        if not core_sufficient_conditions(cfg).all_hold:
            continue
        found += 1
        grand = (frozenset(range(1, cfg.n_players + 1)),)
        assert core_membership(structure_payoffs(grand, cfg), cfg).in_core
        if found >= 50:
            break
    assert found >= 50


def test_identity_checks_pass_on_default(default_cfg):
    results = run_identity_checks(default_cfg)
    for res in results:
        assert res.passed is not False, f"{res.name}: {res.detail}"


def test_identity_checks_run_the_oracle_on_at_most_twelve_rsus(monkeypatch):
    # the grand coalition of 13 RSUs is skipped, and {1, ..., 13} (12 RSUs) is checked
    cfg = GameConfig(1, 13, p=0.5, enc=0.5, delta=0.5, price=1.5, cost_fwd=0.5,
                     cost_rcv=0.2)
    sizes = []
    original = analysis._oracle_batch

    def record(q, w):
        sizes.append(q.shape[1])
        return original(q, w)
    monkeypatch.setattr(analysis, "_oracle_batch", record)
    results = run_identity_checks(cfg)
    assert max(sizes) == 12
    assert sizes == sorted(set(sizes))   # one batch per RSU count, in ascending order
    assert all(res.passed is not False for res in results)


def test_structure_reports_evaluate_one_table_per_structure(monkeypatch, default_cfg):
    shapes = []
    original = analytic._table

    def record(c, veh, rsu, pr):
        shapes.append(np.concatenate([veh, rsu]).shape)
        return original(c, veh, rsu, pr)

    monkeypatch.setattr(analytic, "_table", record)
    reports = analysis.structure_reports(VEHICLE_PAIR, default_cfg)
    assert [rep.members for rep in reports] == list(VEHICLE_PAIR)
    assert shapes == [(4, 3)]   # 4 players, 3 coalitions


def test_identity_checks_evaluate_each_coalition_once_per_config(monkeypatch):
    cfg = load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json").game
    calls = []
    original = analytic._table

    def record(c, veh, rsu, pr):
        member = np.concatenate([veh, rsu])
        columns = [frozenset(np.flatnonzero(col) + 1) for col in member.T.tolist()]
        assert len(set(columns)) == len(columns), "a coalition evaluated twice in one table"
        calls.append((c, columns))   # holds c, so its id is not reused by a later config
        return original(c, veh, rsu, pr)

    monkeypatch.setattr(analytic, "_table", record)
    results = analysis.run_identity_checks(cfg)
    assert [r.passed for r in results] == [True] * len(results)
    assert len({id(c) for c, _ in calls}) == len(calls) == 3   # cfg, uniformized, fee-free


def _check_configs():
    """The 60 draws of the `check` hash test, then every `check` golden config."""
    rng = np.random.default_rng(2026)
    for k in range(60):
        yield random_config(rng, unit_bg=k % 2 == 0, uniform_relay=k % 2 == 1)
    data = pathlib.Path(__file__).parent / "data"
    for name in (None, "k4m8", "k4m8_blocked", "k3m4_edges", "k3m4_gain", "k5m0"):
        yield resolve_encounter(load_config(name and data / f"core_{name}.json"))


def test_identity_checks_equal_the_report_based_reference():
    for cfg in _check_configs():
        assert run_identity_checks(cfg) == reference.identity_checks(cfg)


@pytest.mark.parametrize("q, d", [(3e-17, 1e5), (1e-300, 1.7e308)])
def test_reach_identities_hold_to_a_few_ulps_at_tiny_encounter_probabilities(q, d):
    # P(any encounter) = 1 - (1 - q) rounds to 0.0 here, 100% off the quantity
    cfg = GameConfig(1, 1, p=0.5, enc=q, delta=d, price=1.5, cost_fwd=0.5, cost_rcv=0.2)
    detail = {r.name: r.detail for r in run_identity_checks(cfg)}
    for name, quantity in (("relay-choice probabilities total P(any encounter)", q),
                           ("uniform-weight closed forms match general formulas", d * q)):
        residual = float(detail[name].split()[2])   # "max residual X (coalition ...)"
        assert residual <= 4 * np.spacing(quantity), (name, detail[name])


def test_identity_checks_compute_relay_probabilities_in_one_pass(monkeypatch):
    cfg = load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json").game
    calls = []
    original = analytic._relay_probs

    def record(q, rsus):
        calls.append(rsus.shape)
        return original(q, rsus)

    monkeypatch.setattr(analytic, "_relay_probs", record)
    analysis.run_identity_checks(cfg)
    assert len(calls) == 1   # not once per vehicle, nor once for each of the three configs


def test_identity_checks_without_rsus_run_no_oracle(monkeypatch):
    cfg = load_config(pathlib.Path(__file__).parent / "data" / "core_k5m0.json").game
    monkeypatch.setattr(analysis, "_oracle_batch", None)   # a call would raise TypeError
    assert analysis.run_identity_checks(cfg) == reference.identity_checks(cfg)


def _detail(cfg, name):
    res, = (r for r in run_identity_checks(cfg) if r.name == name)
    assert res.passed is False
    return res.detail


def test_rsu_only_failure_names_the_coalition(monkeypatch, default_cfg):
    original = analytic._table

    def nonzero(c, veh, rsu, pr):   # RSUs 3 and 4 together earn 1.0 each
        out = original(c, veh, rsu, pr)
        out[-1][:, (np.concatenate([veh, rsu]).T == [False, False, True, True]).all(axis=1)] = 1.0
        return out

    monkeypatch.setattr(analytic, "_table", nonzero)
    assert _detail(default_cfg, "RSU-only coalitions earn exactly zero") == (
        "checked over enumerated structures (coalition [3, 4])")


def test_fee_cancellation_failure_names_the_coalition(monkeypatch, default_cfg):
    original = analytic._table

    def shifted(c, veh, rsu, pr):   # at zero price, vehicle 1 earns 1e-9 more in {1, 3}
        out = original(c, veh, rsu, pr)
        if not c.price.any():
            at = (np.concatenate([veh, rsu]).T == [True, False, True, False]).all(axis=1)
            out[-1][0, at] += 1e-9
        return out

    monkeypatch.setattr(analytic, "_table", shifted)
    assert _detail(default_cfg, "fees cancel out of every coalition's sum payoff").endswith(
        " (coalition [1, 3])")


def test_fee_cancellation_fails_a_sum_that_overflows():
    # at zero price each vehicle earns -0.8e308, at price 0.4e308 each also pays 0.2e308 to
    # its own RSU: the priced sum of the grand coalition overflows to -inf, the other is finite
    cfg = model.GameConfig(2, 2, p=np.array([0.5, 1.0]), enc=np.eye(2),
                           delta=np.eye(2) * 1.6e308, price=np.eye(2) * 0.4e308,
                           cost_fwd=np.zeros((2, 2)), cost_rcv=np.zeros((2, 2)),
                           alpha=-np.ones(2), beta=np.ones(2), gamma=np.ones(2), mu=np.ones(2))
    name = "fees cancel out of every coalition's sum payoff"
    with np.errstate(over="ignore"):
        results = {r.name: r for r in analysis.run_identity_checks(cfg)}
    assert results[name] == analysis.CheckResult(
        name, False, "max residual inf (coalition [1, 2, 3, 4])")
    assert {r.name: r for r in reference.identity_checks(cfg)}[name] == results[name]


def test_normalization_failure_names_the_structure(monkeypatch, default_cfg):
    def unmarked(labels, K):   # the vehicle pair's block of 1,2|3|4 only counts as RSU-only
        mask = model._in_vehicle_block(labels, K)
        mask[(labels == [0, 0, 1, 2]).all(axis=1), :2] = False
        return mask

    monkeypatch.setattr(analysis, "_in_vehicle_block", unmarked)
    assert _detail(default_cfg, "normalization preserves every payoff exactly") == (
        "checked over enumerated structures (structure 1,2|3|4)")


def _profitability_detail_with_the_pair_flipped(monkeypatch, cfg):
    def flipped(S, cfg):   # wrong for the vehicle pair only
        verdict = vehicle_coalition_profitability(S, cfg)
        return {i: not v for i, v in verdict.items()} if S == {1, 2} else verdict

    monkeypatch.setattr(analysis, "vehicle_coalition_profitability", flipped)
    return _detail(cfg, "share-ratio profitability agrees with payoff comparison")


def test_profitability_failure_names_the_coalition(monkeypatch, default_cfg):
    assert _profitability_detail_with_the_pair_flipped(monkeypatch, default_cfg) == (
        "checked over vehicle-only coalitions (coalition [1, 2])")


def test_profitability_covers_vehicle_prefixes_beyond_the_sampled_partitions(monkeypatch):
    # at K = 4, n = 12 no sampled partition holds a vehicle-only coalition
    cfg = resolve_encounter(load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json"))
    assert _profitability_detail_with_the_pair_flipped(monkeypatch, cfg) == (
        "checked over vehicle-only coalitions (coalition [1, 2])")


@pytest.mark.parametrize("mask_shape, term_shape",
                         [((6, 5, 4), (6, 5, 4)), ((6, 5, 1), (6, 1, 4)), ((0, 3), (0, 3))],
                         ids=["same-shape", "broadcast", "no-players"])
def test_fold_equals_a_python_loop_bit_for_bit(mask_shape, term_shape):
    """Rows in ascending order, sums from 0.0 and products from 1.0, as a Python loop
    adds and multiplies floats; masked-out NaN and inf terms raise no RuntimeWarning."""
    rng = np.random.default_rng(len(mask_shape) + mask_shape[-1])
    mask = rng.random(mask_shape) < 0.5
    terms = rng.choice([-0.0, 0.0, 0.1, -2.5, 3.0, 1 / 3], term_shape)
    mask[2:3] = False   # player 3 is a member nowhere: its NaN and inf terms must add nothing
    terms[2:3] = rng.choice([np.nan, np.inf, -np.inf], terms[2:3].shape)
    held, term = np.broadcast_arrays(mask, terms)
    for op, start, python_op in ((np.add, 0.0, operator.add), (np.multiply, 1.0, operator.mul)):
        want = np.full(held.shape[1:], start)
        for index in np.ndindex(want.shape):
            acc = start
            for m, t in zip(held[(slice(None), *index)], term[(slice(None), *index)].tolist()):
                acc = python_op(acc, t) if m else acc
            want[index] = acc
        assert analysis._fold(op, start, mask, terms).tobytes() == want.tobytes()
    every = np.ones((2, 1), bool)   # a sum of -0.0 terms from 0.0 is +0.0, as in Python
    assert analysis._fold(np.add, 0.0, every, np.full((2, 1), -0.0)).tobytes() == bytes(8)
