"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines for
passing criteria too). Three sub-criteria encode qualitative claims that do
not hold in exact arithmetic for this model (an RSU strictly prefers being
the only relay of both vehicles over the grand coalition whenever fees exceed
forwarding costs, and idle RSUs earn exactly zero rather than a positive
amount). Those tests state the claims as given and fail with the concrete
counterexamples; see the README stability notes.
"""

import dataclasses
import itertools
import time

import numpy as np

from vanetgame import (ABS_TOL, GameConfig, GeometryConfig, analytic_pair_encounter,
                       canonical_structure, core_membership,
                       core_sufficient_conditions, enumerate_partitions,
                       estimate_encounter_matrix, load_config,
                       normalize_structure, oracle_relay_mean, player_payoffs,
                       simulate_slots, structure_payoffs, structure_reports,
                       vehicle_coalition_profitability)
from conftest import random_config, random_coalition

D_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5)

TWO_BY_TWO_STRUCTURES = [
    [{1, 2, 3, 4}],
    [{1, 3, 4}, {2}],
    [{1, 2}, {3}, {4}],
    [{1}, {2}, {3}, {4}],
    [{1}, {3}, {2, 4}],
    [{1, 3}, {2, 4}],
    [{1, 2, 3}, {4}],
    [{1}, {2, 3, 4}],
    [{1, 4}, {2, 3}],
    [{1}, {4}, {2, 3}],
    [{1, 2}, {3, 4}],
    [{1}, {2}, {3, 4}],
    [{1, 2, 4}, {3}],
    [{1, 4}, {2}, {3}],
    [{2}, {4}, {1, 3}],
]

COMPARED = TWO_BY_TWO_STRUCTURES[:7]   # the seven structures studied in depth


def _report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{tag}] {status}{suffix}")


def sweep_config(d: float):
    q = analytic_pair_encounter(d, 1.0)
    return dataclasses.replace(load_config().game, enc=np.full((2, 2), q))


def test_ac01_partition_enumeration_matches_known_fifteen():
    start = time.perf_counter()
    partitions = enumerate_partitions(4)
    elapsed = time.perf_counter() - start
    got = {frozenset(cs) for cs in partitions}
    want = {frozenset(frozenset(b) for b in blocks) for blocks in TWO_BY_TWO_STRUCTURES}
    ok = got == want and len(partitions) == 15 and elapsed < 1.0
    _report("AC-01", ok, f"{len(partitions)} structures in {elapsed * 1e3:.1f} ms")
    assert got == want
    assert len(partitions) == 15
    assert elapsed < 1.0


def test_ac02_transmission_shares_exact():
    cfg = load_config().game
    share = player_payoffs(frozenset({1, 2, 3, 4}), cfg).share
    s1 = share[1]
    s2 = share[2]
    ok = s1 == 0.6 and s2 == 0.6 * (1 - 0.6)
    _report("AC-02", ok, f"share(1)={s1!r}, share(2)={s2!r}")
    assert s1 == 0.6
    assert s2 == 0.6 * (1 - 0.6)


def test_ac03_identity_suite_on_random_configs():
    rng = np.random.default_rng(2024_03)
    worst = 0.0
    n_configs = 1000
    for _ in range(n_configs):
        cfg = random_config(rng, k_max=4, m_max=5)
        S = random_coalition(rng, cfg)
        vehicles = sorted(m for m in S if m <= cfg.K)
        rsus = sorted(m for m in S if m > cfg.K)
        rep = player_payoffs(S, cfg)

        total = sum(rep.share[i] for i in vehicles)
        idle = 1.0
        for i in vehicles:
            idle *= 1.0 - cfg.p[i - 1]
        worst = max(worst, abs(total - (1.0 - idle)))

        for i in vehicles:
            fee = rep.fee[i]
            gain = rep.rate_gain[i]
            eta_row = {j: rep.relay_prob[j][i] for j in rsus}
            if rsus:
                none = 1.0
                for j in rsus:
                    none *= 1.0 - cfg.enc[j - cfg.K - 1, i - 1]
                worst = max(worst, abs(sum(eta_row.values()) - (1.0 - none)))
            worst = max(worst, abs(fee - sum(eta_row[j] * cfg.price[j - cfg.K - 1, i - 1]
                                             for j in rsus)))
            worst = max(worst, abs(gain - sum(eta_row[j] * cfg.delta[i - 1, j - cfg.K - 1]
                                              for j in rsus)))

        paid = sum(rep.payment[i] for i in vehicles)
        earned = sum(rep.revenue[j] for j in rsus)
        worst = max(worst, abs(paid - earned))

        # simplified closed forms under per-vehicle-uniform weights
        uni = random_config(rng, k_max=4, m_max=5, uniform_relay=True)
        S2 = random_coalition(rng, uni)
        rsus2 = sorted(m for m in S2 if m > uni.K)
        rep2 = player_payoffs(S2, uni)
        for i in sorted(m for m in S2 if m <= uni.K):
            reach = 1.0
            for j in rsus2:
                reach *= 1.0 - uni.enc[j - uni.K - 1, i - 1]
            reach = 1.0 - reach
            d_i = uni.delta[i - 1, 0] if rsus2 else 0.0
            xi_i = uni.price[0, i - 1] if rsus2 else 0.0
            worst = max(worst, abs(rep2.rate_gain[i] - d_i * reach))
            share = rep2.share[i]
            worst = max(worst, abs(share * rep2.fee[i] - share * (reach * xi_i)))
    ok = worst <= ABS_TOL
    _report("AC-03", ok, f"{n_configs} configs, max residual {worst:.3e}")
    assert ok, f"identity residual {worst:.3e} exceeds {ABS_TOL}"


def test_ac04_oracle_equivalence():
    rng = np.random.default_rng(2024_04)
    worst = 0.0
    n_configs = 1000
    for _ in range(n_configs):
        cfg = random_config(rng, k_max=3, m_max=5)
        while cfg.M == 0:
            cfg = random_config(rng, k_max=3, m_max=5)
        S = random_coalition(rng, cfg, need_rsu=True)
        rsus = sorted(m for m in S if m > cfg.K)
        rep = player_payoffs(S, cfg)
        for i in sorted(m for m in S if m <= cfg.K):
            weights = {j: float(cfg.delta[i - 1, j - cfg.K - 1]) for j in rsus}
            value, chosen = oracle_relay_mean(S, i, weights, cfg)
            worst = max(worst, abs(value - rep.rate_gain[i]))
            prices = {j: float(cfg.price[j - cfg.K - 1, i - 1]) for j in rsus}
            pvalue, _ = oracle_relay_mean(S, i, prices, cfg)
            worst = max(worst, abs(pvalue - rep.fee[i]))
            for j in rsus:
                worst = max(worst, abs(chosen[j] - rep.relay_prob[j][i]))
    ok = worst <= ABS_TOL
    _report("AC-04", ok, f"{n_configs} configs, max |closed form - enumeration| {worst:.3e}")
    assert ok, f"oracle disagreement {worst:.3e} exceeds {ABS_TOL}"


def test_ac05_fee_rescaling_leaves_sum_payoff_alone():
    rng = np.random.default_rng(2024_05)
    worst = 0.0
    configs = [load_config().game]
    configs += [random_config(rng, unit_bg=True) for _ in range(200)]
    for cfg in configs:
        S = random_coalition(rng, cfg)
        base = player_payoffs(S, cfg).total_payoff
        for scale in (0.0, 2.0, 10.0):
            scaled = dataclasses.replace(cfg, price=scale * cfg.price)
            worst = max(worst, abs(player_payoffs(S, scaled).total_payoff - base))
    ok = worst <= ABS_TOL
    _report("AC-05", ok, f"x0/x2/x10 fee rescaling, max residual {worst:.3e}")
    assert ok, f"fee rescaling moved a sum payoff by {worst:.3e}"


def test_ac06_rsu_only_coalitions_are_inert():
    cfg = load_config().game
    rep = player_payoffs(frozenset({3, 4}), cfg)
    zeros = (rep.rsu_payoff == {3: 0.0, 4: 0.0}
             and rep.revenue == {3: 0.0, 4: 0.0}
             and rep.cost == {3: 0.0, 4: 0.0})
    exact = True
    for cs in enumerate_partitions(4):
        vec = structure_payoffs(cs, cfg)
        normalized = normalize_structure(cs, cfg.K)
        exact &= bool((structure_payoffs(normalized, cfg) == vec).all())
    rng = np.random.default_rng(2024_06)
    for _ in range(100):
        rnd = random_config(rng, k_max=3, m_max=4)
        players = list(range(1, rnd.n_players + 1))
        labels = rng.integers(0, 3, size=len(players))
        blocks = {}
        for player, lab in zip(players, labels):
            blocks.setdefault(int(lab), set()).add(player)
        cs = canonical_structure(blocks.values())
        vec = structure_payoffs(cs, rnd)
        exact &= bool((structure_payoffs(normalize_structure(cs, rnd.K), rnd) == vec).all())
        for block in cs:
            if all(m > rnd.K for m in block):
                exact &= all(vec[m - 1] == 0.0 for m in block)
    ok = zeros and exact
    _report("AC-06", ok, "RSU-only payoffs zero; normalization exact on payoff vectors")
    assert zeros
    assert exact


def test_ac07_slot_simulation_cross_validates_closed_forms():
    cfg = load_config().game
    grand = (frozenset({1, 2, 3, 4}),)
    start = time.perf_counter()
    rep = simulate_slots(grand, cfg, 1_000_000, seed=20_240_807)
    elapsed = time.perf_counter() - start
    block = structure_reports(grand, cfg)[0]
    worst_z = 0.0
    failures = []

    def check(name, est, se, want):
        nonlocal worst_z
        tol = max(3.0 * se, 1e-4 * (1.0 + abs(want)))
        if se > 0:
            worst_z = max(worst_z, abs(est - want) / se)
        if abs(est - want) > tol:
            failures.append(f"{name}: est {est:.6f} vs analytic {want:.6f} (se {se:.2e})")

    for i in (1, 2):
        check(f"throughput[{i}]", rep.throughput[i - 1], rep.throughput_se[i - 1],
              block.throughput[i])
        check(f"payment[{i}]", rep.payment[i - 1], rep.payment_se[i - 1], block.payment[i])
        check(f"payoff[{i}]", rep.vehicle_payoff[i - 1], rep.vehicle_payoff_se[i - 1],
              block.vehicle_payoff[i])
    for j in (3, 4):
        r = j - 3
        check(f"revenue[{j}]", rep.revenue[r], rep.revenue_se[r], block.revenue[j])
        check(f"cost[{j}]", rep.cost[r], rep.cost_se[r], block.cost[j])
        check(f"payoff[{j}]", rep.rsu_payoff[r], rep.rsu_payoff_se[r], block.rsu_payoff[j])
    ok = not failures and elapsed < 60.0
    _report("AC-07", ok,
            f"1e6 slots in {elapsed:.1f}s, worst |z| {worst_z:.2f}")
    assert not failures, failures
    assert elapsed < 60.0


def test_ac08_geometric_encounter_estimates():
    failures = []
    estimates = {}
    for d in D_SWEEP:
        geo = GeometryConfig(side_km=1.0, range_km=(d, d), n_slots=1_000_000,
                             seed=20_240_808)
        est, = estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])
        estimates[d] = est
        want = analytic_pair_encounter(d, 1.0)
        for j in range(2):
            for i in range(2):
                if abs(est.matrix[j, i] - want) > 3.0 * est.stderr[j, i]:
                    failures.append(f"d={d} pair(v{i + 1},r{j + 3}): "
                                    f"{est.matrix[j, i]:.5f} vs {want:.5f}")
    for lo, hi in zip(D_SWEEP, D_SWEEP[1:]):
        if not (estimates[hi].matrix >= estimates[lo].matrix).all():
            failures.append(f"not monotone between d={lo} and d={hi}")
    for d in D_SWEEP:
        est = estimates[d]
        flat = est.matrix.ravel()
        ses = est.stderr.ravel()
        for a, b in itertools.combinations(range(4), 2):
            pooled = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
            if abs(flat[a] - flat[b]) > 4.0 * pooled:
                failures.append(f"d={d} pairs {a} vs {b} differ beyond 4 pooled se")
    ok = not failures
    _report("AC-08", ok, f"sweep {list(D_SWEEP)}, 1e6 slots each")
    assert not failures, failures


def _sweep_payoff_vectors():
    out = {}
    for d in D_SWEEP:
        cfg = sweep_config(d)
        out[d] = [structure_payoffs(canonical_structure(blocks), cfg)
                  for blocks in COMPARED]
    return out


def test_ac09a_grand_structure_weakly_dominates_compared_structures():
    # the claim fails in exact arithmetic: an RSU paired exclusively with
    # vehicles earns strictly more than in the grand coalition (see README)
    vectors = _sweep_payoff_vectors()
    violations = []
    for d, vecs in vectors.items():
        grand = vecs[0]
        for alt_idx, alt in enumerate(vecs[1:], start=2):
            for player in range(1, 5):
                if not grand[player - 1] >= alt[player - 1]:
                    violations.append(
                        f"d={d}: player {player} gets {alt[player - 1]:.6f} in "
                        f"structure #{alt_idx} vs {grand[player - 1]:.6f} in the grand one")
    ok = not violations
    _report("AC-09a", ok, f"{len(violations)} violations" if violations else "")
    assert not violations, violations


def test_ac09b_priority_orders_vehicle_payoffs_in_grand_structure():
    ok = True
    for d in D_SWEEP:
        vec = structure_payoffs((frozenset({1, 2, 3, 4}),), sweep_config(d))
        ok &= vec[0] > vec[1]
        ok &= vec[2] == vec[3]
    _report("AC-09b", ok, "vehicle 1 above vehicle 2, RSU payoffs identical")
    assert ok


def test_ac09c_pairing_the_vehicles_helps_only_the_priority_holder():
    pair = canonical_structure([{1, 2}, {3}, {4}])
    singles = canonical_structure([{1}, {2}, {3}, {4}])
    ok = True
    for d in D_SWEEP:
        cfg = sweep_config(d)
        a = structure_payoffs(pair, cfg)
        b = structure_payoffs(singles, cfg)
        ok &= a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
        ok &= a[0] > b[0]
    _report("AC-09c", ok, "vehicle 2 and both RSUs exactly unchanged, vehicle 1 up")
    assert ok


def test_ac09d_all_payoffs_positive_in_compared_structures():
    # fails in exact arithmetic: an RSU alone in its coalition earns exactly 0
    violations = []
    for d, vecs in _sweep_payoff_vectors().items():
        for idx, vec in enumerate(vecs, start=1):
            for player in range(1, 5):
                if not vec[player - 1] > 0.0:
                    violations.append(f"d={d}: player {player} earns "
                                      f"{vec[player - 1]!r} in structure #{idx}")
    ok = not violations
    _report("AC-09d", ok, f"{len(violations)} non-positive payoffs" if violations else "")
    assert not violations, violations


def test_ac10a_sufficient_conditions_on_default_parameters():
    # fails in exact arithmetic: strict preference for the grand coalition by
    # every member of every proper coalition cannot hold when fees exceed
    # forwarding costs and two RSUs compete (witness below)
    verdict = core_sufficient_conditions(load_config().game)
    detail = ""
    if not verdict.all_hold:
        player, S = verdict.preference_witness or verdict.gain_witness or (verdict.weight_witness, ())
        detail = f"witness: player {player} in coalition {sorted(S)}"
    _report("AC-10a", verdict.all_hold, detail)
    assert verdict.weights_positive
    assert verdict.gains_strict
    assert verdict.all_hold, detail


def test_ac10b_grand_vector_is_unblocked():
    cfg = load_config().game
    vec = structure_payoffs((frozenset({1, 2, 3, 4}),), cfg)
    result = core_membership(vec, cfg)
    _report("AC-10b", result.in_core,
            "grand payoff vector unblocked by all 14 proper coalitions")
    assert result.in_core, f"blocked by {result.blocking}"


def test_ac10c_soundness_of_the_sufficient_conditions():
    rng = np.random.default_rng(2024_10)
    found = 0
    counterexamples = []
    attempts = 0
    while found < 200 and attempts < 20_000:
        attempts += 1
        K = int(rng.integers(1, 4))
        cf = rng.uniform(0.05, 0.4, size=(1, K))
        cr = rng.uniform(0.05, 0.4, size=(1, K))
        cfg = GameConfig(
            K, 1,
            p=rng.uniform(0.3, 0.7, size=K),
            enc=rng.uniform(0.15, 0.85, size=(1, K)),
            delta=rng.uniform(0.1, 1.0, size=(K, 1)),
            price=cf + cr + rng.uniform(0.05, 0.8),
            cost_fwd=cf, cost_rcv=cr,
            alpha=rng.uniform(5.0, 15.0, size=K),
            beta=1.0, gamma=1.0, mu=1.0)
        if not core_sufficient_conditions(cfg).all_hold:
            continue
        found += 1
        grand = (frozenset(range(1, cfg.n_players + 1)),)
        if not core_membership(structure_payoffs(grand, cfg), cfg).in_core:
            counterexamples.append(cfg)
    ok = found >= 200 and not counterexamples
    _report("AC-10c", ok,
            f"{found} condition-satisfying configs out of {attempts} draws, "
            f"{len(counterexamples)} counterexamples")
    assert found >= 200
    assert not counterexamples


def test_ac11_profitability_condition():
    # equal activity probabilities: every member of every vehicle-only
    # coalition is weakly profitable
    cfg = GameConfig(4, 0, p=0.6, enc=np.zeros((0, 4)), delta=np.zeros((4, 0)),
                     price=np.zeros((0, 4)), cost_fwd=np.zeros((0, 4)),
                     cost_rcv=np.zeros((0, 4)), alpha=10.0)
    all_profitable = True
    for size in range(1, 5):
        for members in itertools.combinations(range(1, 5), size):
            verdict = vehicle_coalition_profitability(frozenset(members), cfg)
            all_profitable &= all(verdict.values())

    rng = np.random.default_rng(2024_11)
    agreements = 0
    n_coalitions = 1000
    for _ in range(n_coalitions):
        rnd = random_config(rng, k_max=5, m_max=0)
        members = frozenset(
            int(v) + 1 for v in rng.choice(rnd.K, size=int(rng.integers(1, rnd.K + 1)),
                                           replace=False))
        verdict = vehicle_coalition_profitability(members, rnd)
        rep = player_payoffs(members, rnd)
        match = True
        for i in members:
            alone = player_payoffs(frozenset({i}), rnd).vehicle_payoff[i]
            direct = rep.vehicle_payoff[i] >= alone - 1e-12 * max(1.0, abs(alone))
            match &= verdict[i] == direct
        agreements += match
    ok = all_profitable and agreements == n_coalitions
    _report("AC-11", ok,
            f"equal-p coalitions all weakly profitable; "
            f"{agreements}/{n_coalitions} two-route agreements")
    assert all_profitable
    assert agreements == n_coalitions
