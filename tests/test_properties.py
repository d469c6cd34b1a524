"""Property tests (hypothesis): relay-choice primitive, core sweep, simulator
counters, config loading and command lines."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from vanetgame import analysis, analytic, geometry, model
from vanetgame import (ABS_TOL, GameConfig, core_membership, core_sufficient_conditions,
                       oracle_relay_mean, player_payoffs, run_identity_checks,
                       simulate_slots, stability_verdict, structure_payoffs)
from vanetgame.cli import main
from vanetgame.configio import ConfigError, load_config, resolve_encounter
from vanetgame.model import split_members
from conftest import random_config, shipped_doc

probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _array(draw, shape, elements):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)


@st.composite
def configs(draw):
    """Valid configs with at most 8 players, probabilities including 0 and 1."""
    K = draw(st.integers(1, 4))
    M = draw(st.integers(0, 4))
    amount = st.floats(0.0, 2.0)
    weight = st.floats(0.2, 3.0)
    return GameConfig(
        K, M,
        p=_array(draw, (K,), probability),
        enc=_array(draw, (M, K), probability),
        delta=_array(draw, (K, M), amount),
        price=_array(draw, (M, K), amount),
        cost_fwd=_array(draw, (M, K), amount),
        cost_rcv=_array(draw, (M, K), amount),
        alpha=_array(draw, (K,), st.floats(0.5, 12.0)),
        beta=_array(draw, (K,), weight),
        gamma=_array(draw, (M,), weight),
        mu=_array(draw, (M,), weight),
    )


def _coalitions(n):
    for mask in range(1, 1 << n):
        yield frozenset(k + 1 for k in range(n) if mask >> k & 1)


def _relay_choice_probs(q):
    """P(each RSU relays) for encounter probabilities q: one column of analytic._relay_probs."""
    q = np.array(q, dtype=np.float64).reshape(-1, 1)
    return analytic._relay_probs(q, np.ones(q.shape, dtype=bool))[:, 0].tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(probability, min_size=0, max_size=10))
def test_relay_choice_probs_match_brute_force(q):
    M = len(q)
    cfg = GameConfig(1, M, p=0.5, enc=np.array(q, dtype=np.float64).reshape(M, 1),
                     delta=0.0, price=0.0, cost_fwd=0.0, cost_rcv=0.0)
    rsus = range(2, M + 2)
    _, chosen = oracle_relay_mean(frozenset(range(1, M + 2)), 1, dict.fromkeys(rsus, 1.0), cfg)
    probs = _relay_choice_probs(q)
    assert probs == reference.relay_choice_probs(q)
    assert len(probs) == M
    for pr, j in zip(probs, rsus):
        assert abs(pr - chosen[j]) <= ABS_TOL


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(lambda M: st.tuples(
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
             min_size=M, max_size=M),
    st.lists(st.floats(-10.0, 10.0), min_size=M, max_size=M))))
def test_oracle_equals_reference_loop(case):
    q, w = case
    M = len(q)
    cfg = GameConfig(1, M, p=0.5, enc=np.array(q, dtype=np.float64).reshape(M, 1),
                     delta=0.0, price=0.0, cost_fwd=0.0, cost_rcv=0.0)
    S, weights = frozenset(range(1, M + 2)), dict(zip(range(2, M + 2), w))
    got = oracle_relay_mean(S, 1, weights, cfg)
    assert type(got[0]) is float and got == reference.oracle_relay_mean(S, 1, weights, cfg)


def test_relay_choice_probs_edges():
    assert _relay_choice_probs([]) == []
    assert _relay_choice_probs([0.0, 0.0]) == [0.0, 0.0]
    assert _relay_choice_probs([1.0, 1.0, 1.0, 1.0]) == [0.25] * 4
    assert _relay_choice_probs([1.0, 0.0, 0.5]) == [0.75, 0.0, 0.25]


@settings(max_examples=60, deadline=None)
@given(configs())
def test_payments_equal_revenues_in_every_coalition(cfg):
    for S in _coalitions(cfg.n_players):
        rep = player_payoffs(S, cfg)
        paid = sum(rep.payment.values())
        earned = sum(rep.revenue.values())
        assert abs(paid - earned) <= ABS_TOL


def _reference_analysis(cfg, *xs):
    """Conditions 2 and 3 and the smallest blocker straight from the definitions, then the
    smallest blocker of each payoff vector in xs."""
    n = cfg.n_players
    reports = [reference.player_payoffs(S, cfg) for S in _coalitions(n)]
    grand = reports[-1]
    gain = preference = None
    for rep in reports[:-1]:
        S, members = rep.members, sorted(rep.members)
        if gain is None and any(m <= cfg.K for m in members):
            for m in members:
                if m <= cfg.K:
                    ok = (cfg.alpha[m - 1] * rep.throughput[m]
                          > cfg.beta[m - 1] * rep.payment[m])
                else:
                    r = m - cfg.K - 1
                    ok = cfg.gamma[r] * rep.revenue[m] > cfg.mu[r] * rep.cost[m]
                if not ok:
                    gain = (m, S)
                    break
        if preference is None:
            for m in members:
                if not grand.payoff_of(m) > rep.payoff_of(m):
                    preference = (m, S)
                    break

    def blocker(x):
        blockers = [tuple(sorted(rep.members)) for rep in reports
                    if all(rep.payoff_of(m) > x[m - 1] for m in rep.members)]
        return frozenset(min(blockers)) if blockers else None

    return gain, preference, *map(blocker, [[grand.payoff_of(m) for m in range(1, n + 1)], *xs])


@settings(max_examples=60, deadline=None)
@given(configs())
def test_fused_verdict_matches_separate_analyses(cfg):
    verdict = stability_verdict(cfg)
    grand = structure_payoffs((frozenset(range(1, cfg.n_players + 1)),), cfg)
    assert np.array_equal(verdict.payoff_vector, grand)
    assert verdict.conditions == core_sufficient_conditions(cfg)
    assert verdict.membership == core_membership(grand, cfg)
    gain, preference, blocker = _reference_analysis(cfg)
    assert verdict.conditions.gain_witness == gain
    assert verdict.conditions.preference_witness == preference
    assert verdict.membership.blocking == blocker
    assert verdict.membership.in_core == (blocker is None)


def _sweep_tables(cfg):
    """Every block of the core sweep, in order, as players x coalitions: (member, the six
    vehicle rows of _table's vehicle half, every payoff the sweep reads, the RSU product,
    its bound, the block's flagged columns). A column is flagged when it holds a vehicle and
    a member RSU whose product lies within its bound of 0 or of a limit."""
    blocks, vehicle_rows, products = [], [], []
    original = analysis._block_payoffs

    def record_vehicles(*args):
        vehicle_rows.append(analytic._vehicle_rows(*args))
        return vehicle_rows[-1]

    def record_product(*args):
        products.append(analytic._rsu_product(*args))
        return products[-1]

    def record(c, veh, rsu, pr, *limits):
        payoff = original(c, veh, rsu, pr, *limits)
        K, (M, R, V) = c.K, rsu.shape
        member = np.concatenate([np.broadcast_to(veh, (K, R, V)), rsu]).reshape(c.n_players, -1)
        product, bound = products[-1]
        near = np.any([abs(product - limit) <= bound for limit in (0, *limits)], axis=0)
        flagged = (near & rsu).any(axis=0).reshape(-1) & member[:K].any(axis=0)
        rows = [np.broadcast_to(x, (K, R, V)).reshape(K, -1) for x in vehicle_rows[-1]]
        blocks.append((member, rows, payoff.reshape(c.n_players, -1), product.reshape(M, R * V),
                       np.broadcast_to(bound, (M, R, V)).reshape(M, R * V), flagged))
        return payoff

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_block_payoffs", record)
        mp.setattr(analysis, "_vehicle_rows", record_vehicles)
        mp.setattr(analysis, "_rsu_product", record_product)
        grand = structure_payoffs((frozenset(range(1, cfg.n_players + 1)),), cfg)
        analysis._sweep(cfg, grand, grand)
    return blocks


def _assert_table_equals_reference(cfg, one_by_one=False):
    """Every report of a batch of all coalitions, each one-coalition report with
    one_by_one, and every vehicle entry of the sweep == the scalar reference, exactly.
    Every member RSU's product lies within its bound of the reference, and the sweep reads
    the reference in the flagged columns and the product elsewhere."""
    n, K = cfg.n_players, cfg.K
    coalitions = list(_coalitions(n))
    want = [reference.player_payoffs(S, cfg) for S in coalitions]
    assert analytic._reports(coalitions, cfg) == want
    if one_by_one:
        assert [player_payoffs(S, cfg) for S in coalitions] == want
    mask = 0   # the sweep's blocks cover masks 0 .. 2^n - 1 in ascending order
    for member, rows, payoff, product, bound, flagged in _sweep_tables(cfg):
        for k in range(member.shape[1]):
            S = frozenset(m + 1 for m in range(n) if mask >> m & 1)
            assert [m + 1 for m in np.flatnonzero(member[:, k])] == sorted(S)
            rep = want[mask - 1]
            for m in S:
                if m <= K:
                    got = tuple(row[m - 1, k] for row in rows)
                    assert got == (rep.share[m], rep.rate_gain[m], rep.fee[m], rep.throughput[m],
                                   rep.payment[m], rep.vehicle_payoff[m]), (sorted(S), m)
                    assert payoff[m - 1, k] == rep.vehicle_payoff[m]
                else:
                    t, u = m - K - 1, rep.rsu_payoff[m]
                    assert abs(product[t, k] - u) <= bound[t, k], (sorted(S), m)
                    assert payoff[m - 1, k] == (u if flagged[k] else product[t, k]), (sorted(S), m)
            mask += 1
    assert mask == 1 << n


@settings(max_examples=60, deadline=None)
@given(configs())
def test_payoff_table_equals_player_payoffs(cfg):
    _assert_table_equals_reference(cfg, one_by_one=True)


@pytest.mark.parametrize("K, M, edges", [(1, 9, False), (4, 0, False), (4, 6, False),
                                         (1, 9, True), (4, 0, True), (4, 6, True),
                                         (6, 3, False), (6, 3, True)])
@pytest.mark.parametrize("blocks", [None, (16, 2)])
def test_payoff_table_equals_player_payoffs_up_to_ten_players(K, M, edges, blocks):
    """Fixed shapes; with edges, p and enc entries at 0, 1/2 and 1 mixed in; with
    blocks, (coalitions per table block, low RSUs per coefficient block) so
    small that every block boundary of the sweep is crossed."""
    rng = np.random.default_rng(K * 100 + M)
    cfg = random_config(rng, k_max=K, m_max=M, k_min=K, m_min=M)
    if edges:
        p = np.where(rng.random(K) < 0.6, rng.integers(0, 3, K) / 2, cfg.p)
        enc = np.where(rng.random((M, K)) < 0.6, rng.integers(0, 3, (M, K)) / 2, cfg.enc)
        cfg = dataclasses.replace(cfg, p=p, enc=enc)
    with pytest.MonkeyPatch.context() as mp:
        if blocks:
            mp.setattr(analysis, "_BLOCK_MASKS", blocks[0])
            mp.setattr(analytic, "_COEF_BITS", blocks[1])
        _assert_table_equals_reference(cfg)


# Grids of tenths and thirds, coarse enough that exact payoffs often tie
GRID = sorted({Fraction(k, 10) for k in range(11)} | {Fraction(k, 3) for k in range(4)})
AMOUNTS = sorted(set(GRID) | {Fraction(3, 2), Fraction(2), Fraction(3)})
EXACT_WEIGHTS = (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(2),
                 Fraction(10))


@st.composite
def exact_configs(draw):
    """ExactConfigs of 1-3 vehicles and 0-3 RSUs with every entry on the grids above."""
    K, M = draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def entries(values, size):
        return draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))

    return reference.ExactConfig(
        K, M, p=entries(GRID, K), enc=entries(GRID, M * K), delta=entries(AMOUNTS, K * M),
        price=entries(AMOUNTS, M * K), cost_fwd=entries(AMOUNTS, M * K),
        cost_rcv=entries(AMOUNTS, M * K), alpha=entries(EXACT_WEIGHTS, K),
        beta=entries(EXACT_WEIGHTS, K), gamma=entries(EXACT_WEIGHTS, M),
        mu=entries(EXACT_WEIGHTS, M))


def _assert_exact(got, want, where):
    assert type(got) is Fraction and got == want, (where, got, want)


@settings(max_examples=40, deadline=None)
@given(exact_configs())
def test_exact_table_equals_brute_force_expectations(cfg):
    """On Fraction configs the batch table, the reports, every vehicle entry of the sweep,
    every member RSU's product and every payoff the sweep reads are Fractions equal to
    expectations over slot outcomes."""
    n, K = cfg.n_players, cfg.K
    coalitions = list(_coalitions(n))
    want = [reference.exact_quantities(S, cfg) for S in coalitions]
    names = ("share", "rate_gain", "fee", "benefit", "charge", "payoff")
    _, pr, (table,) = analytic._tables(coalitions, cfg)
    for c, (S, exact) in enumerate(zip(coalitions, want)):
        vehicles, rsus = split_members(S, K)
        for name, row in zip(names, table):
            for m in (vehicles if name in names[:3] else S):
                _assert_exact(row[m - 1, c], exact[name][m], (sorted(S), name, m))
        for (j, i), prob in exact["relay_prob"].items():
            _assert_exact(pr[i - 1, j - K - 1, c], prob, (sorted(S), "relay", j, i))
    report = player_payoffs(coalitions[-1], cfg)
    _assert_exact(report.total_payoff, sum(want[-1]["payoff"].values()), "total")
    mask = 0   # the sweep's blocks cover masks 0 .. 2^n - 1 in ascending order
    for member, rows, payoff, product, _, _ in _sweep_tables(cfg):
        for k in range(member.shape[1]):
            S = frozenset(m + 1 for m in range(n) if mask >> m & 1)
            assert [m + 1 for m in np.flatnonzero(member[:, k])] == sorted(S)
            exact = want[mask - 1]
            for m in S:
                if m <= K:
                    for name, row in zip(names, rows):
                        _assert_exact(row[m - 1, k], exact[name][m], (mask, name, m))
                else:
                    _assert_exact(product[m - K - 1, k], exact["payoff"][m], (mask, "product", m))
                _assert_exact(payoff[m - 1, k], exact["payoff"][m], (mask, "payoff", m))
            mask += 1
    assert mask == 1 << n


@settings(max_examples=40, deadline=None)
@given(exact_configs())
def test_exact_verdict_equals_brute_force(cfg):
    """On Fraction configs stability_verdict decides every tie exactly."""
    verdict = stability_verdict(cfg)
    grand, gain, preference, blocker = reference.exact_verdict(cfg)
    for m, (got, want) in enumerate(zip(verdict.payoff_vector, grand, strict=True), 1):
        _assert_exact(got, want, m)
    assert verdict.conditions.gain_witness == gain
    assert verdict.conditions.preference_witness == preference
    assert verdict.membership.blocking == blocker


def _tie_prone_config(rng):
    """A float config of 1-4 vehicles and 0-4 RSUs with every entry on the grids of
    exact_configs, where exact payoffs often tie."""
    K, M = int(rng.integers(1, 5)), int(rng.integers(0, 5))

    def entries(values, *shape):
        return np.array(values, dtype=np.float64)[rng.integers(0, len(values), shape)]

    return GameConfig(
        K, M, p=entries(GRID, K), enc=entries(GRID, M, K), delta=entries(AMOUNTS, K, M),
        price=entries(AMOUNTS, M, K), cost_fwd=entries(AMOUNTS, M, K),
        cost_rcv=entries(AMOUNTS, M, K), alpha=entries(EXACT_WEIGHTS, K),
        beta=entries(EXACT_WEIGHTS, K), gamma=entries(EXACT_WEIGHTS, M),
        mu=entries(EXACT_WEIGHTS, M))


# The amounts counted in money: every payoff is linear in them, so scaling them by a power
# of two changes the unit of money and scales each payoff exactly
MONEY = ("alpha", "price", "cost_fwd", "cost_rcv")
K4M8 = resolve_encounter(load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json"))


def _scaled(cfg, k):
    """cfg with every amount of MONEY multiplied by 2^k."""
    return dataclasses.replace(cfg, **{name: getattr(cfg, name) * 2.0 ** k for name in MONEY})


@st.composite
def grid_configs(draw):
    """exact_configs as floats, the payment and revenue weights set to 1 in about half the
    draws, so that fee cancellation runs. The smallest nonzero payoff term, a product of a
    few grid entries, stays far above the subnormals at 2^-20, and the largest far below
    the float range at 2^20."""
    exact, unit = draw(exact_configs()), draw(st.booleans())
    cfg = GameConfig(exact.K, exact.M, **{name: np.array(getattr(exact, name), dtype=float)
                                          for name in model._SHAPES})
    return dataclasses.replace(cfg, beta=1.0, gamma=1.0) if unit else cfg


def _verdicts(cfg):
    """Every PASS, FAIL or SKIP of check, every core line but the grand vector, and that vector."""
    verdict = stability_verdict(cfg)
    return ([r.passed for r in run_identity_checks(cfg)],
            (verdict.conditions, verdict.membership), verdict.payoff_vector)


@settings(max_examples=40, deadline=None)
@given(grid_configs(), st.integers(-20, 20))
@example(K4M8, 20)   # check failed three identities here with an absolute tolerance
def test_check_and_core_verdicts_do_not_depend_on_the_unit_of_money(cfg, k):
    """Metamorphic relation (Chen, Cheung and Yiu, 1998): money counted in units 2^k times
    smaller leaves every check verdict and every core line but the grand vector unchanged,
    and the grand vector scales exactly by 2^k."""
    checks, core, grand = _verdicts(cfg)
    checks_k, core_k, grand_k = _verdicts(_scaled(cfg, k))
    assert checks_k == checks and core_k == core
    assert (grand_k == grand * 2.0 ** k).all()


def test_a_payment_moved_by_a_billionth_fails_at_every_scale(monkeypatch):
    """Vehicle 1's payment in every coalition, moved by 1e-9 of itself, still fails the
    payment identity at every scale 2^k, k = -20..20: the tolerance grows with the money it
    is measured in, never past an error of that size. The money here is K4M8's counted in
    micro-units (times 2^20), so k = -20 is K4M8 itself; a payment below about 1e-3 moved by
    1e-9 of itself is within ABS_TOL, which the rule's floor of 1 accepts, as an absolute
    tolerance did."""
    original = analytic._table
    for k in range(-20, 21):
        cfg = _scaled(K4M8, 20 + k)

        def moved(c, veh, rsu, pr):
            out = original(c, veh, rsu, pr)
            if c is cfg:   # not its uniform-weight or zero-price copy
                out[4][0] *= 1.0 + 1e-9   # the charge row: vehicle 1's payment
            return out

        monkeypatch.setattr(analytic, "_table", moved)
        passed = {r.name: r.passed for r in run_identity_checks(cfg)}
        assert passed["vehicle payments equal RSU revenues"] is False, k


# A config on which an RSU's product once grouped mu * enc as one factor: 0.5 * 5e-324
# underflows to 0, and cost_rcv = 1.7e308 scales the lost 2^-1075 to about 2e-16, far past
# the bound; the grand coalition's RSU then read about 5e-18 against _table's -2.05e-16.
# Vehicle 1 gains 0.1 from the RSU's relay, so it earns 0.55 in the grand coalition.
UNDERFLOW_DOC = {"game": {"K": 2, "M": 1, "p": [0.5, 1.0], "delta": [[1e16], [0.0]],
                          "alpha": [1.0, 1.0], "beta": [1.0, 1.0], "gamma": [1.0], "mu": [0.5],
                          "price": [[1.0, 0.0]], "cost_fwd": [[0.0, 0.0]],
                          "cost_rcv": [[0.0, 1.7e308]]},
                 "encounter": {"matrix": [[1e-17, 5e-324]]}}


def test_screened_sweep_decides_as_the_reference_on_tie_prone_configs():
    """The witnesses and the blocker of the grand vector, and the blockers of x, the payoff
    vector of a random structure, and of the grand vector with every vehicle's entry lowered
    by 1 (which each RSU's grand payoff ties), equal _reference_analysis on UNDERFLOW_DOC and
    on 1,500 tie-prone float configs. Without the screen (no column re-evaluated), or with a
    zero bound, the sweep raises the invariant breach on 7 of these configs.
    On UNDERFLOW_DOC, a near-tie decides core_membership: x ties the grand coalition's RSU
    payoff, and its vehicles beat x only there, so that RSU decides between blockers
    {1, 2, 3} and {2}."""
    underflow = GameConfig(**UNDERFLOW_DOC["game"], enc=UNDERFLOW_DOC["encounter"]["matrix"])
    x = np.array([0.52, 0.4, stability_verdict(underflow).payoff_vector[2]])
    assert core_membership(x, underflow).blocking == _reference_analysis(underflow, x)[-1] == {2}
    rng = np.random.default_rng(2)
    for cfg in [underflow, *(_tie_prone_config(rng) for _ in range(1500))]:
        n = cfg.n_players
        labels = rng.integers(0, n, n).tolist()
        x = structure_payoffs([frozenset(m + 1 for m in range(n) if labels[m] == b)
                               for b in set(labels)], cfg)
        verdict = stability_verdict(cfg)
        lowered = verdict.payoff_vector - (np.arange(n) < cfg.K)
        got = (verdict.conditions.gain_witness, verdict.conditions.preference_witness,
               verdict.membership.blocking, core_membership(x, cfg).blocking,
               core_membership(lowered, cfg).blocking)
        assert got == _reference_analysis(cfg, x, lowered), cfg


# Eleven RSUs: the low ten share one coefficient block of _brackets and the eleventh
# is added per block, so sets holding it take the high-RSU path
ELEVEN_RSUS = [Fraction(a, b) for a, b in ((3, 10), (1, 3), (1, 1), (7, 10), (0, 1), (2, 3),
                                           (1, 2), (1, 10), (9, 10), (1, 3), (3, 5))]


def test_brackets_run_exactly_past_the_coefficient_block():
    q = ELEVEN_RSUS
    assert len(q) > analytic._COEF_BITS
    h = analytic._brackets(np.array(q, dtype=object))
    rng = np.random.default_rng(11)
    for mask in [0, 1, 1 << 10, (1 << 11) - 1, *rng.integers(0, 1 << 11, 12).tolist()]:
        _assert_exact(h[mask], reference.exact_bracket([q[t] for t in range(11) if mask >> t & 1]),
                      mask)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(5e-324, 1e-15),
                          st.sampled_from([5e-324, 2.0 ** -54, 3e-17])), min_size=1, max_size=12),
       st.lists(st.integers(0, (1 << 12) - 1), max_size=8))
@example([2.0 ** -54] * 12, [])   # 3,302 of the 4,096 brackets were up to 4.4e-16 above 1
def test_brackets_stay_at_most_one_and_relay_probabilities_at_most_q(q, masks):
    """E[1/(B+1)] <= 1 over every RSU subset, and the relay probabilities q h of _relay_probs
    on the full set and on some random ones are at most q and exactly _brackets' q h."""
    q, M = np.array(q, dtype=np.float64), len(q)
    h = analytic._brackets(q)
    assert (h <= 1.0).all()
    masks = [(1 << M) - 1, *(m % (1 << M) for m in masks)]
    rsus = np.array([[m >> t & 1 for m in masks] for t in range(M)], dtype=bool)
    pr = analytic._relay_probs(np.repeat(q[:, None], len(masks), axis=1), rsus)
    assert (pr <= q[:, None]).all()
    for c, m in enumerate(masks):
        want = [q[t] * h[m & ~(1 << t)] if m >> t & 1 else 0.0 for t in range(M)]
        assert pr[:, c].tolist() == want, m


@pytest.mark.parametrize("dtype", [np.float64, object])
def test_brackets_of_many_vehicles_equal_one_call_per_vehicle(dtype):
    """_brackets on a (K, M) array gives, row by row, the one-vehicle call's entries."""
    q = np.array([ELEVEN_RSUS, ELEVEN_RSUS[::-1]], dtype=dtype)
    batch = analytic._brackets(q)
    assert batch.dtype == q.dtype and (batch == np.stack([analytic._brackets(row) for row in q])).all()
    assert (analytic._brackets(q[:, :0]) == q.sum(axis=1, keepdims=True) ** 0).all()   # no RSU


@pytest.mark.parametrize("block_masks", [None, 16])
def test_sweep_relay_input_is_zero_off_the_coalition(block_masks):
    """The relay probabilities each sweep block hands _block_payoffs: 0.0 for every RSU
    outside the row's RSU set R and, inside R, exactly _relay_probs on R."""
    cfg = random_config(np.random.default_rng(25), k_min=2, k_max=2, m_min=5, m_max=5)
    K, M = cfg.K, cfg.M
    blocks = []
    original = analysis._block_payoffs

    def record(c, veh, rsu, pr, *limits):
        blocks.append((rsu[:, :, 0], pr))
        return original(c, veh, rsu, pr, *limits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_block_payoffs", record)
        if block_masks:
            mp.setattr(analysis, "_BLOCK_MASKS", block_masks)
        analysis.stability_verdict(cfg)
    rows = 0
    for rsu, pr in blocks:
        for r in range(rsu.shape[1]):
            R = rsu[:, r]
            want = analytic._relay_probs(cfg.enc, np.repeat(R[:, None], K, axis=1)).T
            assert (pr[:, ~R, r] == 0.0).all(), R
            assert (pr[:, R, r] == want[:, R]).all(), R
            rows += 1
    assert rows == 1 << M


@st.composite
def structures(draw, n):
    """Any partition of players 1..n, from one block label per player."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(frozenset(m + 1 for m in range(n) if labels[m] == b) for b in set(labels))


@settings(max_examples=80, deadline=None)
@given(st.data(), configs(), st.integers(1, 600), st.integers(0, 2 ** 32),
       st.sampled_from([64, 65_536]))
def test_simulator_counters_are_conserved(data, cfg, n_slots, seed, chunk_slots):
    cs = data.draw(structures(cfg.n_players))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_SLOTS", chunk_slots)
        rep = simulate_slots(cs, cfg, n_slots, seed)
        # the run crosses every chunk boundary that n_slots allows
        blocks = len(list(geometry.uniform_chunks(seed, n_slots, 1, cfg.K, cfg.M)))
    assert blocks == -(-n_slots // chunk_slots)
    relays = rep.relays
    assert np.array_equal(rep.scheduled,
                          rep.success_no_relay + rep.fail_no_relay + relays.sum(axis=0))
    assert (rep.encounters >= relays).all()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 400, -10 ** 400])
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)

_DEFAULT = shipped_doc()
# (section, key): key None replaces the whole section; "unknown" is a key no
# reader knows
CONFIG_SLOTS = ([(name, None) for name in (*_DEFAULT, "unknown")]
                + [(name, key) for name, section in _DEFAULT.items()
                   for key in (*section, "unknown")]
                + [("encounter", "from_geometry")])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CONFIG_SLOTS), json_values)
def test_any_json_value_in_any_key_loads_or_raises_config_error(tmp_path_factory, slot, value):
    doc = shipped_doc()
    name, key = slot
    if key is None:
        doc[name] = value
    else:
        doc[name][key] = value
    path = tmp_path_factory.getbasetemp() / "any_value.json"
    path.write_text(json.dumps(doc))
    try:
        load_config(path)
    except ConfigError:
        pass


# The flags each subcommand takes besides --out (argv never writes files here)
ARGV_FLAGS = {
    "enumerate": ("--config",),
    "encounter": ("--config", "--seed", "--d-sweep", "--placement"),
    "payoffs": ("--config", "--structure", "--d-sweep"),
    "core": ("--config",),
    "simulate": ("--config", "--seed", "--structure"),
    "check": ("--config",),
}
ARGV_VALUES = ("nan", "NaN", "inf", "-inf", "1e308", "-1e308", "-7", "-1", "0", "3", "15",
               "99999999999999999999", "", "0.1,0.3", "0.2,nan", "1,2|3,4", "1,1|2,3,4",
               "1|2|3|4", "1,2,3,4,5", "a|b", "grid")
# encounter and simulate run a million slots unless told otherwise
SLOT_VALUES = ("0", "-1", "1", "7", "64", "nan", "inf", "1e308", "-1e308", "")


STDERR_PREFIXES = ("config error:", "error:", "invariant breach:", "usage:", "vanetgame")


def _keeps_stderr_prefixes(text):
    """Every stderr line starts with one of STDERR_PREFIXES, or indents the continuation of
    a `usage:` line that argparse wrapped."""
    head = ""
    for line in text.splitlines():
        if line.startswith(" "):   # continues the line above it
            ok = head.startswith("usage:")
        else:
            head, ok = line, line.startswith(STDERR_PREFIXES)
        if not ok:
            return False
    return True


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv = [command]
    if command in ("encounter", "simulate"):
        argv += ["--slots", draw(st.sampled_from(SLOT_VALUES))]
    for flag in draw(st.lists(st.sampled_from(ARGV_FLAGS[command]), max_size=3)):
        argv += [flag, draw(st.sampled_from(ARGV_VALUES))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_exits_0_to_3_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse reports usage errors this way
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert _keeps_stderr_prefixes(err.getvalue()), (argv, err.getvalue())


# What a mutation writes, over a key or into one array entry. json.dumps writes the
# non-finite floats as NaN and Infinity, which the loader reads back.
MUTANTS = (0, -1, 1e308, 5e-324, 2 ** 63, True, None, "0.5", [], [[]], {}, float("nan"),
           float("inf"))
# Every key a mutation may set. geometry.n_slots stays at 200, so that a run with
# "from_geometry": true places few nodes.
MUTABLE = [(name, key) for name, section in _DEFAULT.items() for key in section
           if key != "n_slots"] + [("encounter", "from_geometry")]
COMMANDS = (["core"], ["check"], ["payoffs"], ["payoffs", "--d-sweep", "0.1,0.3"],
            ["simulate", "--slots", "200"], ["encounter", "--slots", "200"], ["enumerate"])


@st.composite
def mutated_documents(draw):
    """The shipped config at 200 placement slots, with 1-3 keys or one array entry set to
    one of MUTANTS."""
    doc = shipped_doc()
    doc["geometry"]["n_slots"] = 200
    if draw(st.booleans()):
        for name, key in draw(st.lists(st.sampled_from(MUTABLE), min_size=1, max_size=3)):
            doc[name][key] = draw(st.sampled_from(MUTANTS))
        return doc
    name, key = draw(st.sampled_from([(name, key) for name, key in MUTABLE
                                      if isinstance(doc[name].get(key), list)]))
    holder, index = doc[name], key
    while isinstance(holder[index], list):
        holder, index = holder[index], draw(st.integers(0, len(holder[index]) - 1))
    holder[index] = draw(st.sampled_from(MUTANTS))
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_documents(), st.sampled_from(COMMANDS))
def test_any_mutated_config_exits_by_the_contract_and_repeats(tmp_path_factory, doc, command):
    """Exit 0 or 3 (4 only from `check`), no traceback or warning, each stderr line under a
    documented prefix, and the same output when run again."""
    config = tmp_path_factory.getbasetemp() / "mutated.json"
    config.write_text(json.dumps(doc))
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*command, "--config", str(config)])
        assert code in (0, 3) or (code, command) == (4, ["check"]), (doc, err.getvalue())
        assert not caught, (doc, [str(w.message) for w in caught])
        lines = err.getvalue().splitlines()
        assert all(line.startswith(STDERR_PREFIXES) for line in lines), (doc, lines)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1], doc


# Extreme but valid values: each parameter entry is drawn from one of these sets
MAGNITUDES = (0.0, 5e-324, 1e-300, 0.5, 1.0, 1e150, 1e300, 1.7e308)   # rates, prices, costs
PROBABILITIES = (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0)
WEIGHTS = (0.0, -0.0, -1.0, 5e-324, 1.0, 1e300, -1e300)


# Ordinary magnitudes (rates, prices, costs and weights) at extreme probabilities
MODERATE = (0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 10.0)
FINE_PROBABILITIES = (0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0 - 2.0 ** -53, 1.0)


@st.composite
def extreme_documents(draw, magnitudes=MAGNITUDES, probabilities=PROBABILITIES,
                      weights=WEIGHTS):
    """Config documents with 1-3 vehicles, 0-3 RSUs and entries from the given sets."""
    K, M = draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def entries(values, *shape):
        return _array(draw, shape, st.sampled_from(values)).tolist()

    game = {"K": K, "M": M, "p": entries(probabilities, K), "delta": entries(magnitudes, K, M),
            "alpha": entries(weights, K), "beta": entries(weights, K),
            "gamma": entries(weights, M), "mu": entries(weights, M)}
    game.update({key: entries(magnitudes, M, K) for key in ("price", "cost_fwd", "cost_rcv")})
    return {"game": game, "encounter": {"matrix": entries(probabilities, M, K)}}


@settings(max_examples=25, deadline=None)
@given(extreme_documents())
def test_extreme_magnitudes_exit_cleanly_without_warnings(tmp_path_factory, doc):
    base = tmp_path_factory.getbasetemp()
    config, out = base / "extreme.json", base / "extreme.csv"
    config.write_text(json.dumps(doc))
    codes = {}
    simulate = ["simulate", "--slots", "300", "--out", str(out)]
    for argv in (["core"], ["check"], ["payoffs"], simulate):
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            codes[argv[0]] = main([*argv, "--config", str(config)])
        assert codes[argv[0]] in (0, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    if codes["simulate"] == 0:
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(math.isfinite(float(est)) and math.isfinite(float(se))
                   for _, _, est, se, *_ in rows), rows


@settings(max_examples=150, deadline=None)
@given(extreme_documents(tuple(sorted(set(MAGNITUDES + MODERATE))), FINE_PROBABILITIES,
                         WEIGHTS + MODERATE))
@example(UNDERFLOW_DOC)
def test_rsu_product_lies_within_its_bound_of_the_table(doc):
    """On every member RSU entry of every coalition whose vehicles' payoffs are finite,
    |_rsu_product - _table| <= its bound wherever both are finite, for magnitudes from
    subnormal to near the float range; and an RSU with a finite bound has a finite payoff
    in _table on every member."""
    cfg = GameConfig(**doc["game"], enc=doc["encounter"]["matrix"])
    K, M, coalitions = cfg.K, cfg.M, list(_coalitions(cfg.n_players))
    member = np.array([[m in S for S in coalitions] for m in range(1, cfg.n_players + 1)])
    pr = np.zeros((K, M, len(coalitions)))
    i, c = np.nonzero(member[:K])
    pr[i, :, c] = analytic._relay_probs(cfg.enc[:, i], member[K:, c]).T
    with np.errstate(over="ignore", invalid="ignore"):
        share, *_, vehicles = analytic._vehicle_rows(cfg, member[:K], pr)
        product, bound = analytic._rsu_product(cfg, share, pr)
        ok = ~(member[:K] & ~(abs(vehicles) < np.inf)).any(axis=0)
        # RSU rows do not depend on rsu, which only names the members _table checks
        payoff = analytic._table(cfg, member[:K, ok], np.zeros((M, ok.sum()), bool),
                                 pr[:, :, ok])[-1][K:]
        product, bound = np.diagonal(product, axis1=1, axis2=2)[:, ok], bound[:, 0]
        held = member[K:, ok] & (abs(bound) < np.inf)
        assert (abs(payoff) < np.inf)[held].all()
        held &= abs(product) < np.inf
        assert (abs(product - payoff) <= bound)[held].all()


@settings(max_examples=30, deadline=None)
@given(extreme_documents(MODERATE, FINE_PROBABILITIES, MODERATE))
def test_check_passes_at_ordinary_magnitudes_and_extreme_probabilities(tmp_path_factory, doc):
    """Subnormal, tiny and next-to-1 probabilities with every magnitude at most 10:
    every identity holds to ABS_TOL and nothing warns."""
    config = tmp_path_factory.getbasetemp() / "moderate.json"
    config.write_text(json.dumps(doc))
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("always")
        code = main(["check", "--config", str(config)])
    assert code == 0, (doc, out.getvalue())
    assert not caught, (doc, caught)
