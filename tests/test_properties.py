"""Property tests (hypothesis): relay-choice primitive, core sweep, simulator
counters, config loading and command lines."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from vanetgame import analysis, analytic, geometry
from vanetgame import (ABS_TOL, core_membership, core_sufficient_conditions, make_config,
                       oracle_relay_mean, player_payoffs, relay_choice_probs, simulate_slots,
                       stability_verdict, structure_payoffs)
from vanetgame.cli import main
from vanetgame.configio import ConfigError, default_config_dict, load_config
from conftest import random_config

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
    return make_config(
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


@settings(max_examples=150, deadline=None)
@given(st.lists(probability, min_size=0, max_size=10))
def test_relay_choice_probs_match_brute_force(q):
    M = len(q)
    cfg = make_config(1, M, p=0.5, enc=np.array(q, dtype=np.float64).reshape(M, 1),
                      delta=0.0, price=0.0, cost_fwd=0.0, cost_rcv=0.0)
    rsus = range(2, M + 2)
    _, chosen = oracle_relay_mean(frozenset(range(1, M + 2)), 1, dict.fromkeys(rsus, 1.0), cfg)
    probs = relay_choice_probs(q)
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
    cfg = make_config(1, M, p=0.5, enc=np.array(q, dtype=np.float64).reshape(M, 1),
                      delta=0.0, price=0.0, cost_fwd=0.0, cost_rcv=0.0)
    S, weights = frozenset(range(1, M + 2)), dict(zip(range(2, M + 2), w))
    got = oracle_relay_mean(S, 1, weights, cfg)
    assert type(got[0]) is float and got == reference.oracle_relay_mean(S, 1, weights, cfg)


def test_relay_choice_probs_edges():
    assert relay_choice_probs([]) == []
    assert relay_choice_probs([0.0, 0.0]) == [0.0, 0.0]
    assert relay_choice_probs([1.0, 1.0, 1.0, 1.0]) == [0.25] * 4
    assert relay_choice_probs([1.0, 0.0, 0.5]) == [0.75, 0.0, 0.25]


@pytest.mark.parametrize("q", [[2.0, 0.5], [0.5, -0.1], [float("nan")], [float("inf"), 0.0]])
def test_relay_choice_probs_rejects_values_outside_the_unit_interval(q):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        relay_choice_probs(q)


@settings(max_examples=60, deadline=None)
@given(configs())
def test_payments_equal_revenues_in_every_coalition(cfg):
    for S in _coalitions(cfg.n_players):
        rep = player_payoffs(S, cfg)
        paid = sum(rep.payment.values())
        earned = sum(rep.revenue.values())
        assert abs(paid - earned) <= ABS_TOL


def _reference_analysis(cfg):
    """Conditions 2 and 3 and the smallest blocker straight from the definitions."""
    n = cfg.n_players
    grand = reference.player_payoffs(frozenset(range(1, n + 1)), cfg)
    gain = preference = None
    blockers = []
    for S in _coalitions(n):
        rep = reference.player_payoffs(S, cfg)
        members = sorted(S)
        if len(S) < n:
            if gain is None and any(m <= cfg.K for m in members):
                for m in members:
                    if m <= cfg.K:
                        ok = (cfg.alpha[m - 1] * rep.throughput[m]
                              > cfg.beta[m - 1] * rep.payment[m])
                    else:
                        r = cfg.rrow(m)
                        ok = cfg.gamma[r] * rep.revenue[m] > cfg.mu[r] * rep.cost[m]
                    if not ok:
                        gain = (m, S)
                        break
            if preference is None:
                for m in members:
                    if not grand.payoff_of(m) > rep.payoff_of(m):
                        preference = (m, S)
                        break
        if all(rep.payoff_of(m) > grand.payoff_of(m) for m in members):
            blockers.append(tuple(members))
    return gain, preference, (frozenset(min(blockers)) if blockers else None)


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
    """(member, table) of every block of the core sweep, in order, as players x
    coalitions."""
    blocks = []

    def record(c, veh, rsu, pr):
        table = analytic._table(c, veh, rsu, pr)
        shape = table[-1].shape[1:]
        member = np.concatenate([np.broadcast_to(veh, (c.K, *shape)),
                                 np.broadcast_to(rsu, (c.M, *shape))])
        blocks.append((member.reshape(c.n_players, -1),
                       [np.broadcast_to(x, (len(x), *shape)).reshape(len(x), -1) for x in table]))
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_table", record)
        grand = structure_payoffs((frozenset(range(1, cfg.n_players + 1)),), cfg)
        analysis._sweep(cfg, grand, grand)
    return blocks


def _assert_table_equals_reference(cfg, one_by_one=False):
    """Every report of a batch of all coalitions, each one-coalition report with
    one_by_one, and every member entry of the sweep's table == the scalar
    reference, exactly."""
    n, K = cfg.n_players, cfg.K
    coalitions = list(_coalitions(n))
    want = [reference.player_payoffs(S, cfg) for S in coalitions]
    assert analytic._reports(coalitions, cfg) == want
    if one_by_one:
        assert [player_payoffs(S, cfg) for S in coalitions] == want
    mask = 0   # the sweep's blocks cover masks 0 .. 2^n - 1 in ascending order
    for member, table in _sweep_tables(cfg):
        for k in range(member.shape[1]):
            S = frozenset(m + 1 for m in range(n) if mask >> m & 1)
            assert [m + 1 for m in np.flatnonzero(member[:, k])] == sorted(S)
            for m in S:
                got = tuple(row[m - 1, k] for row in (table if m <= K else table[3:]))
                rep = want[mask - 1]
                if m <= K:
                    assert got == (rep.share[m], rep.rate_gain[m], rep.fee[m], rep.throughput[m],
                                   rep.payment[m], rep.vehicle_payoff[m]), (sorted(S), m)
                else:
                    assert got == (rep.revenue[m], rep.cost[m], rep.rsu_payoff[m]), (sorted(S), m)
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


@pytest.mark.parametrize("block_masks", [None, 16])
def test_sweep_relay_input_is_zero_off_the_coalition(block_masks):
    """The relay probabilities each sweep block hands _table: 0.0 for every RSU
    outside the row's RSU set R and, inside R, exactly _relay_probs on R."""
    cfg = random_config(np.random.default_rng(25), k_min=2, k_max=2, m_min=5, m_max=5)
    K, M = cfg.K, cfg.M
    blocks = []

    def record(c, veh, rsu, pr):
        blocks.append((rsu, pr))
        return analytic._table(c, veh, rsu, pr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_table", record)
        if block_masks:
            mp.setattr(analysis, "_BLOCK_MASKS", block_masks)
        analysis.stability_verdict(cfg)
    rows = 0
    for rsu, pr in blocks:
        rsu, pr = rsu.reshape(M, -1), pr.reshape(K, M, -1)
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

_DEFAULT = default_config_dict()
# (section, key): key None replaces the whole section; "unknown" is a key no
# reader knows
CONFIG_SLOTS = ([(name, None) for name in (*_DEFAULT, "unknown")]
                + [(name, key) for name, section in _DEFAULT.items()
                   for key in (*section, "unknown")]
                + [("encounter", "from_geometry")])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CONFIG_SLOTS), json_values)
def test_any_json_value_in_any_key_loads_or_raises_config_error(tmp_path_factory, slot, value):
    doc = default_config_dict()
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


# Extreme but valid values: each parameter entry is drawn from one of these sets
MAGNITUDES = (0.0, 5e-324, 1e-300, 0.5, 1.0, 1e150, 1e300, 1.7e308)   # rates, prices, costs
PROBABILITIES = (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0)
WEIGHTS = (0.0, -0.0, -1.0, 5e-324, 1.0, 1e300, -1e300)


@st.composite
def extreme_documents(draw):
    """Config documents with 1-3 vehicles, 0-3 RSUs and entries from the extreme sets."""
    K, M = draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def entries(values, *shape):
        return _array(draw, shape, st.sampled_from(values)).tolist()

    game = {"K": K, "M": M, "p": entries(PROBABILITIES, K), "delta": entries(MAGNITUDES, K, M),
            "alpha": entries(WEIGHTS, K), "beta": entries(WEIGHTS, K),
            "gamma": entries(WEIGHTS, M), "mu": entries(WEIGHTS, M)}
    game.update({key: entries(MAGNITUDES, M, K) for key in ("price", "cost_fwd", "cost_rcv")})
    return {"game": game, "encounter": {"matrix": entries(PROBABILITIES, M, K)}}


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
