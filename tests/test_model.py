import csv
import dataclasses
import gc
import io
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import reference
from vanetgame import (ConfigError, GameConfig, GeometryConfig, analysis, bell_number,
                       canonical_structure, check_structure, enumerate_partitions,
                       format_structure, iter_partitions, model, normalize_structure,
                       oracle_relay_mean, parse_structure, simulate_slots,
                       structure_csv_blocks, structure_reports, unrank_partition)


def count_partitions_recursive(n):
    # independent oracle: place element n into an existing block or a new one
    def rec(elements):
        if not elements:
            return [[]]
        head, *rest = elements
        out = []
        for smaller in rec(rest):
            for idx in range(len(smaller)):
                out.append(smaller[:idx] + [smaller[idx] + [head]] + smaller[idx + 1:])
            out.append([[head]] + smaller)
        return out
    return len(rec(list(range(1, n + 1))))


def test_partition_counts_match_recursive_oracle():
    for n in range(1, 8):
        assert len(enumerate_partitions(n)) == count_partitions_recursive(n)


def test_partition_counts_match_bell_numbers():
    known = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140,
             9: 21147, 10: 115975}
    for n, b in known.items():
        assert bell_number(n) == b
        assert len(enumerate_partitions(n)) == b


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_partitions_leaves_the_garbage_collector_as_it_was(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert enumerate_partitions(5) == list(iter_partitions(5))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="at least one player"):
            enumerate_partitions(0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_partitions_are_disjoint_and_exhaustive():
    for n in range(1, 7):
        seen = set()
        for cs in enumerate_partitions(n):
            assert not check_structure(cs, n)
            key = frozenset(cs)
            assert key not in seen
            seen.add(key)


def test_partition_order_is_deterministic_and_canonical():
    parts = enumerate_partitions(4)
    assert parts == enumerate_partitions(4)
    assert parts[0] == (frozenset({1, 2, 3, 4}),)
    assert parts[-1] == tuple(frozenset({m}) for m in (1, 2, 3, 4))
    # blocks come out ordered by smallest member
    for cs in parts:
        assert list(cs) == sorted(cs, key=min)


def test_iter_partitions_is_lazy_and_matches_the_list():
    gen = iter_partitions(20)   # Bell(20) is about 5e13: only a lazy generator returns
    assert next(gen) == (frozenset(range(1, 21)),)
    assert next(gen) == (frozenset(range(1, 20)), frozenset({20}))
    for n in range(1, 10):
        assert enumerate_partitions(n) == list(reference.partitions(n)), n


@pytest.mark.parametrize("n", [*range(1, 9), 12, 130])
def test_check_prefix_matches_the_reference_walker(n):
    # `check` reads the first 64 partitions for any n, past the 127-player CSV bound too:
    # all Bell(n) < 64 of them up to n = 5, and from n = 6 on rows padded with zeros
    # (int16 labels at n = 130)
    want = list(islice(reference.partitions(n), 64))
    assert list(islice(iter_partitions(n), 64)) == want
    assert [model._blocks_of(row) for row in analysis._check_partitions(n).tolist()] == want


@pytest.mark.parametrize("n", [6, 12, 130])
def test_rsu_only_blocks_split_up_are_the_normalized_structure(n):
    # `check` normalizes its sample rows with the rule `enumerate` uses: every player outside
    # a vehicle's block gets a key of its own, and the players sharing a key form a block
    labels = analysis._check_partitions(n)
    for K in sorted({1, 2, n // 2, n - 5, n - 1, n}):
        keys = np.where(model._in_vehicle_block(labels, K), labels, np.arange(n, 2 * n))
        for row, cs in zip(keys.tolist(), map(model._blocks_of, labels.tolist())):
            split = [{m for m, key in enumerate(row, 1) if key == k} for k in set(row)]
            assert canonical_structure(split) == normalize_structure(cs, K), (K, cs)


def csv_body(n, K):
    """The enumerate CSV body written row by row with csv.writer from the partitions."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for idx, cs in enumerate(reference.partitions(n), start=1):
        writer.writerow((idx, format_structure(cs), format_structure(normalize_structure(cs, K)),
                         len(cs)))
    return buf.getvalue()


def test_structure_rows_match_formatted_partitions():
    for n in range(1, 9):
        for K in range(1, n + 1):
            assert "".join(structure_csv_blocks(n, K)) == csv_body(n, K), (n, K)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_structure_rows_cross_block_boundaries(monkeypatch, block_rows):
    monkeypatch.setattr(model, "_BLOCK_ROWS", block_rows)
    for n, K in [(5, 2), (6, 6), (8, 3)]:
        blocks = list(structure_csv_blocks(n, K))
        assert len(blocks) > 1
        # whole rows only, and at most one row's extensions past the cap
        assert all(b.endswith("\n") and b.count("\n") <= max(block_rows, n) for b in blocks)
        assert "".join(blocks) == csv_body(n, K), (n, K)
        assert list(iter_partitions(n)) == list(reference.partitions(n)), n


def test_unrank_matches_enumeration_for_every_id():
    for n in range(1, 9):
        for idx, cs in enumerate(reference.partitions(n), start=1):
            assert unrank_partition(n, idx) == cs


def test_unrank_matches_enumeration_on_seeded_ids_at_ten_players():
    parts = list(reference.partitions(10))
    rng = np.random.default_rng(20240808)
    ids = [1, 2, len(parts) - 1, len(parts)] + [int(v) for v in rng.integers(1, len(parts) + 1, 40)]
    for idx in ids:
        assert unrank_partition(10, idx) == parts[idx - 1]


def test_unrank_rejects_ids_out_of_range():
    for bad in (0, 16, -3):
        with pytest.raises(ValueError, match=r"out of range 1\.\.15"):
            unrank_partition(4, bad)


def test_single_player_partition():
    assert enumerate_partitions(1) == [(frozenset({1}),)]


def test_zero_players_rejected():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least one player"):
            iter_partitions(bad)   # on the call, before the first partition
        with pytest.raises(ValueError, match="at least one player"):
            enumerate_partitions(bad)


# each library error that no other test reaches, by its message
@pytest.mark.parametrize("call, message", [
    (lambda cfg: analysis.vehicle_coalition_profitability(frozenset(), cfg), "empty coalition"),
    (lambda cfg: oracle_relay_mean({1, 3}, 3, {3: 1.0}, cfg),
     r"player 3 is not a vehicle member of coalition \[1, 3\]"),
    (lambda cfg: GameConfig(1, -1, p=0.5, enc=[], delta=[], price=[], cost_fwd=[],
                            cost_rcv=[]), "M: RSU count must be nonnegative"),
    (lambda cfg: structure_reports([frozenset()], cfg), "invalid structure: empty coalition"),
    (lambda cfg: next(structure_csv_blocks(0, 0)), "need 1 to 127 players"),
    (lambda cfg: next(structure_csv_blocks(128, 1)), "need 1 to 127 players"),
    (lambda cfg: unrank_partition(0, 1), "need at least one player to partition"),
    (lambda cfg: bell_number(-1), "n must be nonnegative"),
    (lambda cfg: GeometryConfig(side_km=1.0, range_km=(0.2,), seed=-3),
     "^seed must be a nonnegative integer, got -3$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, 10, seed=-1),
     "^seed must be a nonnegative integer, got -1$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, 10, seed=1.5),
     "^seed must be a nonnegative integer, got 1.5$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, True, seed=1),
     "^n_slots must be a positive integer, got True$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, 2.5, seed=1),
     "^n_slots must be a positive integer, got 2.5$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, "10", seed=1),
     "^n_slots must be a positive integer, got '10'$"),
    (lambda cfg: simulate_slots((frozenset({1, 2, 3, 4}),), cfg, 0, seed=-1),
     "^n_slots must be a positive integer, got 0; seed must be a nonnegative integer, got -1$"),
], ids=["profitability-empty", "oracle-non-vehicle", "config-negative-M",
        "structure-empty-block", "csv-zero-players", "csv-128-players", "unrank-zero-players",
        "bell-negative", "geometry-negative-seed", "simulate-negative-seed", "simulate-float-seed",
        "simulate-bool-slots", "simulate-float-slots", "simulate-str-slots",
        "simulate-bad-slots-and-seed"])
def test_library_errors_name_their_cause(default_cfg, call, message):
    with pytest.raises(ValueError, match=message):
        call(default_cfg)


def test_normalize_splits_rsu_only_blocks():
    cs = canonical_structure([{1, 2}, {3, 4}])
    assert normalize_structure(cs, 2) == canonical_structure([{1, 2}, {3}, {4}])


def test_normalize_is_identity_on_singletons_and_mixed_blocks():
    singletons = canonical_structure([{1}, {2}, {3}, {4}])
    assert normalize_structure(singletons, 2) == singletons
    mixed = canonical_structure([{1, 3, 4}, {2}])
    assert normalize_structure(mixed, 2) == mixed


def test_normalize_is_idempotent():
    for cs in enumerate_partitions(5):
        once = normalize_structure(cs, 2)
        assert normalize_structure(once, 2) == once


def test_validate_accepts_good_config(default_cfg):
    # construction is the check: rebuilding a valid config raises nothing
    rebuilt = dataclasses.replace(default_cfg)
    assert all(np.array_equal(getattr(rebuilt, name), getattr(default_cfg, name))
               for name in model._SHAPES)


def _full(K, M, **changes):
    """K, M and full-shape arrays of a valid game, with `changes` swapped in."""
    good = GameConfig(K, M, p=0.5, enc=0.4, delta=0.5, price=1.0, cost_fwd=0.1, cost_rcv=0.1)
    return {**{f.name: getattr(good, f.name) for f in dataclasses.fields(good)}, **changes}


def _errors(params):
    """The ConfigError list of a GameConfig built from params."""
    with pytest.raises(ConfigError) as err:
        GameConfig(**params)
    return err.value.errors


def test_validate_reports_probability_out_of_range():
    errors = _errors(_full(2, 1, p=[0.5, 1.2]))
    assert any("probability out of range" in e for e in errors)


def test_validate_reports_shape_mismatch():
    errors = _errors(_full(2, 2, delta=np.zeros((2, 1))))
    assert any("delta: shape mismatch" in e for e in errors)


def test_a_zero_d_field_spreads(default_cfg):
    # the shape rule holds in every construction, dataclasses.replace too
    for cfg in (GameConfig(**_full(2, 2, mu=np.float64(3.0))),
                dataclasses.replace(default_cfg, mu=np.float64(3.0))):
        assert cfg.mu.shape == (2,) and (cfg.mu == 3.0).all() and not cfg.mu.flags.writeable


@pytest.mark.parametrize("count", [2.5, "2", float("nan"), float("inf"), True, 2.0])
@pytest.mark.parametrize("name", ["K", "M"])
def test_a_count_that_is_no_integer_is_a_config_error(name, count):
    params = {"K": 2, "M": 1, "p": 0.5, "enc": 0.5, "delta": 0.5, "price": 1.0,
              "cost_fwd": 0.1, "cost_rcv": 0.1, name: count}
    with pytest.raises(ConfigError) as err:
        GameConfig(**params)
    assert [e for e in err.value.errors if e.startswith(f"{name}: ")] == [
        f"{name}: count must be an integer, got {count!r}"]


@pytest.mark.parametrize("change, message", [
    ({"p": ["0.6", True]}, "p: entries must be real numbers, got '0.6'"),
    ({"p": "0.5"}, "p: entries must be real numbers, got '0.5'"),
    ({"alpha": True}, "alpha: entries must be real numbers, got True"),
    ({"p": "abc"}, "p: entries must be real numbers, got 'abc'"),
    ({"p": {"a": 1}}, "p: entries must be real numbers, got {'a': 1}"),
    ({"enc": [[0.5, 0.5], [0.5]]}, "enc: nested lists do not form an array: "),
    ({"p": 10 ** 400}, "p: an integer entry is past the float range"),
    ({"gamma": np.array([True])}, "gamma: entries must be real numbers, got array([ True])"),
], ids=["string-and-bool-p", "string-p", "bool-alpha", "word-p", "dict-p", "ragged-enc",
        "huge-int-p", "bool-array-gamma"])
def test_a_parameter_that_is_no_real_array_is_a_config_error(change, message):
    # the rules a config file meets hold for every caller, with one entry per bad field
    params = {"K": 2, "M": 1, "p": 0.5, "enc": 0.5, "delta": 0.5, "price": 1.0,
              "cost_fwd": 0.1, "cost_rcv": 0.1, **change}
    with pytest.raises(ConfigError) as err:
        GameConfig(**params)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith(message), err.value


@pytest.mark.parametrize("bad", [
    {"n_slots": True, "seed": True, "side_km": "1", "range_km": 0.2},
    {"n_slots": 2.5, "seed": 1.5, "side_km": None, "range_km": (True,)},
    {"n_slots": 0, "seed": -1, "side_km": float("nan"), "range_km": ("0.2",),
     "placement": "hexagons"},
], ids=["bools-and-strings", "floats-and-none", "out-of-range"])
def test_a_geometry_config_names_every_bad_field(bad):
    with pytest.raises(ValueError) as err:
        GeometryConfig(**bad)
    named = [entry.split(" ")[0].rstrip(":") for entry in str(err.value).split("; ")]
    assert sorted(named) == sorted(bad), err.value


def test_a_huge_vehicle_count_builds_nothing_of_its_size():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            GameConfig(10 ** 6, 2, p=0.5, enc=np.zeros((2, 2)), delta=0.5, price=1.0,
                       cost_fwd=0.1, cost_rcv=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.errors == ["enc: shape mismatch, expected (2, 1000000), got (2, 2)"]
    assert peak < 1 << 20, peak


def test_replace_checks_every_field(default_cfg):
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(default_cfg, enc=np.full((2, 2), 1.5), price=-np.ones((2, 2)),
                            delta=np.zeros((1, 1)))
    assert err.value.errors == ["enc: probability out of range [0, 1]",
                                "delta: shape mismatch, expected (2, 2), got (1, 1)",
                                "price: negative entries"]


def test_validate_reports_all_violations_at_once():
    errors = _errors(_full(2, 1, p=[0.5, -0.1], enc=np.full((1, 2), 2.0),
                           delta=np.full((2, 1), -1.0), cost_rcv=np.zeros((9, 9))))
    assert len(errors) >= 3


def test_config_raises_on_invalid():
    with pytest.raises(ValueError, match="probability out of range"):
        GameConfig(1, 1, p=1.5, enc=0.5, delta=0.5, price=1.0,
                   cost_fwd=0.1, cost_rcv=0.1)


def test_config_arrays_are_read_only(default_cfg):
    with pytest.raises(ValueError):
        default_cfg.p[0] = 0.9


def test_structure_parsing_round_trip():
    cs = parse_structure("2,1|3|4", 4)
    assert cs == canonical_structure([{1, 2}, {3}, {4}])
    assert format_structure(cs) == "1,2|3|4"
    assert parse_structure(format_structure(cs), 4) == cs


def test_structure_parsing_rejects_bad_specs():
    with pytest.raises(ValueError, match="missing"):
        parse_structure("1,2|3", 4)
    with pytest.raises(ValueError, match="more than one"):
        parse_structure("1,2|2,3,4", 4)
    with pytest.raises(ValueError, match="player 1 appears more than once"):
        parse_structure("1,1|2,3,4", 4)
    with pytest.raises(ValueError, match="out of range"):
        parse_structure("1,2|3,4,5", 4)
    with pytest.raises(ValueError, match="non-integer"):
        parse_structure("1,x|3,4", 4)
    # int() takes each of these as a player
    for spec, n in [("1_0|1,2,3,4,5,6,7,8,9", 10), ("+1,2|3,4", 4), ("\uff11,2|3,4", 4)]:
        with pytest.raises(ValueError, match="non-integer member"):
            parse_structure(spec, n)
