import csv
import dataclasses
import io
from itertools import islice

import numpy as np
import pytest

import reference
from vanetgame import (ConfigError, GameConfig, analysis, bell_number, canonical_structure,
                       check_structure, enumerate_partitions, format_structure, iter_partitions,
                       make_config, model, normalize_structure, parse_structure,
                       structure_csv_blocks, unrank_partition, validate_config)


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
    assert analysis._check_partitions(n) == want


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
    assert validate_config(default_cfg) == []


def _full(K, M, **changes):
    """K, M and full-shape arrays of a valid game, with `changes` swapped in."""
    good = make_config(K, M, p=0.5, enc=0.4, delta=0.5, price=1.0, cost_fwd=0.1, cost_rcv=0.1)
    return {**{f.name: getattr(good, f.name) for f in dataclasses.fields(good)}, **changes}


def _errors_both_ways(params):
    """validate_config's list for a GameConfig built directly from params, after
    checking that make_config raises a ConfigError with the same list."""
    errors = validate_config(GameConfig(**params))
    with pytest.raises(ConfigError) as err:
        make_config(**params)
    assert err.value.errors == errors
    return errors


def test_validate_reports_probability_out_of_range():
    errors = _errors_both_ways(_full(2, 1, p=[0.5, 1.2]))
    assert any("probability out of range" in e for e in errors)


def test_validate_reports_shape_mismatch():
    errors = _errors_both_ways(_full(2, 2, delta=np.zeros((2, 1))))
    assert any("delta: shape mismatch" in e for e in errors)
    # nothing spreads in a built config: a 0-d array is a shape mismatch there
    assert validate_config(GameConfig(**_full(2, 2, mu=np.float64(1.0)))) == [
        "mu: shape mismatch, expected (2,), got ()"]


def test_validate_reports_all_violations_at_once():
    errors = _errors_both_ways(_full(2, 1, p=[0.5, -0.1], enc=np.full((1, 2), 2.0),
                                     delta=np.full((2, 1), -1.0), cost_rcv=np.zeros((9, 9))))
    assert len(errors) >= 3


def test_make_config_raises_on_invalid():
    with pytest.raises(ValueError, match="probability out of range"):
        make_config(1, 1, p=1.5, enc=0.5, delta=0.5, price=1.0,
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
