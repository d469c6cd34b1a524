import dataclasses
import hashlib
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from vanetgame import GeometryConfig, analytic_pair_encounter, estimate_encounter_matrix, geometry
from vanetgame.configio import load_config
from vanetgame.geometry import PLACEMENTS


def test_closed_form_boundaries():
    assert analytic_pair_encounter(0.0, 1.0) == 0.0
    full = analytic_pair_encounter(1.0, 1.0)
    assert abs(full - (math.pi - 8.0 / 3.0 + 0.5)) <= 1e-15
    assert 0.974 < full < 0.975


def test_closed_form_scales_with_side():
    assert analytic_pair_encounter(0.2, 1.0) == analytic_pair_encounter(100.0, 500.0)


def test_closed_form_monotone():
    values = [analytic_pair_encounter(d, 1.0) for d in np.linspace(0.0, 1.0, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_closed_form_rejects_out_of_domain():
    with pytest.raises(ValueError):
        analytic_pair_encounter(1.1, 1.0)
    with pytest.raises(ValueError):
        analytic_pair_encounter(-0.1, 1.0)
    with pytest.raises(ValueError):
        analytic_pair_encounter(0.1, 0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="side_km"):
        GeometryConfig(side_km=0.0, range_km=(0.1,))
    with pytest.raises(ValueError, match="nonnegative"):
        GeometryConfig(side_km=1.0, range_km=(-0.1,))
    with pytest.raises(ValueError, match="n_slots"):
        GeometryConfig(side_km=1.0, range_km=(0.1,), n_slots=0)
    with pytest.raises(ValueError, match="placement"):
        GeometryConfig(side_km=1.0, range_km=(0.1,), placement="hexagons")


def test_estimate_is_deterministic_bit_for_bit():
    geo = GeometryConfig(side_km=1.0, range_km=(0.25, 0.25), n_slots=20_000, seed=99)
    a = estimate_encounter_matrix(geo, 2, 2)
    b = estimate_encounter_matrix(geo, 2, 2)
    assert (a.matrix == b.matrix).all()
    assert (a.stderr == b.stderr).all()
    # chunking must not change the stream
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_SLOTS", 1_234)
        c = estimate_encounter_matrix(geo, 2, 2)
    assert (c.matrix == a.matrix).all()


# sha256 of matrix then stderr bytes, frozen from the estimator that summed a
# (slots, M, K, 2) difference block with einsum. Unequal ranges and K != M
# expose an axis slip; 70,000 placements cross a chunk boundary.
ESTIMATE_SHA256 = {
    "continuous": "052dad5e926526bbd43dad5d9c632c84368d1fc967e7565fd94f1c71be611d9e",
    "grid": "054493b4e118b2fdc162d2ef28503432dc1380ceea5d01be650d8f029f783919",
}


@pytest.mark.parametrize("placement", sorted(ESTIMATE_SHA256))
def test_estimate_matches_frozen_hash(placement):
    geo = GeometryConfig(side_km=1.0, range_km=(0.1, 0.3, 0.5), placement=placement,
                         n_slots=70_000, seed=21)
    est = estimate_encounter_matrix(geo, 3, 5)
    digest = hashlib.sha256(est.matrix.tobytes() + est.stderr.tobytes()).hexdigest()
    assert digest == ESTIMATE_SHA256[placement]


@pytest.mark.parametrize("n_slots, K, M, chunk, sizes", [
    (1, 2, 2, 64, [1]),
    (64, 2, 2, 64, [64]),
    (600, 3, 5, 64, [64] * 9 + [24]),
    (600, 100, 100, 64, [64] * 9 + [24]),       # the 1,024 floor bounds only the cap
    (30_000, 20, 20, 65_536, [10_485, 10_485, 9_030]),   # 2**22 // 400 slots
    (3_000, 100, 100, 65_536, [1_024, 1_024, 952]),
], ids=["one-row", "one-block", "blocks-of-64", "small-chunk-below-floor", "pair-cap",
        "floor"])
def test_uniform_chunks_split_one_draw(n_slots, K, M, chunk, sizes):
    width = 2 * (K + M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_SLOTS", chunk)
        blocks = list(geometry.uniform_chunks(5, n_slots, width, K, M))
    assert [len(b) for b in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks), np.random.default_rng(5).random((n_slots, width)))


def _estimate_peak(*args, **kwargs):
    tracemalloc.start()
    try:
        estimate_encounter_matrix(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_estimate_memory_is_bounded():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2,) * 20, n_slots=100_000, seed=3)
    peak = _estimate_peak(geo, 20, 20)
    assert peak < 100e6, peak


def test_wide_sweep_memory_is_bounded():
    # one comparison block at a time: five ranges cost no more than one
    geo = GeometryConfig(side_km=1.0, range_km=(0.2,) * 20, n_slots=100_000, seed=3)
    peak = _estimate_peak(geo, 20, 20, ranges=[(d,) * 20 for d in (0.1, 0.2, 0.3, 0.4, 0.5)])
    assert peak < 100e6, peak


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_sweep_holds_one_chunk_at_a_time(placement):
    # each loop body frees its chunk, positions and distances before the next
    # chunk is drawn: two live chunks of K = 4, M = 8 peak at about 17.5 MB
    loaded = load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json")
    geo = dataclasses.replace(loaded.geometry, placement=placement, n_slots=200_000)
    peak = _estimate_peak(geo, 4, 8, ranges=[(d,) * 4 for d in (0.1, 0.2, 0.3, 0.4, 0.5)])
    assert peak < 16.5e6, peak


def test_zero_range_never_encounters():
    geo = GeometryConfig(side_km=1.0, range_km=(0.0,), n_slots=5_000, seed=1)
    est = estimate_encounter_matrix(geo, 1, 3)
    assert (est.matrix == 0.0).all()


def test_range_covering_diagonal_always_encounters():
    geo = GeometryConfig(side_km=1.0, range_km=(math.sqrt(2.0),), n_slots=5_000, seed=1)
    est = estimate_encounter_matrix(geo, 1, 3)
    assert (est.matrix == 1.0).all()


def test_estimate_matches_closed_form():
    geo = GeometryConfig(side_km=1.0, range_km=(0.3, 0.3), n_slots=200_000, seed=12345)
    est = estimate_encounter_matrix(geo, 2, 1)
    want = analytic_pair_encounter(0.3, 1.0)
    assert (np.abs(est.matrix - want) <= 3.0 * est.stderr).all()


def test_per_vehicle_ranges_are_respected():
    geo = GeometryConfig(side_km=1.0, range_km=(0.1, 0.45), n_slots=100_000, seed=5)
    est = estimate_encounter_matrix(geo, 2, 1)
    lo = analytic_pair_encounter(0.1, 1.0)
    hi = analytic_pair_encounter(0.45, 1.0)
    assert abs(est.matrix[0, 0] - lo) <= 3.0 * est.stderr[0, 0]
    assert abs(est.matrix[0, 1] - hi) <= 3.0 * est.stderr[0, 1]


def test_grid_placement_runs_and_differs_from_continuous():
    cont = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=50_000, seed=7)
    grid = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=50_000, seed=7,
                          placement="grid")
    est_c = estimate_encounter_matrix(cont, 2, 2)
    est_g = estimate_encounter_matrix(grid, 2, 2)
    assert ((0.0 <= est_g.matrix) & (est_g.matrix <= 1.0)).all()
    assert not (est_c.matrix == est_g.matrix).all()


def test_range_count_must_match_vehicles():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=100, seed=0)
    with pytest.raises(ValueError, match="range_km"):
        estimate_encounter_matrix(geo, 3, 1)


def test_range_vectors_are_checked_as_range_km_is():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=100, seed=0)
    with pytest.raises(ValueError) as alone:
        estimate_encounter_matrix(dataclasses.replace(geo, range_km=(0.1, 0.2, 0.3)), 2, 1)
    with pytest.raises(ValueError) as swept:
        estimate_encounter_matrix(geo, 2, 1, ranges=[(0.1, 0.2), (0.1, 0.2, 0.3)])
    assert str(swept.value) == str(alone.value) == "range_km has 3 transmission ranges, expected 2"
    with pytest.raises(ValueError, match="nonnegative and finite"):
        estimate_encounter_matrix(geo, 2, 1, ranges=[(0.1, -0.2)])


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_one_draw_serves_every_range_vector(placement):
    # distinct per-vehicle ranges, a zero range, ranges at and past the diagonal
    # (side_km * sqrt(2)) and a repeated vector; 20,000 placements cross a chunk
    geo = GeometryConfig(side_km=2.0, range_km=(0.3, 0.3, 0.3), placement=placement,
                         n_slots=20_000, seed=8)
    diagonal = 2.0 * math.sqrt(2.0)
    ranges = [(0.2, 0.5, 1.1), (0.0, 0.7, diagonal), (diagonal, 3.0, 0.0), (0.2, 0.5, 1.1)]
    estimates = estimate_encounter_matrix(geo, 3, 4, ranges=ranges)
    assert len(estimates) == len(ranges)
    for r, est in zip(ranges, estimates):
        alone = estimate_encounter_matrix(dataclasses.replace(geo, range_km=r), 3, 4)
        assert np.array_equal(est.matrix, alone.matrix)
        assert np.array_equal(est.stderr, alone.stderr)
        assert (est.n_slots, est.seed) == (alone.n_slots, alone.seed)
    assert (estimates[1].matrix[:, 2] == 1.0).all() and (estimates[2].matrix[:, :2] == 1.0).all()
    if placement == "continuous":   # on the grid, a zero range still meets a node in its cell
        assert (estimates[1].matrix[:, 0] == 0.0).all() and (estimates[2].matrix[:, 2] == 0.0).all()
    assert 0.0 < estimates[0].matrix.min() and estimates[0].matrix.max() < 1.0
