import dataclasses
import hashlib
import math
import pathlib
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import reference
from vanetgame import (GeometryConfig, analytic_pair_encounter, estimate_encounter_matrix, geometry,
                       simulate_slots, slotsim)
from vanetgame.cli import main
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
    for placement in PLACEMENTS:   # the grid snaps in place, in buffers sized by the first chunk
        geo = GeometryConfig(side_km=1.0, range_km=(0.25, 0.25), placement=placement,
                             n_slots=20_000, seed=99)
        a, = estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])
        b, = estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])
        assert (a.matrix == b.matrix).all()
        assert (a.stderr == b.stderr).all()
        # chunking must not change the stream: 1,234-row chunks end in a shorter one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "CHUNK_SLOTS", 1_234)
            c, = estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])
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
    est, = estimate_encounter_matrix(geo, 3, 5, ranges=[geo.range_km])
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


GRAND = (frozenset({1, 2, 3, 4}),)   # the built-in game's grand coalition


def _kernel_fails_on_its_second_block(monkeypatch, cfg):
    live = []

    def count(u, *args):
        live.append(threading.active_count())
        if len(live) == 2:   # while the third block is being drawn
            raise RuntimeError("kernel fault")

    monkeypatch.setattr(slotsim, "_count_chunk", count)
    with pytest.raises(RuntimeError, match="kernel fault"):
        simulate_slots(GRAND, cfg, 5 * geometry.CHUNK_SLOTS, seed=1)
    return live[0]


def _generator_closed_after_one_block(monkeypatch, cfg):
    chunks = geometry.uniform_chunks(1, 5 * geometry.CHUNK_SLOTS, 4, 2, 2)
    next(chunks)
    live = threading.active_count()
    chunks.close()
    return live


def _complete_estimate(monkeypatch, cfg):
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=5 * geometry.CHUNK_SLOTS)
    estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])


@pytest.mark.parametrize("run", [_kernel_fails_on_its_second_block,
                                 _generator_closed_after_one_block, _complete_estimate])
def test_no_drawing_thread_outlives_its_loop(monkeypatch, default_cfg, run):
    # the draw ahead runs on one worker thread, which lives while the loop does
    before = threading.active_count()
    live = run(monkeypatch, default_cfg)
    assert threading.active_count() == before
    assert live in (None, before + 1), live


@pytest.mark.parametrize("failing_draw", [1, 2], ids=["first-draw", "later-draw"])
@pytest.mark.parametrize("loop", ["simulate_slots", "estimate_encounter_matrix", "main"])
def test_a_draw_error_reaches_the_caller_unchanged(monkeypatch, default_cfg, loop, failing_draw):
    # the exception a draw raises on the worker thread is the one the loop raises, so
    # main maps it as it would an error raised in its own thread
    error, real = MemoryError("x"), np.random.default_rng

    class FailingRng:   # the real stream until draw number failing_draw, which raises error
        def __init__(self, seed):
            self.rng, self.draws = real(seed), 0

        def random(self, size):
            self.draws += 1
            if self.draws == failing_draw:
                raise error
            return self.rng.random(size)

    monkeypatch.setattr(geometry.np.random, "default_rng", FailingRng)
    n_slots = 3 * geometry.CHUNK_SLOTS
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=n_slots)
    before = threading.active_count()
    with pytest.raises(MemoryError) as caught:
        if loop == "simulate_slots":
            simulate_slots(GRAND, default_cfg, n_slots, seed=1)
        elif loop == "estimate_encounter_matrix":
            estimate_encounter_matrix(geo, 2, 2, ranges=[geo.range_km])
        else:
            main(["simulate", "--slots", str(n_slots)])
    assert caught.value is error
    assert threading.active_count() == before


def _estimate_peak(*args, **kwargs):
    tracemalloc.start()
    try:
        estimate_encounter_matrix(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_estimate_memory_is_bounded():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2,) * 20, n_slots=100_000, seed=3)
    peak = _estimate_peak(geo, 20, 20, ranges=[geo.range_km])
    assert peak < 25e6, peak


def test_wide_sweep_memory_is_bounded():
    # one comparison block at a time: five ranges cost no more than one
    geo = GeometryConfig(side_km=1.0, range_km=(0.2,) * 20, n_slots=100_000, seed=3)
    peak = _estimate_peak(geo, 20, 20, ranges=[(d,) * 20 for d in (0.1, 0.2, 0.3, 0.4, 0.5)])
    assert peak < 25e6, peak


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_sweep_holds_one_chunk_at_a_time(placement):
    # each loop body frees its chunk before the one after the next is drawn, and distances are
    # built one RSU at a time: K = 4, M = 8 peaks at about 5.3 MB with either placement
    loaded = load_config(pathlib.Path(__file__).parent / "data" / "core_k4m8.json")
    geo = dataclasses.replace(loaded.geometry, placement=placement, n_slots=200_000)
    peak = _estimate_peak(geo, 4, 8, ranges=[(d,) * 4 for d in (0.1, 0.2, 0.3, 0.4, 0.5)])
    assert peak < 11e6, peak


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("K, M", [(K, M) for K in (1, 3) for M in (0, 1, 5)])
def test_counts_match_the_reference_placement_loop(monkeypatch, placement, K, M):
    # unequal per-vehicle ranges, two vectors at once, and 64-row chunks that 300 slots cross
    monkeypatch.setattr(geometry, "CHUNK_SLOTS", 64)
    geo = GeometryConfig(side_km=1.5, range_km=(0.3, 0.9, 0.0)[:K], placement=placement,
                         n_slots=300, seed=17)
    ranges = [(0.3, 0.9, 0.0)[:K], (1.2, 0.15, 0.6)[:K]]
    estimates = estimate_encounter_matrix(geo, K, M, ranges=ranges)
    for est, want in zip(estimates, reference.placement_counts(geo, K, M, ranges)):
        assert np.array_equal(est.matrix, np.array(want, float).reshape(M, K) / geo.n_slots)


def test_overflowing_distances_and_ranges_stay_exact_and_silent(capfd):
    # a squared distance past the float range is inf, as is a squared range: both compare right
    huge = GeometryConfig(side_km=1.3e154, range_km=(1e150, 1e150), n_slots=5_000, seed=1)
    wide = GeometryConfig(side_km=1.0, range_km=(1.4e154, 0.0), n_slots=5_000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far, = estimate_encounter_matrix(huge, 2, 3, ranges=[huge.range_km])
        near, = estimate_encounter_matrix(wide, 2, 3, ranges=[wide.range_km])
    assert (far.matrix == 0.0).all()
    assert (near.matrix[:, 0] == 1.0).all() and (near.matrix[:, 1] == 0.0).all()
    assert capfd.readouterr().err == ""


def test_zero_range_never_encounters():
    geo = GeometryConfig(side_km=1.0, range_km=(0.0,), n_slots=5_000, seed=1)
    est, = estimate_encounter_matrix(geo, 1, 3, ranges=[geo.range_km])
    assert (est.matrix == 0.0).all()


def test_range_covering_diagonal_always_encounters():
    geo = GeometryConfig(side_km=1.0, range_km=(math.sqrt(2.0),), n_slots=5_000, seed=1)
    est, = estimate_encounter_matrix(geo, 1, 3, ranges=[geo.range_km])
    assert (est.matrix == 1.0).all()


def test_estimate_matches_closed_form():
    geo = GeometryConfig(side_km=1.0, range_km=(0.3, 0.3), n_slots=200_000, seed=12345)
    est, = estimate_encounter_matrix(geo, 2, 1, ranges=[geo.range_km])
    want = analytic_pair_encounter(0.3, 1.0)
    assert (np.abs(est.matrix - want) <= 3.0 * est.stderr).all()


def test_per_vehicle_ranges_are_respected():
    geo = GeometryConfig(side_km=1.0, range_km=(0.1, 0.45), n_slots=100_000, seed=5)
    est, = estimate_encounter_matrix(geo, 2, 1, ranges=[geo.range_km])
    lo = analytic_pair_encounter(0.1, 1.0)
    hi = analytic_pair_encounter(0.45, 1.0)
    assert abs(est.matrix[0, 0] - lo) <= 3.0 * est.stderr[0, 0]
    assert abs(est.matrix[0, 1] - hi) <= 3.0 * est.stderr[0, 1]


def test_grid_placement_runs_and_differs_from_continuous():
    cont = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=50_000, seed=7)
    grid = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=50_000, seed=7,
                          placement="grid")
    est_c, = estimate_encounter_matrix(cont, 2, 2, ranges=[cont.range_km])
    est_g, = estimate_encounter_matrix(grid, 2, 2, ranges=[grid.range_km])
    assert ((0.0 <= est_g.matrix) & (est_g.matrix <= 1.0)).all()
    assert not (est_c.matrix == est_g.matrix).all()


def _grid_share_within(d, side):
    """The share of (vehicle cell, RSU cell) pairs of the 10 x 10 grid whose centres lie
    within d, by a plain loop over all 10^4 pairs in the estimator's float steps."""
    centres = [(c + 0.5) * (side / 10) for c in range(10)]
    cells = [(x, y) for x in centres for y in centres]
    within = sum((xr - xv) * (xr - xv) + (yr - yv) * (yr - yv) <= d * d
                 for xv, yv in cells for xr, yr in cells)
    return within / len(cells) ** 2


@pytest.mark.parametrize("side", [1.0, 0.7, 3.0])
def test_grid_law_counts_every_cell_pair(side):
    step = side / 10
    on_a_centre = (9 + 0.5) * step - (0 + 0.5) * step   # a pair with dy = 0 sits exactly here
    for d in (0.0, 0.1 * side, 0.3 * side, on_a_centre, side):
        assert geometry.grid_pair_encounter(d, side) == _grid_share_within(d, side), d
    # the pairs at exactly `on_a_centre` count as within, as the estimator's <= counts them
    below = math.nextafter(on_a_centre, 0.0)
    assert geometry.grid_pair_encounter(below, side) < geometry.grid_pair_encounter(on_a_centre,
                                                                                    side)
    assert geometry.grid_pair_encounter(0.0, side) == 0.01   # the same cell, 100 of 10^4 pairs


def test_grid_estimate_agrees_with_the_grid_law_not_the_continuous_one():
    geo = GeometryConfig(side_km=1.0, range_km=(0.3, 0.3), n_slots=200_000, seed=12345,
                         placement="grid")
    est, = estimate_encounter_matrix(geo, 2, 1, ranges=[geo.range_km])
    assert geometry.grid_pair_encounter(0.3) == 0.2056
    assert (np.abs(est.matrix - 0.2056) <= 4.0 * est.stderr).all()
    assert (np.abs(est.matrix - analytic_pair_encounter(0.3)) > 4.0 * est.stderr).all()


def test_range_count_must_match_vehicles():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=100, seed=0)
    with pytest.raises(ValueError, match="range_km"):
        estimate_encounter_matrix(geo, 3, 1, ranges=[geo.range_km])


def test_range_vectors_are_checked_as_range_km_is():
    geo = GeometryConfig(side_km=1.0, range_km=(0.2, 0.2), n_slots=100, seed=0)
    with pytest.raises(ValueError) as alone:
        estimate_encounter_matrix(geo, 2, 1, ranges=[(0.1, 0.2, 0.3)])
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
        alone, = estimate_encounter_matrix(geo, 3, 4, ranges=[r])
        assert np.array_equal(est.matrix, alone.matrix)
        assert np.array_equal(est.stderr, alone.stderr)
    assert (estimates[1].matrix[:, 2] == 1.0).all() and (estimates[2].matrix[:, :2] == 1.0).all()
    if placement == "continuous":   # on the grid, a zero range still meets a node in its cell
        assert (estimates[1].matrix[:, 0] == 0.0).all() and (estimates[2].matrix[:, 2] == 0.0).all()
    assert 0.0 < estimates[0].matrix.min() and estimates[0].matrix.max() < 1.0
