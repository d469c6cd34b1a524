"""Monte Carlo estimation of encounter probabilities from random placement.

Every slot, all nodes are placed independently in a square area (fresh
positions each slot, static within a slot). An RSU encounters a vehicle when
their Euclidean distance is at most the vehicle's transmission range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import _as_array, _integer

__all__ = [
    "GRID_CELLS",
    "PLACEMENTS",
    "GeometryConfig",
    "EncounterEstimate",
    "analytic_pair_encounter",
    "estimate_encounter_matrix",
]

GRID_CELLS = 10

PLACEMENTS = ("continuous", "grid")

# Most rows in one uniform_chunks block
CHUNK_SLOTS = 8_192


@dataclass(frozen=True)
class GeometryConfig:
    """Square-area placement model used to estimate encounter probabilities.

    placement "continuous" draws positions uniformly over the square;
    "grid" snaps every node to the center of one of GRID_CELLS x GRID_CELLS
    uniformly chosen cells. range_km holds one transmission range per vehicle.
    """

    side_km: float
    range_km: tuple
    placement: str = "continuous"
    n_slots: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        side, ranges = _as_array("side_km", self.side_km), _as_array("range_km", self.range_km)
        errors = [entry for entry in (side, ranges) if isinstance(entry, str)]
        if not isinstance(side, str) and not (side.ndim == 0 and 0.0 < side < math.inf):
            errors.append("side_km must be positive and finite")
        if not isinstance(ranges, str) and ranges.ndim != 1:
            errors.append(f"range_km must be a sequence of ranges, got {self.range_km!r}")
        elif not isinstance(ranges, str) and not ((ranges >= 0.0) & (ranges < math.inf)).all():
            errors.append("transmission ranges must be nonnegative and finite")
        errors += _run_errors(self.n_slots, self.seed)
        if self.placement not in PLACEMENTS:
            errors.append(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if errors:
            raise ValueError("; ".join(errors))
        object.__setattr__(self, "side_km", float(side))
        object.__setattr__(self, "range_km", tuple(ranges.tolist()))


def _run_errors(n_slots, seed) -> list[str]:
    """Every violation of the rule on a random run's slot count and seed."""
    rules = ((n_slots, 1, "n_slots must be a positive integer"),
             (seed, 0, "seed must be a nonnegative integer"))
    return [f"{rule}, got {value!r}" for value, low, rule in rules
            if not (_integer(value) and value >= low)]


def analytic_pair_encounter(d: float, side: float = 1.0) -> float:
    """Exact probability that two uniform points in a square lie within d.

    With x = d/side: pi*x^2 - (8/3)*x^3 + x^4/2, valid for 0 <= d <= side
    (ranges beyond the side are rejected; the sweep never needs them).
    """
    if not (math.isfinite(side) and side > 0.0):
        raise ValueError("side must be positive and finite")
    if not 0.0 <= d <= side:
        raise ValueError(f"range {d} outside [0, {side}]")
    x = d / side
    return math.pi * x * x - (8.0 / 3.0) * x ** 3 + 0.5 * x ** 4


def grid_pair_encounter(d: float, side: float = 1.0) -> float:
    """Exact probability that two nodes at uniform GRID_CELLS x GRID_CELLS cell centres lie
    within d, from the estimator's own float steps: the share of cell pairs within d."""
    centres = (np.arange(GRID_CELLS) + 0.5) * (side / GRID_CELLS)
    sq = ((centres[:, None] - centres) ** 2).ravel()
    return float(np.count_nonzero(sq[:, None] + sq <= d * d)) / sq.size ** 2


def uniform_chunks(seed: int, n_slots: int, width: int, K: int, M: int):
    """The rows of one default_rng(seed).random((n_slots, width)) draw, in blocks of
    CHUNK_SLOTS rows, or fewer (but at least 1,024) when rows times M * K would pass
    2**22: that bounds a wide game's chunk in the placement estimator and the slot simulator.
    A worker thread draws the next block while the caller works on this one (random releases
    the GIL), so a caller that drops each block before asking for the next holds two at once."""
    from concurrent.futures import ThreadPoolExecutor   # here, not at import: it costs 6-19 ms
    rng = np.random.default_rng(seed)
    step = min(CHUNK_SLOTS, max(1024, (1 << 22) // max(1, M * K)))
    with ThreadPoolExecutor(1) as pool:   # closing the generator joins the thread
        ahead = pool.submit(rng.random, (min(step, n_slots), width))
        for start in range(step, n_slots, step):
            u = ahead.result()   # rebinding u frees the last block before the next draw
            ahead = pool.submit(rng.random, (min(step, n_slots - start), width))
            yield u
        yield ahead.result()


@dataclass(frozen=True)
class EncounterEstimate:
    """Empirical encounter matrix with binomial standard errors."""

    matrix: np.ndarray   # (M, K)
    stderr: np.ndarray   # (M, K)


def estimate_encounter_matrix(geo: GeometryConfig, K: int, M: int, *,
                              ranges) -> list[EncounterEstimate]:
    """Estimate the (M, K) encounter matrix by redrawing placements per slot.

    Positions are drawn vehicle 1..K then RSU 1..M, x before y, from a PCG64
    stream seeded with geo.seed, so results are bit-for-bit reproducible for
    a given config. Standard errors are binomial: sqrt(p*(1-p)/n).

    One draw serves every per-vehicle range vector in `ranges` (vehicle i's range
    is entry i-1): the result is a list of one EncounterEstimate per vector, in
    order, each equal to the estimate of geo with that vector as its range_km.
    """
    geos = [replace(geo, range_km=r) for r in ranges]
    for g in geos:
        if len(g.range_km) != K:
            raise ValueError(f"range_km has {len(g.range_km)} transmission ranges, expected {K}")
    counts, buffers = np.zeros((len(geos), M, K), dtype=np.int64), None
    with np.errstate(over="ignore"):   # in a huge square a distance or range is inf: still exact
        range_sq = [np.asarray(g.range_km, dtype=np.float64)[:, None] ** 2 for g in geos]
        for u in uniform_chunks(geo.seed, geo.n_slots, 2 * (K + M), K, M):
            rows = u.shape[0]
            # (2, nodes, slots) x and y rows, then per RSU (K, slots) squared distances d and dy
            # and range test near; the first chunk is the longest, so its buffers serve them all
            buffers = buffers or (np.empty((2, K + M, rows)), np.empty((2, K, rows)),
                                  np.empty((K, rows), dtype=bool))
            pos, (d, dy), near = (b[..., :rows] for b in buffers)
            np.copyto(pos, u.reshape(rows, -1, 2).transpose(2, 1, 0))
            del u   # free the draw before the one after the next is drawn
            if geo.placement == "grid":   # cell centres, in place: floor(10 u) capped at 9, + 0.5
                np.minimum(np.floor(np.multiply(pos, GRID_CELLS, out=pos), out=pos),
                           GRID_CELLS - 1, out=pos)
                pos += 0.5
            pos *= geo.side_km / (GRID_CELLS if geo.placement == "grid" else 1)
            x, y = pos
            for j in range(M):
                np.subtract(x[K + j], x[:K], out=d)
                d *= d
                np.subtract(y[K + j], y[:K], out=dy)
                dy *= dy
                d += dy
                for g, r_sq in enumerate(range_sq):
                    np.less_equal(d, r_sq, out=near)
                    counts[g, j] += [np.count_nonzero(row) for row in near]
    phat = counts / float(geo.n_slots)
    stderr = np.sqrt(phat * (1.0 - phat) / float(geo.n_slots))
    return [EncounterEstimate(matrix=m, stderr=s) for m, s in zip(phat, stderr)]
