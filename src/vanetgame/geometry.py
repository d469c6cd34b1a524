"""Monte Carlo estimation of encounter probabilities from random placement.

Every slot, all nodes are placed independently in a square area (fresh
positions each slot, static within a slot). An RSU encounters a vehicle when
their Euclidean distance is at most the vehicle's transmission range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
CHUNK_SLOTS = 16_384


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
        object.__setattr__(self, "side_km", float(self.side_km))
        object.__setattr__(self, "range_km", tuple(float(r) for r in self.range_km))
        if not (math.isfinite(self.side_km) and self.side_km > 0.0):
            raise ValueError("side_km must be positive and finite")
        if not all(math.isfinite(r) and r >= 0.0 for r in self.range_km):
            raise ValueError("transmission ranges must be nonnegative and finite")
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")


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


def uniform_chunks(seed: int, n_slots: int, width: int, K: int, M: int):
    """The rows of one default_rng(seed).random((n_slots, width)) draw, in blocks of
    CHUNK_SLOTS rows, or fewer (but at least 1,024) when a block's (M, K, slots)
    distance block would pass 2**22 RSU-vehicle pairs."""
    rng = np.random.default_rng(seed)
    step = min(CHUNK_SLOTS, max(1024, (1 << 22) // max(1, M * K)))
    for start in range(0, n_slots, step):
        yield rng.random((min(step, n_slots - start), width))


@dataclass(frozen=True)
class EncounterEstimate:
    """Empirical encounter matrix with binomial standard errors."""

    matrix: np.ndarray   # (M, K)
    stderr: np.ndarray   # (M, K)
    n_slots: int
    seed: int


def estimate_encounter_matrix(geo: GeometryConfig, K: int, M: int, *,
                              ranges=None) -> EncounterEstimate | list[EncounterEstimate]:
    """Estimate the (M, K) encounter matrix by redrawing placements per slot.

    Positions are drawn vehicle 1..K then RSU 1..M, x before y, from a PCG64
    stream seeded with geo.seed, so results are bit-for-bit reproducible for
    a given config. Vehicle i's range is geo.range_km[i-1]. Standard errors
    are binomial: sqrt(p*(1-p)/n).

    With `ranges`, a sequence of per-vehicle range vectors, one draw serves
    them all: the result is a list of one EncounterEstimate per vector, each
    equal to the estimate of geo with that vector as its range_km. Without
    it, the result is the one estimate of geo.range_km.
    """
    geos = [geo] if ranges is None else [replace(geo, range_km=r) for r in ranges]
    for g in geos:
        if len(g.range_km) != K:
            raise ValueError(f"range_km has {len(g.range_km)} transmission ranges, expected {K}")
    range_sq = [np.asarray(g.range_km, dtype=np.float64) ** 2 for g in geos]
    counts = np.zeros((len(geos), M, K), dtype=np.int64)
    for u in uniform_chunks(geo.seed, geo.n_slots, 2 * (K + M), K, M):
        # (2, nodes, slots): contiguous x and y rows, so each step runs over whole rows
        pos = np.ascontiguousarray(u.reshape(u.shape[0], -1, 2).transpose(2, 1, 0))
        if geo.placement == "grid":
            pos = np.minimum((pos * GRID_CELLS).astype(np.int64), GRID_CELLS - 1) + 0.5
            pos *= geo.side_km / GRID_CELLS
        else:
            pos = pos * geo.side_km
        x, y = pos
        dist_sq = (x[K:, None] - x[None, :K]) ** 2   # (M, K, slots)
        dist_sq += (y[K:, None] - y[None, :K]) ** 2
        for count, r_sq in zip(counts, range_sq):
            count += (dist_sq <= r_sq[:, None]).sum(axis=2)
        del u, pos, x, y, dist_sq   # free this chunk before the next is drawn
    phat = counts / float(geo.n_slots)
    stderr = np.sqrt(phat * (1.0 - phat) / float(geo.n_slots))
    estimates = [EncounterEstimate(matrix=m, stderr=s, n_slots=geo.n_slots, seed=geo.seed)
                 for m, s in zip(phat, stderr)]
    return estimates[0] if ranges is None else estimates
