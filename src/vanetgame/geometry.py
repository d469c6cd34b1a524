"""Monte Carlo estimation of encounter probabilities from random placement.

Every slot, all nodes are placed independently in a square area (fresh
positions each slot, static within a slot). An RSU encounters a vehicle when
their Euclidean distance is at most the vehicle's transmission range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def positions_from_uniforms(u: np.ndarray, side: float, placement: str) -> np.ndarray:
    """Map uniforms of shape (n, nodes*2) to positions of shape (n, nodes, 2)."""
    pos = u.reshape(u.shape[0], -1, 2)
    if placement == "continuous":
        return pos * side
    if placement == "grid":
        cells = np.minimum((pos * GRID_CELLS).astype(np.int64), GRID_CELLS - 1)
        return (cells + 0.5) * (side / GRID_CELLS)
    raise ValueError(f"unknown placement {placement!r}")


def block_slots(chunk_slots: int, K: int, M: int) -> int:
    """Slots per encounter_block call: at most chunk_slots (and at least 1,024),
    few enough that the (slots, M, K) block stays near 2**24 entries."""
    return max(1024, min(chunk_slots, (1 << 24) // max(1, M * K)))


def encounter_block(u: np.ndarray, geo: GeometryConfig, K: int) -> np.ndarray:
    """Which RSU encounters which vehicle in each slot, as a (slots, M, K) boolean block.

    u holds (slots, 2*(K+M)) uniforms: x, y per node, vehicles 1..K first,
    then RSUs 1..M. Vehicle i's range is geo.range_km[i-1].
    """
    if len(geo.range_km) != K:
        raise ValueError(f"range_km has {len(geo.range_km)} transmission ranges, expected {K}")
    pos = positions_from_uniforms(u, geo.side_km, geo.placement)
    diff = pos[:, K:, None, :] - pos[:, None, :K, :]
    dist_sq = np.einsum("smkc,smkc->smk", diff, diff)
    return dist_sq <= np.asarray(geo.range_km, dtype=np.float64) ** 2


@dataclass(frozen=True)
class EncounterEstimate:
    """Empirical encounter matrix with binomial standard errors."""

    matrix: np.ndarray   # (M, K)
    stderr: np.ndarray   # (M, K)
    n_slots: int
    seed: int


def estimate_encounter_matrix(geo: GeometryConfig, K: int, M: int,
                              chunk_slots: int = 65_536) -> EncounterEstimate:
    """Estimate the (M, K) encounter matrix by redrawing placements per slot.

    Positions are drawn vehicle 1..K then RSU 1..M, x before y, from a PCG64
    stream seeded with geo.seed, so results are bit-for-bit reproducible for
    a given config. Standard errors are binomial: sqrt(p*(1-p)/n).
    """
    rng = np.random.default_rng(geo.seed)
    counts = np.zeros((M, K), dtype=np.int64)
    chunk_slots = block_slots(chunk_slots, K, M)
    done = 0
    while done < geo.n_slots:
        m = min(chunk_slots, geo.n_slots - done)
        counts += encounter_block(rng.random((m, 2 * (K + M))), geo, K).sum(axis=0)
        done += m
    phat = counts / float(geo.n_slots)
    stderr = np.sqrt(phat * (1.0 - phat) / float(geo.n_slots))
    return EncounterEstimate(matrix=phat, stderr=stderr,
                             n_slots=geo.n_slots, seed=geo.seed)
