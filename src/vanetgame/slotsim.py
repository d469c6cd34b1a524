"""Slot-by-slot simulation of the full protocol, as an empirical cross-check.

Each slot: vehicles wake up independently; in every coalition the smallest-id
active vehicle is scheduled and the rest stay silent; the transmission
succeeds only when every vehicle outside the coalition is idle; the scheduled
vehicle draws encounter indicators for its coalition's RSUs and picks a relay
uniformly among those encountered (transmitting directly when none); the fee
goes to the chosen relay whether or not the slot collided; an RSU pays the
receive cost for every encounter with its coalition's scheduled vehicle and
the forward cost when it is the one picked.

Everything is accumulated as integer event counts first, so vehicle payments
and RSU revenues balance exactly. Encounters are independent draws at the
encounter matrix's probabilities. The kernel packs each slot's vehicle and RSU
bits into bytes, answers lowest-set-bit, popcount and k-th-set-bit queries from
byte tables in one 1-D pass per byte over the rows where a coalition has an
active member, and tallies each row's outcome code with one bincount each.

The estimates come from one event table. Each event type appears once, with a
count per player and a (benefit, charge) value: a vehicle's success without
relay and relayed success or failure by each RSU, and an RSU's encounter that
ends without relay and its relay, each per vehicle. A payoff value is
w_b * benefit - w_c * charge. Means and standard errors use shifted data (Chan,
Golub and LeVeque, 1983), so a quantity with one observed value reads stderr
0.0 and nothing squares a value near 1e308; an event that occurs with a value
no float holds raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _run_errors, uniform_chunks
from .model import GameConfig, _require_structure, canonical_structure

__all__ = ["EmpiricalReport", "simulate_slots"]

# Each estimate as (report field, CSV quantity), in row order: benefit, charge,
# payoff; its standard error is the report field of the same name plus "_se".
_VEHICLE_ESTIMATES = (("throughput", "throughput"), ("payment", "payment"),
                      ("vehicle_payoff", "payoff"))
_RSU_ESTIMATES = (("revenue", "revenue"), ("cost", "cost"), ("rsu_payoff", "payoff"))

# Rank and select within one byte (Vigna, WEA 2008): bit i of x is BITS[x, i], its
# popcount POP[x], and SEL[x, k] the position of its k-th set bit for k < POP[x].
BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1, bitorder="little").astype(int)
POP = BITS.sum(axis=1)
SEL = np.argsort(BITS == 0, axis=1, kind="stable")


@dataclass(frozen=True)
class EmpiricalReport:
    """Sample means, standard errors, and raw event counts of one run."""

    n_slots: int
    seed: int
    # per vehicle (K,)
    throughput: np.ndarray
    throughput_se: np.ndarray
    payment: np.ndarray
    payment_se: np.ndarray
    vehicle_payoff: np.ndarray
    vehicle_payoff_se: np.ndarray
    # per RSU (M,)
    revenue: np.ndarray
    revenue_se: np.ndarray
    cost: np.ndarray
    cost_se: np.ndarray
    rsu_payoff: np.ndarray
    rsu_payoff_se: np.ndarray
    # event counts
    scheduled: np.ndarray       # (K,)
    success_no_relay: np.ndarray
    fail_no_relay: np.ndarray
    encounters: np.ndarray      # (M, K) scheduled-vehicle encounters
    relays_success: np.ndarray  # (M, K)
    relays_fail: np.ndarray     # (M, K)

    @property
    def relays(self) -> np.ndarray:
        """Relay events per (RSU, vehicle), collided slots included."""
        return self.relays_success + self.relays_fail

    def rows(self) -> list[tuple]:
        """Flat (player, quantity, estimate, stderr, n_slots, seed) rows."""
        k = self.throughput.shape[0]
        players = [(i + 1, i, _VEHICLE_ESTIMATES) for i in range(k)]
        players += [(k + j + 1, j, _RSU_ESTIMATES) for j in range(self.revenue.shape[0])]
        return [(player, qty, float(getattr(self, field)[idx]),
                 float(getattr(self, field + "_se")[idx]), self.n_slots, self.seed)
                for player, idx, table in players for field, qty in table]


def _layout(cs, cfg):
    """(packed vehicle mask, lowest 0-based RSU id lo, K x span thresholds) per coalition.

    The table covers RSUs lo..hi; span RSUs of other coalitions get threshold
    0.0, which no uniform in [0, 1) falls below, so a coalition's encounter
    uniforms are one basic slice. Only vehicle-containing coalitions appear,
    in canonical order, which fixes the selection uniform each one draws.
    """
    layout = []
    for block in canonical_structure(cs):
        vehicles = [m - 1 for m in block if m <= cfg.K]
        if vehicles:
            rsus = [m - cfg.K - 1 for m in block if m > cfg.K]
            lo = min(rsus, default=0)
            thr = np.zeros((cfg.K, max(rsus, default=-1) + 1 - lo))
            thr[:, [j - lo for j in rsus]] = cfg.enc[rsus].T
            bits = np.packbits(np.isin(range(cfg.K), vehicles), bitorder="little")
            layout.append((bits, lo, thr))
    return layout


def _pack(bits):
    """(n, w) booleans as (n, max(1, ceil(w/8))) bytes; column 8*b + i is bit i of byte b."""
    # one flat packbits over padded rows: packbits along axis 1 is 25-40x slower on narrow rows
    padded = np.zeros((bits.shape[0], max(8, -(-bits.shape[1] // 8) * 8)), bool)
    padded[:, :bits.shape[1]] = bits
    return np.packbits(padded, bitorder="little").reshape(-1, padded.shape[1] // 8)


def _count_chunk(u, p, layout, counts) -> None:
    """Add one chunk of slots to the integer event counters.

    Each row of u holds a slot's K activity, M encounter and per-coalition
    relay-selection uniforms: vehicle i is active when its uniform falls below
    p[i], and RSU j meets the scheduled vehicle when its uniform falls below
    that vehicle's threshold in the coalition's table. Both sides are packed
    into bytes. Per coalition, every step is a 1-D pass over the rows that
    hold an active member, in Python loops over bytes with no reduction along
    the byte axis: the scheduled vehicle is the lowest set bit (SEL) of the
    lowest nonzero byte, and the relay the pick-th set bit of the encounter
    bytes, found from POP counts taken byte by byte and SEL (rank and select).
    A row that met no RSU gets relay index span ("no relay"), and one bincount of
    (relay * K + scheduled) * 2 + success gives a (span + 1, K, 2) table of every counter.
    """
    M, K = counts["encounters"].shape
    packed = _pack(u[:, :K] < p)
    sel = SEL.T.ravel()   # sel[256 * k + x] = SEL[x, k], so sel[x] is the lowest set bit of x
    for c, (vmask, lo, thr) in enumerate(layout):
        held = np.zeros(len(u), np.uint8)
        for b in range(vmask.size):
            held |= packed[:, b] & vmask[b]
        rows = np.flatnonzero(held != 0)   # about 5x faster than flatnonzero of the bytes
        mine = packed.take(rows, 0)
        sched = np.zeros(rows.size, np.int64)
        outside = np.zeros(rows.size, np.uint8)
        for b in range(vmask.size - 1, -1, -1):   # a lower nonzero byte overwrites a higher one
            x = mine[:, b] & vmask[b]
            np.copyto(sched, 8 * b + sel.take(x), where=x != 0)
            outside |= mine[:, b] & ~vmask[b]
        # the one gather of encounter uniforms: these rows of the coalition's RSU span
        span = thr.shape[1]
        ecode = _pack(u[rows, K + lo:K + lo + span] < thr.take(sched, 0))
        n_enc = np.zeros(rows.size, np.int64)
        for b in range(ecode.shape[1]):
            seen = np.bincount(sched * 256 + ecode[:, b], minlength=K * 256).reshape(K, 256)
            counts["encounters"][lo + 8 * b:lo + span][:8] += (seen @ BITS).T[:span - 8 * b]
            n_enc += POP.take(ecode[:, b])
        pick = (u[:, K + M + c].take(rows) * n_enc).astype(np.int64)
        np.minimum(pick, n_enc - 1, out=pick)   # -1 where no RSU was met
        # pick counts down each byte's set bits: the relay's byte is the last with pick >= 0
        chosen = np.full(rows.size, span, np.int64)   # span: "no relay"
        for b in range(ecode.shape[1]):
            code = ecode[:, b]
            np.copyto(chosen, 8 * b + sel.take(256 * np.clip(pick, 0, 7) + code), where=pick >= 0)
            pick -= POP.take(code)
        tab = np.bincount((chosen * K + sched) * 2 + (outside == 0),
                          minlength=(span + 1) * K * 2).reshape(span + 1, K, 2)
        counts["scheduled"] += tab.sum(axis=(0, 2))
        counts["relays_fail"][lo:lo + span] += tab[:span, :, 0]
        counts["relays_success"][lo:lo + span] += tab[:span, :, 1]
        counts["fail_no_relay"] += tab[span, :, 0]
        counts["success_no_relay"] += tab[span, :, 1]


def _mean_se(counts: np.ndarray, values: np.ndarray, n: int):
    """Per-slot mean and standard error per row over n slots, from E event types' integer
    counts and values (P, E) and an idle event worth 0.0 in the other n - sum(counts) slots
    (below 0 when a kernel miscounts), scaled by the largest |value| that occurs and shifted
    by the most frequent event's; a value that never occurs adds nothing, even inf."""
    counts = np.concatenate([counts, n - counts.sum(axis=1, keepdims=True)], axis=1)
    x = np.where(counts != 0, np.concatenate([values, np.zeros((len(values), 1))], axis=1), 0.0)
    scale = np.abs(x).max(axis=1)
    x /= np.where(scale > 0.0, scale, 1.0)[:, None]
    ref = x[np.arange(len(x)), counts.argmax(axis=1)]
    d = x - ref[:, None]
    shift = (counts * d).sum(axis=1) / n
    var = np.maximum((counts * d * d).sum(axis=1) - n * shift * shift, 0.0) / max(n - 1, 1)
    return (ref + shift) * scale, np.sqrt(var / n) * scale


@np.errstate(over="ignore", invalid="ignore")   # an event value may overflow: raise if it occurs
def simulate_slots(cs, cfg: GameConfig, n_slots: int, seed: int = 0) -> EmpiricalReport:
    """Simulate a coalition structure for n_slots slots.

    Deterministic for a given seed and independent of geometry.CHUNK_SLOTS:
    randomness comes from one PCG64 stream consumed in a fixed order. Each
    slot row draws K activity uniforms, then one encounter uniform per RSU,
    then one selection uniform per vehicle-containing coalition.
    """
    _require_structure(cs, cfg.n_players)
    errors = _run_errors(n_slots, seed)
    if errors:
        raise ValueError("; ".join(errors))

    K, M = cfg.K, cfg.M
    layout = _layout(cs, cfg)
    counts = {name: np.zeros(shape, np.int64) for name, shape in (
        ("scheduled", K), ("success_no_relay", K), ("fail_no_relay", K),
        ("encounters", (M, K)), ("relays_success", (M, K)), ("relays_fail", (M, K)))}

    for u in uniform_chunks(seed, n_slots, K + M + len(layout), K, M):
        _count_chunk(u, cfg.p, layout, counts)
        del u   # free this chunk before the one after the next is drawn: two are live

    # the event table (module docstring): counts, benefit, charge, weights; a row per player
    relays, fee = counts["relays_success"] + counts["relays_fail"], cfg.price
    vehicle = (np.hstack([counts["success_no_relay"][:, None], counts["relays_success"].T,
                          counts["relays_fail"].T]),
               np.hstack([np.ones((K, 1)), 1.0 + cfg.delta, np.zeros((K, M))]),
               np.hstack([np.zeros((K, 1)), fee.T, fee.T]), cfg.alpha, cfg.beta)
    rsu = (np.hstack([counts["encounters"] - relays, relays]), np.hstack([np.zeros((M, K)), fee]),
           np.hstack([cfg.cost_rcv, cfg.cost_rcv + cfg.cost_fwd]), cfg.gamma, cfg.mu)
    estimates = {}
    for (n_event, benefit, charge, w_b, w_c), fields, first in ((vehicle, _VEHICLE_ESTIMATES, 1),
                                                                 (rsu, _RSU_ESTIMATES, K + 1)):
        value = np.vstack([benefit, charge, w_b[:, None] * benefit - w_c[:, None] * charge])
        n_all = np.vstack([n_event] * 3)   # a block of rows per quantity: one _mean_se call
        bad = (~np.isfinite(value) & (n_all != 0)).any(axis=1).reshape(3, -1)
        for q, k in np.argwhere(bad)[:1]:   # the first quantity's first player
            raise ValueError(f"{fields[q][1]} of player {first + k} in one slot is not finite")
        means, ses = _mean_se(n_all, value, n_slots)
        for (field, _), mean, se in zip(fields, np.split(means, 3), np.split(ses, 3)):
            estimates[field], estimates[field + "_se"] = mean, se
    return EmpiricalReport(n_slots=n_slots, seed=seed, **estimates, **counts)
