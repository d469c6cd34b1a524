"""Structure-level payoffs, profitability, and core stability analysis."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analytic import (ABS_TOL, _ORACLE_BLOCK_BITS, PayoffReport, _brackets, _oracle_batch,
                       _reports, _rsu_product, _table, _tables, _vehicle_rows, player_payoffs)
from .model import (Coalition, GameConfig, _blocks_of, _in_vehicle_block, _label_blocks,
                    _require_structure, format_structure, split_members)

__all__ = [
    "structure_payoffs",
    "structure_reports",
    "vehicle_coalition_profitability",
    "CoreConditions",
    "CoreMembership",
    "StabilityVerdict",
    "core_sufficient_conditions",
    "core_membership",
    "stability_verdict",
    "CheckResult",
    "run_identity_checks",
]

_ENUM_MAX_PLAYERS = 20
# Coalitions per block of the sweep's table (3 x n x 4096 floats fill its grid: 1.9 MB at n = 20)
_BLOCK_MASKS = 1 << 12
# run_identity_checks covers every coalition of this many partitions of all players,
# and runs the relay oracle on those whose encounter sets fit one block of its enumeration
_CHECK_STRUCTURES = 64


def structure_reports(cs, cfg: GameConfig) -> list[PayoffReport]:
    """Per-coalition payoff reports for a full structure."""
    _require_structure(cs, cfg.n_players)
    return _reports(cs, cfg)


def structure_payoffs(cs, cfg: GameConfig) -> np.ndarray:
    """Payoff of every player under a coalition structure.

    Entry k holds the payoff of player k+1, computed inside that player's own
    coalition. Throughput already discounts for all outside vehicles, so the
    vector does not depend on how the outsiders are grouped among themselves.
    """
    out = np.zeros(cfg.n_players, cfg.p.dtype)
    for rep in structure_reports(cs, cfg):
        for m in rep.members:
            out[m - 1] = rep.payoff_of(m)
    return out


def vehicle_coalition_profitability(S, cfg: GameConfig) -> dict:
    """Per-member test that joining a vehicle-only coalition beats acting alone.

    For each member the closed-form ratio of its standalone payoff to its
    in-coalition payoff reduces to the product of (1 - p) over the
    larger-id members, which never exceeds one: scheduling priority can only
    help. Ties (in particular the largest-id member) count as profitable.
    Requires a nonnegative throughput weight on every member (raises
    "negative throughput weight" otherwise: a negative weight turns the
    larger payoff into the smaller one, and the ratio no longer decides).
    """
    vehicles, rsus = split_members(S, cfg.K)
    if rsus:
        raise ValueError(f"coalition contains RSUs {list(rsus)}; profitability "
                         "condition is defined for vehicle-only coalitions")
    if not vehicles:
        raise ValueError("empty coalition")
    negative = [i for i in vehicles if cfg.alpha[i - 1] < 0.0]
    if negative:
        raise ValueError(f"negative throughput weight for players {negative}")
    return {member: bool(math.prod(1.0 - cfg.p[v - 1] for v in vehicles if v > member)
                         <= 1.0 + ABS_TOL)
            for member in vehicles}


@dataclass(frozen=True)
class CoreConditions:
    """Outcome of the three-part sufficient check for an unblockable grand vector.

    Witnesses identify the first offending player or (player, coalition) in the
    fixed enumeration order, None when a condition holds; each flag reads its witness.
    """

    weight_witness: int | None
    gain_witness: tuple | None
    preference_witness: tuple | None

    weights_positive = property(lambda self: self.weight_witness is None)
    gains_strict = property(lambda self: self.gain_witness is None)
    grand_preferred = property(lambda self: self.preference_witness is None)
    all_hold = property(lambda self: self.weights_positive and self.gains_strict
                        and self.grand_preferred)


def _weight_witness(cfg: GameConfig) -> int | None:
    """The first player with a weight not > 0.0 in the rows [alpha, gamma] and [beta, mu]."""
    ok = (np.concatenate([[cfg.alpha, cfg.beta], [cfg.gamma, cfg.mu]], axis=1) > 0.0).all(axis=0)
    return None if ok.all() else int(ok.argmin()) + 1


def _preorder_key(masks: np.ndarray, n: int) -> np.ndarray:
    """|S| + sum of 2^(n - j) over the non-members j below max S, per coalition
    mask: the rank of S in the preorder walk of the subset tree, which orders
    coalitions as their sorted member tuples compare."""
    key = np.zeros(len(masks), dtype=np.int64)
    seen_top = np.zeros(len(masks), dtype=bool)
    for k in range(n - 1, -1, -1):   # player k + 1, from the top down
        bit = (masks >> k & 1).astype(bool)
        key += bit + np.where(seen_top & ~bit, 1 << (n - 1 - k), 0)
        seen_top |= bit
    return key


def _coalition(mask: int, n: int) -> frozenset:
    """The players of a coalition mask (bit k: player k + 1)."""
    return frozenset(m + 1 for m in range(n) if mask >> m & 1)


def _first_offence(offends: np.ndarray, masks: np.ndarray, n: int):
    """(first offending member, coalition) of the first mask with an offence."""
    hit = offends.any(axis=0)
    if not hit.any():
        return None
    k = int(hit.argmax())
    return int(offends[:, k].argmax()) + 1, _coalition(int(masks[k]), n)


@np.errstate(over="ignore", invalid="ignore")   # a distance past the float range is far
def _block_payoffs(cfg: GameConfig, veh, rsu, pr, *limits) -> np.ndarray:
    """_table's payoffs (n, R, V) on a block's grid, from veh (K, 1, V), rsu (M, R, V) and pr
    (K, M, R): the RSUs' from _rsu_product, but _table's in each column with a vehicle where a
    member RSU's lies within its bound of 0 or of a limit (M, 1, 1), so all compare as _table's."""
    share, *_, vehicles = _vehicle_rows(cfg, veh, pr[..., None])
    rsus, bound = _rsu_product(cfg, share[:, 0], pr)
    if not abs(vehicles.sum() + rsus.sum() + bound.sum()) < np.inf:
        return _table(cfg, veh, rsu, pr[..., None])[-1]   # which raises if a member overflows
    near = abs(rsus) <= bound
    for limit in limits:
        near |= abs(rsus - limit) <= bound
    r, v = np.nonzero((near & rsu).any(axis=0) & veh.any(axis=0))
    if r.size:
        rsus[:, r, v] = _table(cfg, veh[:, 0, v], rsu[:, r, v], pr[:, :, r])[-1][cfg.K:]
    return np.concatenate((vehicles, rsus))


def _sweep(cfg: GameConfig, grand: np.ndarray, x):
    """The one pass over coalitions behind every core analysis.

    Reads the payoffs of every coalition in blocks of ascending masks, each block's
    through _block_payoffs, whose decisions are _table's. Bit k of a mask is player
    k + 1, so the RSU set is mask >> K: a block is a grid of RSU sets by vehicle
    subsets, and each RSU set R's relay probabilities come once from _brackets over
    all 2^M RSU subsets, 0 off R. Returns (gain witness, preference witness, blocker):
    the first (player, coalition) violating condition 2 and condition 3 of
    core_sufficient_conditions among the proper coalitions, given the grand
    coalition's payoff vector, and the coalition with the lexicographically
    smallest sorted member tuple whose every member earns strictly more than x.
    """
    K, n = cfg.K, cfg.n_players
    limits = (grand[K:, None, None], x[K:, None, None])[:1 + (x is not grand)]   # per RSU
    grand, bar = grand[:, None], np.asarray(x)[:, None]
    gain_witness = preference_witness = best = None
    q, t, h = cfg.enc.T[:, :, None], np.arange(cfg.M)[:, None], _brackets(cfg.enc.T)
    size = min(1 << n, _BLOCK_MASKS)
    width = min(size, 1 << K)   # a block is a grid: RSU sets x vehicle subsets of width
    for base in range(0, 1 << n, size):
        masks = np.arange(base, base + size)
        member = masks & (1 << np.arange(n))[:, None] != 0
        grid = member.reshape(n, -1, width)
        pr = q * h[:, masks[::width] >> K & ~(1 << t)] * grid[K:, :, 0]   # P(t relays i | R)
        payoff = _block_payoffs(cfg, grid[:K, :1], grid[K:], pr, *limits).reshape(n, size)
        proper = masks != (1 << n) - 1
        if gain_witness is None:
            # weighted benefit minus weighted charge is > 0 exactly when the benefit
            # is the larger: a difference of finite doubles never rounds to zero
            with_vehicle = proper & (masks & ((1 << K) - 1) != 0)
            gain_witness = _first_offence(member & ~(payoff > 0.0) & with_vehicle, masks, n)
        if preference_witness is None:
            preference_witness = _first_offence(member & ~(grand > payoff) & proper, masks, n)
        blocking = masks[(~member | (payoff > bar)).all(axis=0) & (masks != 0)]
        if blocking.size:
            keys = _preorder_key(blocking, n)
            k = int(keys.argmin())
            if best is None or keys[k] < best[0]:
                best = (keys[k], int(blocking[k]))
    return gain_witness, preference_witness, None if best is None else _coalition(best[1], n)


def core_sufficient_conditions(cfg: GameConfig) -> CoreConditions:
    """Check three conditions that together make the grand vector unblockable.

    1) every payoff weight is strictly positive;
    2) inside every proper coalition with at least one vehicle, each vehicle
       member's weighted throughput strictly exceeds its weighted payment and
       each RSU member's weighted revenue strictly exceeds its weighted cost
       (RSU-only coalitions are skipped: all their quantities are identically
       zero, so the members are already equivalent to acting alone);
    3) every member of every proper coalition, RSU-only ones included, earns
       strictly more in the grand coalition than inside that coalition.

    Condition 3 is demanding. With two or more RSUs and fees above forwarding
    costs it fails: an RSU serving vehicles as the only relay beats sharing
    them with competitors, and the check reports that witness. Condition 3
    implies that no coalition can block, so whenever all three hold the grand
    payoff vector is in the core.
    """
    return stability_verdict(cfg).conditions


@dataclass(frozen=True)
class CoreMembership:
    blocking: Coalition | None

    in_core = property(lambda self: self.blocking is None)


def _verdict(cfg: GameConfig, x=None):
    """(grand vector, gain witness, preference witness, membership of x, default the
    grand vector): the bound, the sweep, and a blocker re-verified member by member."""
    if cfg.n_players > _ENUM_MAX_PLAYERS:
        raise ValueError(f"enumeration bound exceeded: {cfg.n_players} players "
                         f"> {_ENUM_MAX_PLAYERS}")
    grand = structure_payoffs((frozenset(range(1, cfg.n_players + 1)),), cfg)
    x = grand if x is None else x
    gain_witness, preference_witness, blocker = _sweep(cfg, grand, x)
    if blocker is not None:
        rep = player_payoffs(blocker, cfg)
        if not all(rep.payoff_of(m) > x[m - 1] for m in blocker):
            raise RuntimeError(f"internal invariant breach: blocker {sorted(blocker)} "
                               "does not dominate on re-evaluation")
    return grand, gain_witness, preference_witness, CoreMembership(blocker)


def core_membership(x, cfg: GameConfig) -> CoreMembership:
    """Test whether payoff vector x is unblocked by every coalition.

    A coalition blocks when every one of its members earns strictly more
    inside it than under x. The feasible payoffs of a coalition are the single
    vector produced by the fixed scheduler and fixed fees. All non-empty
    coalitions are candidates, the full player set included (it never blocks
    its own payoff vector, but does block dominated ones). When blockers
    exist, the lexicographically smallest one (on sorted member lists) is
    reported, after re-verifying strict domination member by member.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.n_players,):
        raise ValueError(f"payoff vector has shape {x.shape}, expected ({cfg.n_players},)")
    bad = (np.flatnonzero(~np.isfinite(x)) + 1).tolist()
    if bad:
        raise ValueError(f"payoff vector is not finite for players {bad}")
    return _verdict(cfg, x)[-1]


@dataclass(frozen=True)
class StabilityVerdict:
    conditions: CoreConditions
    payoff_vector: np.ndarray
    membership: CoreMembership


def stability_verdict(cfg: GameConfig) -> StabilityVerdict:
    """Sufficient conditions plus direct core membership of the grand vector.

    Same membership as core_membership of the grand vector, from a single
    sweep that evaluates every coalition once.
    """
    vec, gain_witness, preference_witness, membership = _verdict(cfg)
    conditions = CoreConditions(_weight_witness(cfg), gain_witness, preference_witness)
    if conditions.all_hold and not membership.in_core:
        raise RuntimeError("internal invariant breach: sufficient conditions hold "
                           f"but the grand vector is blocked by {sorted(membership.blocking)}")
    return StabilityVerdict(conditions, vec, membership)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None   # None = skipped
    detail: str


def _check_partitions(n: int) -> np.ndarray:
    """Label rows of the first _CHECK_STRUCTURES partitions of {1..n}, canonical order (all if
    fewer). Bell(6) = 203 >= 64: from n = 6 on, the first 203 rows are 6 players' after zeros."""
    width = min(n, 6)
    rows = np.concatenate(list(_label_blocks(width)))[:_CHECK_STRUCTURES]
    labels = np.zeros((len(rows), n), np.min_scalar_type(-n))
    labels[:, n - width:] = rows
    return labels


def _fold(op, start: float, mask, terms) -> np.ndarray:
    """op(acc, term) over each entry's member terms, players first (mask and terms have as
    many axes): a Python sum (start 0.0) or product (1.0) in id order, one accumulate over a
    start row and terms that are start off the mask (x + 0.0 is x in a sum from +0.0)."""
    rows = np.where(mask, terms, start)
    return op.accumulate(np.concatenate((np.full((1, *rows.shape[1:]), start), rows)))[-1]


def _gap(mask, a, b) -> np.ndarray:
    """[|a - b|, max(|a|, |b|)] where mask holds, else 0.0: a gap and its pass rule's scale, which
    np.maximum and a max over later axes keep paired; a NaN stays NaN, so it fails its identity."""
    return np.where(mask, [np.abs(a - b), np.maximum(np.abs(a), np.abs(b))], 0.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # non-finite gaps fail: no warning
def run_identity_checks(cfg: GameConfig) -> list[CheckResult]:
    """Exercise the exact identities tying the closed-form quantities together.

    Runs over every coalition of the first _CHECK_STRUCTURES partitions of all players in
    canonical order (every partition when there are at most that many) and reports one result
    per identity. Every quantity is a column of one table per config (given, uniform-weight,
    zero-price). A residual identity's gap per coalition is the largest |a - b| over the pairs
    it equates there, and it passes when each gap is at most ABS_TOL * max(1, s), s the largest
    |term| it sums or subtracts there, and every s is finite; its result is the largest gap and
    the first coalition, in sorted-member order, that reaches it. Profitability runs over every
    vehicle-only column, the vehicle prefixes {1..i} included. Used by the CLI `check` subcommand.
    """
    n, K = cfg.n_players, cfg.K
    labels = _check_partitions(n)
    partitions = [_blocks_of(row) for row in labels.tolist()]
    coalitions = sorted({block for cs in partitions for block in cs}, key=sorted)
    columns = list(dict.fromkeys([*coalitions, *(frozenset((m,)) for m in range(1, n + 1)),
                                  *(frozenset(range(1, i + 1)) for i in cfg.vehicles)]))
    col = {S: c for c, S in enumerate(columns)}
    uni = dataclasses.replace(cfg, delta=np.repeat(cfg.delta[:, :1], cfg.M, axis=1),
                              price=np.repeat(cfg.price[:1, :], cfg.M, axis=0))   # uniform weights
    unit = bool((cfg.beta == 1.0).all() and (cfg.gamma == 1.0).all())
    zero = (dataclasses.replace(cfg, price=np.zeros_like(cfg.price)),) if unit else ()
    member, pr, tables = _tables(columns, cfg, uni, *zero)
    C = len(coalitions)
    (share, gain, fee, benefit, charge, payoff), uni_table = tables[0], tables[1]
    held, veh, rsu = member[:, :C], member[:K, :C], member[K:, :C]
    has_vehicle, has_rsu = veh.any(axis=0), rsu.any(axis=0)

    share_gap = _gap(has_vehicle, _fold(np.add, 0.0, veh, share[:, :C]),
                     1.0 - _fold(np.multiply, 1.0, veh, (1.0 - cfg.p)[:, None]))
    # (RSU, vehicle, coalition) arrays: every vehicle's sums over the coalition's RSUs at once
    served, in_rsu, relay = veh & has_rsu, rsu[:, None], pr[:, :, :C].transpose(1, 0, 2)
    reach = -np.expm1(_fold(np.add, 0.0, in_rsu, np.log1p(-cfg.enc[:, :, None])))   # q = 1: -inf
    row_gap = _gap(served, _fold(np.add, 0.0, in_rsu, relay), reach)
    fee_sum, gain_sum = (_fold(np.add, 0.0, in_rsu, relay * w[..., None])
                         for w in (cfg.price, cfg.delta.T))
    mean_gap = np.maximum(_gap(served, fee[:, :C], fee_sum), _gap(served, gain[:, :C], gain_sum))
    d_uni, xi_uni = (uni.delta[:, :1], uni.price[0, :, None]) if cfg.M else (0.0, 0.0)
    simple_gap = np.maximum(_gap(veh, uni_table[1][:, :C], d_uni * reach),
                            _gap(veh, uni_table[2][:, :C], xi_uni * reach))
    balance_gap = _gap(True, _fold(np.add, 0.0, veh, charge[:K, :C]),
                       _fold(np.add, 0.0, rsu, benefit[K:, :C]))

    oracle_gap, rsu_count = np.zeros((2, C, K)), rsu.sum(axis=0)   # per (coalition, vehicle)
    checked = has_vehicle & has_rsu & (rsu_count <= _ORACLE_BLOCK_BITS)
    for size in sorted(set(rsu_count[checked].tolist())):   # one oracle pass per RSU count
        cols = np.flatnonzero(checked & (rsu_count == size))
        t = np.nonzero(rsu[:, cols].T)[1].reshape(-1, size)   # each column's RSU rows
        k, i = np.nonzero(veh[:, cols].T)   # its (column, vehicle) pairs, ascending
        t, cols = t[k], cols[k]
        value, chosen = _oracle_batch(cfg.enc[t, i[:, None]], cfg.delta[i[:, None], t])
        gap = _gap(True, np.column_stack((value, chosen)),
                   np.column_stack((gain[i, cols], pr[i[:, None], t, cols[:, None]])))
        oracle_gap[:, cols, i] = gap.max(axis=2)
    if unit:   # each fee goes from a member vehicle to a member RSU: it cancels from their sum
        both = np.where(held[:, None], np.stack((payoff[:, :C], tables[2][-1][:, :C]), 1), 0.0)
        fee_gap = np.maximum(balance_gap, _gap(True, *_fold(np.add, 0.0, True, both)))
        fee_gap[1] = np.maximum(fee_gap[1], abs(both).max(axis=(0, 1)))   # the terms it sums

    identities = (
        ("scheduled-share total matches 1 - P(all idle)", share_gap),
        ("relay-choice probabilities total P(any encounter)", row_gap.max(axis=1)),
        ("fee and rate-gain match relay-probability sums", mean_gap.max(axis=1)),
        ("vehicle payments equal RSU revenues", balance_gap),
        ("grouped sums match brute-force enumeration", oracle_gap.max(axis=2)),
        ("uniform-weight closed forms match general formulas", simple_gap.max(axis=1)),
        ("fees cancel out of every coalition's sum payoff", fee_gap if unit else None),
    )
    results: list[CheckResult] = []
    for name, gap in identities:
        if gap is None:
            results.append(CheckResult(name, None, "skipped: needs unit payment/revenue weights"))
            continue
        c = int(gap[0].argmax())   # the first NaN, if any
        worst = float(gap[0, c])
        where = "" if worst <= 0.0 else f" (coalition {sorted(coalitions[c])})"
        passed = bool((gap[0] <= ABS_TOL * np.maximum(1.0, gap[1])).all() and gap[1].max() < np.inf)
        results.append(CheckResult(name, passed, f"max residual {worst:.3e}{where}"))

    owner = np.array([[col[cs[lab]] for lab in row]   # _blocks_of orders blocks by label
                      for cs, row in zip(partitions, labels.tolist())])
    players = np.arange(n)
    vec = payoff[players, owner]   # row p: every player's payoff under partitions[p]
    alone = payoff[players, [col[frozenset((m,))] for m in range(1, n + 1)]]
    rsu_only = ~_in_vehicle_block(labels, K)
    bad = rsu_only & (vec != 0.0)
    k = int(bad.argmax())   # row-major: the first structure, then its lowest-id player
    where = f" (coalition {sorted(columns[owner.flat[k]])})" if bad.flat[k] else ""
    results.append(CheckResult("RSU-only coalitions earn exactly zero", not where,
                               "checked over enumerated structures" + where))
    bad = (np.where(rsu_only, alone, vec) != vec).any(axis=1)   # RSU-only blocks split up
    p = int(bad.argmax())
    where = f" (structure {format_structure(partitions[p])})" if bad[p] else ""
    results.append(CheckResult("normalization preserves every payoff exactly", not where,
                               "checked over enumerated structures" + where))

    name = "share-ratio profitability agrees with payoff comparison"
    if (cfg.alpha < 0.0).any():
        results.append(CheckResult(name, None, "skipped: needs nonnegative throughput weights"))
        return results
    alone = alone[:K]
    direct = payoff[:K] >= (alone - ABS_TOL * np.maximum(1.0, np.abs(alone)))[:, None]
    where = ""
    vehicle_only = np.flatnonzero(member[:K].any(axis=0) & ~member[K:].any(axis=0)).tolist()
    for c in sorted(vehicle_only, key=lambda c: sorted(columns[c])):
        verdict = vehicle_coalition_profitability(columns[c], cfg)
        if any(verdict[i] != direct[i - 1, c] for i in verdict):
            where = f" (coalition {sorted(columns[c])})"
            break
    results.append(CheckResult(name, not where, "checked over vehicle-only coalitions" + where))
    return results
