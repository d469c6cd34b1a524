"""Structure-level payoffs, profitability, and core stability analysis."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .analytic import (ABS_TOL, PayoffReport, _brackets, _reports, _table, oracle_relay_mean,
                       player_payoffs)
from .model import (Coalition, GameConfig, check_structure, iter_partitions,
                    normalize_structure, split_members)

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
# Coalitions per block of the sweep's table (3 x (n + K) x 4096 floats: 2.4 MB at n = 20, K = 4)
_BLOCK_MASKS = 1 << 12
# run_identity_checks covers every coalition of this many partitions of all players
_CHECK_STRUCTURES = 64


def structure_reports(cs, cfg: GameConfig) -> list[PayoffReport]:
    """Per-coalition payoff reports for a full structure."""
    errors = check_structure(cs, cfg.n_players)
    if errors:
        raise ValueError("invalid structure: " + "; ".join(errors))
    return _reports(cs, cfg)


def _payoff_vector(reports, n_players: int) -> np.ndarray:
    out = np.zeros(n_players)
    for rep in reports:
        for i, u in rep.vehicle_payoff.items():
            out[i - 1] = u
        for j, u in rep.rsu_payoff.items():
            out[j - 1] = u
    return out


def structure_payoffs(cs, cfg: GameConfig) -> np.ndarray:
    """Payoff of every player under a coalition structure.

    Entry k holds the payoff of player k+1, computed inside that player's own
    coalition. Throughput already discounts for all outside vehicles, so the
    vector does not depend on how the outsiders are grouped among themselves.
    """
    return _payoff_vector(structure_reports(cs, cfg), cfg.n_players)


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
    negative = [i for i in vehicles if cfg.alpha[cfg.vrow(i)] < 0.0]
    if negative:
        raise ValueError(f"negative throughput weight for players {negative}")
    return {member: bool(_idle(cfg.p[cfg.vrow(v)] for v in vehicles if v > member)
                         <= 1.0 + ABS_TOL)
            for member in vehicles}


def _idle(rates) -> float:
    """Product of (1 - rate) over rates, from 1.0 in the order given."""
    out = 1.0
    for rate in rates:
        out *= 1.0 - rate
    return out


@dataclass(frozen=True)
class CoreConditions:
    """Outcome of the three-part sufficient check for an unblockable grand vector.

    Witnesses identify the first offending (player, coalition) found in the
    fixed enumeration order; None when a condition holds.
    """

    weights_positive: bool
    weight_witness: int | None
    gains_strict: bool
    gain_witness: tuple | None
    grand_preferred: bool
    preference_witness: tuple | None

    @property
    def all_hold(self) -> bool:
        return self.weights_positive and self.gains_strict and self.grand_preferred


def _require_enumerable(cfg: GameConfig) -> None:
    if cfg.n_players > _ENUM_MAX_PLAYERS:
        raise ValueError(f"enumeration bound exceeded: {cfg.n_players} players "
                         f"> {_ENUM_MAX_PLAYERS}")


def _grand_vector(cfg: GameConfig) -> np.ndarray:
    return structure_payoffs((frozenset(range(1, cfg.n_players + 1)),), cfg)


def _weight_witness(cfg: GameConfig) -> int | None:
    for i in cfg.vehicles:
        if not (cfg.alpha[cfg.vrow(i)] > 0.0 and cfg.beta[cfg.vrow(i)] > 0.0):
            return i
    for j in cfg.rsus:
        if not (cfg.gamma[cfg.rrow(j)] > 0.0 and cfg.mu[cfg.rrow(j)] > 0.0):
            return j
    return None


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


def _first_offence(offends: np.ndarray, masks: np.ndarray, n: int):
    """(first offending member, coalition) of the first mask with an offence."""
    hit = offends.any(axis=0)
    if not hit.any():
        return None
    k = int(hit.argmax())
    return (int(offends[:, k].argmax()) + 1,
            frozenset(m + 1 for m in range(n) if masks[k] >> m & 1))


def _sweep(cfg: GameConfig, grand: np.ndarray, x):
    """The one pass over coalitions behind every core analysis.

    Reads the payoffs of every coalition from the coalition table, in blocks of
    ascending masks. Bit k of a mask is player k + 1, so the RSU set is
    mask >> K, and relay probabilities are gathered from _brackets over all
    2^M RSU subsets. Returns (gain witness, preference witness, blocker): the
    first (player, coalition) violating condition 2 and condition 3 of
    core_sufficient_conditions among the proper coalitions, given the grand
    coalition's payoff vector, and the lexicographically smallest sorted
    member tuple of a coalition whose every member earns strictly more than x.
    """
    K, n = cfg.K, cfg.n_players
    grand, bar = grand[:, None], np.asarray(x, dtype=np.float64)[:, None]
    gain_witness = preference_witness = best = None
    q = cfg.enc.T.tolist()
    h = [_brackets(qi) for qi in q]
    size = min(1 << n, _BLOCK_MASKS)
    for base in range(0, 1 << n, size):
        masks = np.arange(base, base + size)
        member = np.array([masks >> k & 1 for k in range(n)], dtype=bool)
        rsu_set = masks >> K

        def relay(i, t):   # P(t relays i | coalition RSUs)
            return q[i][t] * h[i][rsu_set & ~(1 << t)]
        payoff = _table(cfg, member, relay)[-1]   # the rest is freed before the next block
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
    blocker = None if best is None else tuple(m + 1 for m in range(n) if best[1] >> m & 1)
    return gain_witness, preference_witness, blocker


def _conditions(cfg: GameConfig, gain_witness, preference_witness) -> CoreConditions:
    weight_witness = _weight_witness(cfg)
    return CoreConditions(
        weights_positive=weight_witness is None,
        weight_witness=weight_witness,
        gains_strict=gain_witness is None,
        gain_witness=gain_witness,
        grand_preferred=preference_witness is None,
        preference_witness=preference_witness,
    )


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
    in_core: bool
    blocking: Coalition | None


def _membership(x, blocker, cfg: GameConfig) -> CoreMembership:
    """Re-verify the blocker member by member before reporting it."""
    if blocker is None:
        return CoreMembership(True, None)
    rep = player_payoffs(frozenset(blocker), cfg)
    if not all(rep.payoff_of(m) > x[m - 1] for m in blocker):
        raise RuntimeError(f"internal invariant breach: blocker {list(blocker)} "
                           "does not dominate on re-evaluation")
    return CoreMembership(False, frozenset(blocker))


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
    _require_enumerable(cfg)
    _, _, blocker = _sweep(cfg, _grand_vector(cfg), x)
    return _membership(x, blocker, cfg)


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
    _require_enumerable(cfg)
    vec = _grand_vector(cfg)
    gain_witness, preference_witness, blocker = _sweep(cfg, vec, vec)
    conditions = _conditions(cfg, gain_witness, preference_witness)
    membership = _membership(vec, blocker, cfg)
    if conditions.all_hold and not membership.in_core:
        raise RuntimeError("internal invariant breach: sufficient conditions hold "
                           f"but the grand vector is blocked by {sorted(membership.blocking)}")
    return StabilityVerdict(conditions, vec, membership)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None   # None = skipped
    detail: str


def _uniformized(cfg: GameConfig) -> GameConfig:
    """Copy of cfg with per-vehicle-uniform rate gains and fees."""
    delta = np.repeat(cfg.delta[:, :1], cfg.M, axis=1) if cfg.M else cfg.delta
    price = np.repeat(cfg.price[:1, :], cfg.M, axis=0) if cfg.M else cfg.price
    return dataclasses.replace(cfg, delta=delta, price=price)


def _gap(pairs) -> float:
    """Largest |a - b| over the (a, b) pairs an identity equates; 0.0 for none."""
    return max(itertools.chain((0.0,), (abs(a - b) for a, b in pairs)))


def _balance(rep: PayoffReport) -> tuple:
    """(vehicle payments, RSU revenues) of one coalition, each summed in ascending id."""
    return (sum(rep.payment[i] for i in sorted(rep.payment)),
            sum(rep.revenue[j] for j in sorted(rep.revenue)))


def run_identity_checks(cfg: GameConfig) -> list[CheckResult]:
    """Exercise the exact identities tying the closed-form quantities together.

    Runs over every coalition of the first _CHECK_STRUCTURES partitions of all
    players in canonical order (every partition when there are at most that
    many) and reports one result per identity. A residual identity yields the
    pairs it equates per coalition; its result is the largest gap and the first
    coalition that reaches it. Used by the CLI `check` subcommand.
    """
    n = cfg.n_players
    partitions = list(itertools.islice(iter_partitions(n), _CHECK_STRUCTURES))
    normalized = [normalize_structure(cs, cfg.K) for cs in partitions]
    coalitions = sorted({block for cs in partitions for block in cs}, key=sorted)
    uni = _uniformized(cfg)
    evaluated = list({*coalitions, *(block for cs in normalized for block in cs),
                      *(frozenset((i,)) for i in cfg.vehicles)})
    reports = dict(zip(evaluated, _reports(evaluated, cfg)))
    uni_reports = dict(zip(coalitions, _reports(coalitions, uni)))

    def share_sum(S, rep, vehicles, rsus):
        if vehicles:
            yield (sum(rep.share[i] for i in vehicles),
                   1.0 - _idle(cfg.p[cfg.vrow(i)] for i in vehicles))

    def relay_row_sum(S, rep, vehicles, rsus):
        for i in vehicles if rsus else ():
            yield (sum(rep.relay_prob[j][i] for j in rsus),
                   1.0 - _idle(cfg.enc[cfg.rrow(j), cfg.vrow(i)] for j in rsus))

    def mean_vs_relay_prob(S, rep, vehicles, rsus):
        for i in vehicles if rsus else ():
            yield rep.fee[i], sum(rep.relay_prob[j][i] * cfg.price[cfg.rrow(j), cfg.vrow(i)]
                                  for j in rsus)
            yield rep.rate_gain[i], sum(rep.relay_prob[j][i] * cfg.delta[cfg.vrow(i), cfg.rrow(j)]
                                        for j in rsus)

    def payment_balance(S, rep, vehicles, rsus):
        yield _balance(rep)

    def oracle_agreement(S, rep, vehicles, rsus):
        for i in vehicles if rsus and len(rsus) <= 12 else ():
            weights = {j: float(cfg.delta[cfg.vrow(i), cfg.rrow(j)]) for j in rsus}
            value, chosen = oracle_relay_mean(S, i, weights, cfg)
            yield value, rep.rate_gain[i]
            for j in rsus:
                yield chosen[j], rep.relay_prob[j][i]

    def simplified_forms(S, _, vehicles, rsus):
        rep = uni_reports[S]
        for i in vehicles:
            reach = 1.0 - _idle(uni.enc[uni.rrow(j), uni.vrow(i)] for j in rsus)
            d_i = float(uni.delta[uni.vrow(i), 0]) if rsus else 0.0
            xi_i = float(uni.price[0, uni.vrow(i)]) if rsus else 0.0
            yield rep.rate_gain[i], d_i * reach
            yield rep.fee[i], xi_i * reach

    identities = (
        ("scheduled-share total matches 1 - P(all idle)", share_sum),
        ("relay-choice probabilities total P(any encounter)", relay_row_sum),
        ("fee and rate-gain match relay-probability sums", mean_vs_relay_prob),
        ("vehicle payments equal RSU revenues", payment_balance),
        ("grouped sums match brute-force enumeration", oracle_agreement),
        ("uniform-weight closed forms match general formulas", simplified_forms),
    )
    members = [(S, reports[S], *split_members(S, cfg.K)) for S in coalitions]
    results: list[CheckResult] = []
    for name, identity in identities:
        worst, where = 0.0, ""
        for S, rep, vehicles, rsus in members:
            gap = _gap(identity(S, rep, vehicles, rsus))
            if gap > worst:
                worst, where = gap, f" (coalition {sorted(S)})"
        results.append(CheckResult(name, bool(worst <= ABS_TOL),
                                   f"max residual {worst:.3e}{where}"))

    name = "fees cancel out of every coalition's sum payoff"
    if (cfg.beta == 1.0).all() and (cfg.gamma == 1.0).all():
        zero = _reports(coalitions, dataclasses.replace(cfg, price=np.zeros_like(cfg.price)))
        worst = _gap(pair for S, rep0 in zip(coalitions, zero)
                     for pair in ((reports[S].total_payoff, rep0.total_payoff),
                                  _balance(reports[S])))
        results.append(CheckResult(name, bool(worst <= ABS_TOL), f"max residual {worst:.3e}"))
    else:
        results.append(CheckResult(name, None, "skipped: needs unit payment/revenue weights"))

    rsu_only_ok = True
    norm_ok = True
    for cs, norm in zip(partitions, normalized):
        vec = _payoff_vector([reports[block] for block in cs], n)
        for block in cs:
            if all(m > cfg.K for m in block):
                rsu_only_ok &= all(vec[m - 1] == 0.0 for m in block)
        norm_ok &= (not check_structure(norm, n)
                    and bool((_payoff_vector([reports[block] for block in norm], n) == vec).all()))
    results.append(CheckResult("RSU-only coalitions earn exactly zero",
                               rsu_only_ok, "checked over enumerated structures"))
    results.append(CheckResult("normalization preserves every payoff exactly",
                               norm_ok, "checked over enumerated structures"))

    name = "share-ratio profitability agrees with payoff comparison"
    if (cfg.alpha < 0.0).any():
        results.append(CheckResult(name, None, "skipped: needs nonnegative throughput weights"))
        return results
    profit_ok = True
    for S, rep, vehicles, rsus in members:
        if rsus or not vehicles:
            continue
        verdict = vehicle_coalition_profitability(S, cfg)
        for i in vehicles:
            alone = reports[frozenset((i,))].vehicle_payoff[i]
            direct = rep.vehicle_payoff[i] >= alone - ABS_TOL * max(1.0, abs(alone))
            profit_ok &= verdict[i] == direct
    results.append(CheckResult(name, bool(profit_ok), "checked over vehicle-only coalitions"))
    return results
