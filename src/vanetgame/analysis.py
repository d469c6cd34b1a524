"""Structure-level payoffs, profitability, and core stability analysis."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .analytic import (ABS_TOL, PayoffReport, _assemble, _relay_terms, oracle_relay_mean,
                       player_payoffs)
from .model import (Coalition, GameConfig, check_structure, iter_partitions,
                    normalize_structure, split_members)

__all__ = [
    "structure_payoffs",
    "structure_reports",
    "vehicle_coalition_profitability",
    "pricing_cancellation_check",
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
# run_identity_checks covers every coalition of this many partitions of all players
_CHECK_STRUCTURES = 64


def structure_reports(cs, cfg: GameConfig) -> list[PayoffReport]:
    """Per-coalition payoff reports for a full structure."""
    errors = check_structure(cs, cfg.n_players)
    if errors:
        raise ValueError("invalid structure: " + "; ".join(errors))
    return [player_payoffs(block, cfg) for block in cs]


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
    out = {}
    for member in vehicles:
        ratio = 1.0
        for v in vehicles:
            if v > member:
                ratio *= 1.0 - cfg.p[cfg.vrow(v)]
        out[member] = ratio <= 1.0 + ABS_TOL
    return out


def pricing_cancellation_check(S, cfg: GameConfig):
    """Verify that fees cancel out of the coalition's summed payoff.

    Requires unit payment weight on every member vehicle and unit revenue
    weight on every member RSU (raises "weights not 1" otherwise: with other
    weights the cancellation does not hold and the check is vacuous). Returns
    (holds, residual) where the residual is the larger of the zero-price
    sum-payoff difference and the payment/revenue imbalance.
    """
    vehicles, rsus = split_members(S, cfg.K)
    off = [i for i in vehicles if cfg.beta[cfg.vrow(i)] != 1.0]
    off += [j for j in rsus if cfg.gamma[cfg.rrow(j)] != 1.0]
    if off:
        raise ValueError(f"weights not 1 for players {off}")
    residual = _pricing_residual(player_payoffs(S, cfg), player_payoffs(S, _without_fees(cfg)))
    return residual <= ABS_TOL, residual


def _without_fees(cfg: GameConfig) -> GameConfig:
    return dataclasses.replace(cfg, price=np.zeros_like(cfg.price))


def _pricing_residual(rep: PayoffReport, rep0: PayoffReport) -> float:
    """Larger of the sum-payoff change at zero prices (rep0) and the
    payment/revenue imbalance of one coalition's report."""
    paid = 0.0
    for u in rep.payment.values():
        paid += u
    earned = 0.0
    for u in rep.revenue.values():
        earned += u
    return max(abs(rep.total_payoff - rep0.total_payoff), abs(paid - earned))


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


def _grand_report(cfg: GameConfig) -> PayoffReport:
    return player_payoffs(frozenset(range(1, cfg.n_players + 1)), cfg)


def _weight_witness(cfg: GameConfig) -> int | None:
    for i in cfg.vehicles:
        if not (cfg.alpha[cfg.vrow(i)] > 0.0 and cfg.beta[cfg.vrow(i)] > 0.0):
            return i
    for j in cfg.rsus:
        if not (cfg.gamma[cfg.rrow(j)] > 0.0 and cfg.mu[cfg.rrow(j)] > 0.0):
            return j
    return None


def _gain_violator(vehicles, rsus, rep: PayoffReport, cfg: GameConfig) -> int | None:
    """First member (vehicles, then RSUs) without a strict gain inside the coalition."""
    for i in vehicles:
        vi = cfg.vrow(i)
        if not (cfg.alpha[vi] * rep.throughput[i] > cfg.beta[vi] * rep.payment[i]):
            return i
    for j in rsus:
        rj = cfg.rrow(j)
        if not (cfg.gamma[rj] * rep.revenue[j] > cfg.mu[rj] * rep.cost[j]):
            return j
    return None


def _sweep(cfg: GameConfig, grand: PayoffReport, x):
    """The one pass over coalitions behind every core analysis.

    Visits the non-empty coalitions in bitmask order. RSU ids are the high
    bits, so each RSU set's 2^K vehicle subsets come one after another: the K
    vehicles' relay terms are computed once per RSU set and every proper
    coalition's report is assembled from them once, keeping only the current
    report (the grand coalition's report is passed in). Returns
    (gain witness, preference witness, blocker): the first (player, coalition)
    violating condition 2 and condition 3 of core_sufficient_conditions among
    the proper coalitions, and the lexicographically smallest sorted member
    tuple of a coalition whose every member earns strictly more than x.
    """
    K, n = cfg.K, cfg.n_players
    bar = [float(v) for v in x]
    gain_witness = preference_witness = blocker = None
    for rsu_mask in range(1 << cfg.M):
        rsus = tuple(j for b, j in enumerate(cfg.rsus) if rsu_mask >> b & 1)
        terms = [_relay_terms(cfg, i, rsus) for i in cfg.vehicles]
        for vehicle_mask in range(0 if rsus else 1, 1 << K):   # skips the empty coalition
            vehicles = tuple(i for i in cfg.vehicles if vehicle_mask >> (i - 1) & 1)
            members = vehicles + rsus   # ascending
            if len(members) == n:
                rep = grand
            else:
                S = frozenset(members)
                rep = _assemble(S, vehicles, rsus, [terms[i - 1] for i in vehicles], cfg)
                if vehicles and gain_witness is None:
                    m = _gain_violator(vehicles, rsus, rep, cfg)
                    if m is not None:
                        gain_witness = (m, S)
                if preference_witness is None:
                    for m in members:
                        if not (grand.payoff_of(m) > rep.payoff_of(m)):
                            preference_witness = (m, S)
                            break
            if all(rep.payoff_of(m) > bar[m - 1] for m in members):
                if blocker is None or members < blocker:
                    blocker = members
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
    _, _, blocker = _sweep(cfg, _grand_report(cfg), x)
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
    grand = _grand_report(cfg)
    vec = _payoff_vector([grand], cfg.n_players)
    gain_witness, preference_witness, blocker = _sweep(cfg, grand, vec)
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


def run_identity_checks(cfg: GameConfig) -> list[CheckResult]:
    """Exercise the exact identities tying the closed-form quantities together.

    Runs over every coalition of the first _CHECK_STRUCTURES partitions of all
    players in canonical order (every partition when there are at most that
    many) and reports one result per identity. Used by the CLI `check`
    subcommand.
    """
    n = cfg.n_players
    partitions = list(itertools.islice(iter_partitions(n), _CHECK_STRUCTURES))
    normalized = [normalize_structure(cs, cfg.K) for cs in partitions]
    coalitions = sorted({block for cs in partitions for block in cs}, key=sorted)
    uni = _uniformized(cfg)
    evaluated = {*coalitions, *(block for cs in normalized for block in cs),
                 *(frozenset((i,)) for i in cfg.vehicles)}
    reports = {S: player_payoffs(S, cfg) for S in evaluated}
    uni_reports = {S: player_payoffs(S, uni) for S in coalitions}

    results: list[CheckResult] = []

    def run(name, fn):
        worst = 0.0
        where = ""
        for S in coalitions:
            r = fn(S, reports[S])
            if r is None:
                continue
            if r > worst:
                worst, where = r, f" (coalition {sorted(S)})"
        results.append(CheckResult(name, worst <= ABS_TOL,
                                   f"max residual {worst:.3e}{where}"))

    def share_sum(S, rep):
        vehicles, _ = split_members(S, cfg.K)
        if not vehicles:
            return None
        total = sum(rep.share[i] for i in vehicles)
        miss = 1.0
        for i in vehicles:
            miss *= 1.0 - cfg.p[cfg.vrow(i)]
        return abs(total - (1.0 - miss))

    def relay_row_sum(S, rep):
        vehicles, rsus = split_members(S, cfg.K)
        if not vehicles or not rsus:
            return None
        worst = 0.0
        for i in vehicles:
            total = sum(rep.relay_prob[j][i] for j in rsus)
            none = 1.0
            for j in rsus:
                none *= 1.0 - cfg.enc[cfg.rrow(j), cfg.vrow(i)]
            worst = max(worst, abs(total - (1.0 - none)))
        return worst

    def mean_vs_relay_prob(S, rep):
        vehicles, rsus = split_members(S, cfg.K)
        if not vehicles or not rsus:
            return None
        worst = 0.0
        for i in vehicles:
            fee_sum = sum(rep.relay_prob[j][i] * cfg.price[cfg.rrow(j), cfg.vrow(i)]
                          for j in rsus)
            gain_sum = sum(rep.relay_prob[j][i] * cfg.delta[cfg.vrow(i), cfg.rrow(j)]
                           for j in rsus)
            worst = max(worst, abs(rep.fee[i] - fee_sum), abs(rep.rate_gain[i] - gain_sum))
        return worst

    def payment_balance(S, rep):
        paid = sum(rep.payment[i] for i in sorted(rep.payment))
        earned = sum(rep.revenue[j] for j in sorted(rep.revenue))
        return abs(paid - earned)

    def oracle_agreement(S, rep):
        vehicles, rsus = split_members(S, cfg.K)
        if not vehicles or not rsus or len(rsus) > 12:
            return None
        worst = 0.0
        for i in vehicles:
            weights = {j: float(cfg.delta[cfg.vrow(i), cfg.rrow(j)]) for j in rsus}
            value, chosen = oracle_relay_mean(S, i, weights, cfg)
            worst = max(worst, abs(value - rep.rate_gain[i]))
            for j in rsus:
                worst = max(worst, abs(chosen[j] - rep.relay_prob[j][i]))
        return worst

    def simplified_forms(S, _):
        vehicles, rsus = split_members(S, cfg.K)
        if not vehicles:
            return None
        rep = uni_reports[S]
        worst = 0.0
        for i in vehicles:
            reach = 1.0
            for j in rsus:
                reach *= 1.0 - uni.enc[uni.rrow(j), uni.vrow(i)]
            reach = 1.0 - reach
            d_i = float(uni.delta[uni.vrow(i), 0]) if rsus else 0.0
            xi_i = float(uni.price[0, uni.vrow(i)]) if rsus else 0.0
            worst = max(worst,
                        abs(rep.rate_gain[i] - d_i * reach),
                        abs(rep.fee[i] - xi_i * reach))
        return worst

    run("scheduled-share total matches 1 - P(all idle)", share_sum)
    run("relay-choice probabilities total P(any encounter)", relay_row_sum)
    run("fee and rate-gain match relay-probability sums", mean_vs_relay_prob)
    run("vehicle payments equal RSU revenues", payment_balance)
    run("grouped sums match brute-force enumeration", oracle_agreement)
    run("uniform-weight closed forms match general formulas", simplified_forms)

    if (cfg.beta == 1.0).all() and (cfg.gamma == 1.0).all():
        no_fees = _without_fees(cfg)
        worst = 0.0
        for S in coalitions:
            worst = max(worst, _pricing_residual(reports[S], player_payoffs(S, no_fees)))
        results.append(CheckResult("fees cancel out of every coalition's sum payoff",
                                   worst <= ABS_TOL, f"max residual {worst:.3e}"))
    else:
        results.append(CheckResult("fees cancel out of every coalition's sum payoff",
                                   None, "skipped: needs unit payment/revenue weights"))

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
    for S in coalitions:
        vehicles, rsus = split_members(S, cfg.K)
        if rsus or not vehicles:
            continue
        verdict = vehicle_coalition_profitability(S, cfg)
        rep = reports[S]
        for i in vehicles:
            alone = reports[frozenset((i,))].vehicle_payoff[i]
            direct = rep.vehicle_payoff[i] >= alone - ABS_TOL * max(1.0, abs(alone))
            profit_ok &= verdict[i] == direct
    results.append(CheckResult(name, profit_ok, "checked over vehicle-only coalitions"))
    return results
