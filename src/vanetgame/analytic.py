"""Closed-form per-player quantities inside a single coalition.

Scheduling rule: in each slot, the active coalition vehicle with the smallest
id transmits and the other members stay silent. A scheduled vehicle picks one
relay uniformly at random among the coalition RSUs that encounter it.

Throughput carries a collision discount (all vehicles outside the coalition
must be inactive for the slot to succeed); payments, revenues and costs are
charged per scheduled transmission whether or not it collides. All functions
are pure and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Coalition, GameConfig, split_members

__all__ = [
    "ABS_TOL",
    "PayoffReport",
    "relay_choice_probs",
    "oracle_relay_mean",
    "player_payoffs",
]

# Absolute tolerance used for the exact identities among these quantities.
ABS_TOL = 1e-12

_ORACLE_MAX_RSUS = 20


def _require_vehicle_member(S, i: int, cfg: GameConfig) -> None:
    if not cfg.is_vehicle(i) or i not in S:
        raise ValueError(f"player {i} is not a vehicle member of coalition {sorted(S)}")


def _share(vehicles, i: int, cfg: GameConfig) -> float:
    share = float(cfg.p[cfg.vrow(i)])
    for v in vehicles:
        if v < i:
            share *= 1.0 - cfg.p[cfg.vrow(v)]
    return float(share)


def _member_encounters(S, i: int, cfg: GameConfig):
    """Coalition RSUs (sorted) and their encounter probabilities with vehicle i."""
    _, rsus = split_members(S, cfg.K)
    q = [float(cfg.enc[cfg.rrow(j), cfg.vrow(i)]) for j in rsus]
    return rsus, q


def _choice_prob(q: list, j: int) -> float:
    """P(RSU j chosen) = q_j * integral over [0, 1] of prod_{k != j} (1 - q_k + q_k t) dt."""
    others = q[:j] + q[j + 1:]
    coef = [1.0] + [0.0] * len(others)   # coef[b] = P(b of the others encountered)
    for deg, qk in enumerate(others, start=1):
        idle = 1.0 - qk
        for b in range(deg, 0, -1):
            coef[b] = coef[b] * idle + coef[b - 1] * qk
        coef[0] *= idle
    bracket = 0.0
    for b, c in enumerate(coef):
        bracket += c / (b + 1.0)
    return q[j] * bracket


def relay_choice_probs(q) -> list[float]:
    """Probability that each RSU ends up as the relay, given encounter probabilities q.

    RSU j wins the uniform pick against the B other encountered RSUs, so
    P(j chosen) = q_j E[1/(B+1)]: q_j times the integral over [0, 1] of the
    probability-generating function of the Poisson-binomial count B, whose
    coefficients follow from the O(m^2) recursion of Hong (2013). O(m^3) in all.
    """
    q = [float(x) for x in q]
    return [_choice_prob(q, j) for j in range(len(q))]


def _relay_terms(cfg: GameConfig, i: int, rsus: tuple):
    """(relay-choice vector, rate gain, fee, per-RSU (price, forwarding cost,
    expected receiving cost)) of vehicle i over the coalition's sorted RSUs."""
    vi = cfg.vrow(i)
    rows = [cfg.rrow(j) for j in rsus]
    probs = relay_choice_probs([cfg.enc[r, vi] for r in rows])
    gain = fee = 0.0
    for r, pr in zip(rows, probs):
        gain += pr * cfg.delta[vi, r]
        fee += pr * cfg.price[r, vi]
    charges = [(float(cfg.price[r, vi]), float(cfg.cost_fwd[r, vi]),
                float(cfg.enc[r, vi] * cfg.cost_rcv[r, vi])) for r in rows]
    return probs, float(gain), float(fee), charges


def oracle_relay_mean(S, i: int, weights, cfg: GameConfig):
    """Brute-force counterpart of the relay terms above, for validation.

    Enumerates all 2^(#RSUs) encounter sets directly and, inside each set,
    averages over the uniform relay choices. Returns the expected weight and
    the per-RSU probability of being the chosen relay. Kept deliberately
    independent of relay_choice_probs and player_payoffs.
    """
    _require_vehicle_member(S, i, cfg)
    rsus, q = _member_encounters(S, i, cfg)
    if len(rsus) > _ORACLE_MAX_RSUS:
        raise ValueError(f"enumeration bound exceeded: {len(rsus)} RSUs > {_ORACLE_MAX_RSUS}")
    w = [float(weights[j]) for j in rsus]
    n = len(rsus)
    value = 0.0
    chosen = {j: 0.0 for j in rsus}
    for mask in range(1 << n):
        prob = 1.0
        members = []
        for k in range(n):
            if mask >> k & 1:
                prob *= q[k]
                members.append(k)
            else:
                prob *= 1.0 - q[k]
        if not members:
            continue
        size = len(members)
        wsum = 0.0
        for k in members:
            wsum += w[k]
        value += prob * wsum / size
        for k in members:
            chosen[rsus[k]] += prob / size
    return value, chosen


@dataclass(frozen=True)
class PayoffReport:
    """Every per-player quantity for one coalition, keyed by player id.

    Vehicles: share (fraction of slots in which the vehicle is the one
    scheduled), rate_gain and fee (expected over its relay choice, per
    scheduled transmission), throughput = share * (1 + rate_gain) * P(every
    vehicle outside the coalition is inactive), payment = share * fee.
    RSUs: revenue and cost per slot; receiving cost accrues whenever the RSU
    encounters the scheduled vehicle, forwarding cost only when it is chosen.
    relay_prob maps RSU id -> {vehicle id -> probability of being its relay}.
    total_payoff is the sum of all member payoffs.
    """

    members: Coalition
    share: dict
    rate_gain: dict
    fee: dict
    relay_prob: dict
    throughput: dict
    payment: dict
    revenue: dict
    cost: dict
    vehicle_payoff: dict
    rsu_payoff: dict
    total_payoff: float

    def payoff_of(self, player: int) -> float:
        if player in self.vehicle_payoff:
            return self.vehicle_payoff[player]
        return self.rsu_payoff[player]


def player_payoffs(S, cfg: GameConfig) -> PayoffReport:
    """Full closed-form report for one coalition, in one pass over its vehicles.

    Vehicle payoff: alpha * throughput - beta * payment.
    RSU payoff: gamma * revenue - mu * cost.
    """
    S = frozenset(S)
    if not S:
        raise ValueError("empty coalition")
    vehicles, rsus = split_members(S, cfg.K)
    return _assemble(S, vehicles, rsus, [_relay_terms(cfg, i, rsus) for i in vehicles], cfg)


def _assemble(S: Coalition, vehicles, rsus: tuple, terms: list, cfg: GameConfig) -> PayoffReport:
    """The report of coalition S, given `_relay_terms` over `rsus` for each of its vehicles."""
    idle_outside = [float(1.0 - cfg.p[cfg.vrow(v)]) for v in cfg.vehicles if v not in vehicles]
    share, gain, fee, thr, pay, u_veh = {}, {}, {}, {}, {}, {}
    relay, rev, cst = {j: {} for j in rsus}, dict.fromkeys(rsus, 0.0), dict.fromkeys(rsus, 0.0)
    for i, term in zip(vehicles, terms):
        s = share[i] = _share(vehicles, i, cfg)
        probs, gain[i], fee[i], charges = term
        t = s * (1.0 + gain[i])
        for idle in idle_outside:
            t *= idle
        thr[i] = t
        pay[i] = s * fee[i]
        u_veh[i] = float(cfg.alpha[cfg.vrow(i)]) * t - float(cfg.beta[cfg.vrow(i)]) * pay[i]
        for j, pr, (price, fwd, rcv) in zip(rsus, probs, charges):
            relay[j][i] = pr
            rev[j] += s * pr * price
            cst[j] += s * (fwd * pr + rcv)
    u_rsu = {j: float(cfg.gamma[cfg.rrow(j)]) * rev[j] - float(cfg.mu[cfg.rrow(j)]) * cst[j]
             for j in rsus}
    total = 0.0
    for u in (*u_veh.values(), *u_rsu.values()):
        total += u
    return PayoffReport(
        members=S, share=share, rate_gain=gain, fee=fee, relay_prob=relay,
        throughput=thr, payment=pay, revenue=rev, cost=cst,
        vehicle_payoff=u_veh, rsu_payoff=u_rsu, total_payoff=total)
