"""Closed-form per-player quantities of coalitions, all from one coalition table.

Scheduling rule: in each slot, the active coalition vehicle with the smallest
id transmits and the other members stay silent. A scheduled vehicle picks one
relay uniformly at random among the coalition RSUs that encounter it.

Throughput carries a collision discount (all vehicles outside the coalition
must be inactive for the slot to succeed); payments, revenues and costs are
charged per scheduled transmission whether or not it collides. All functions
are pure and side-effect free.

_table evaluates a batch of coalitions from membership rows and each vehicle's
relay probabilities, all broadcast over the batch. These come from _brackets
over all 2^M RSU subsets (the core sweep) or from _relay_probs over only the
subsets that given coalitions need (polynomial in M); both add a subset's RSUs
in ascending order, so they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# RSUs whose encounter sets one block of oracle_relay_mean enumerates at once
_ORACLE_BLOCK_BITS = 12
# Low RSUs whose subsets share one block of Poisson-binomial coefficients in _brackets
_COEF_BITS = 10


def _extend(coef: np.ndarray, q: float) -> np.ndarray:
    """Poisson-binomial coefficients (last axis: P(B = b)) after one more RSU,
    encountered with probability q: the recursion of Hong (2013), every row at once."""
    out = coef * (1.0 - q)
    out[..., 1:] += coef[..., :-1] * q
    return out


def _bracket(coef: np.ndarray) -> np.ndarray:
    """E[1/(B+1)] from the coefficients on the last axis, summed in ascending b."""
    acc = np.zeros(coef.shape[:-1])
    for b in range(coef.shape[-1]):
        acc += coef[..., b] / (b + 1.0)
    return acc


def _brackets(q: list) -> np.ndarray:
    """E[1/(B+1)] for the number B of RSUs in R that meet one vehicle, for every
    RSU subset R (bit t: encounter probability q[t]). The coefficients of the
    low RSUs' subsets double one RSU at a time, and each block sharing its high
    RSUs adds those after them: every subset adds its RSUs in ascending order."""
    M = len(q)
    low = min(M, _COEF_BITS)
    coef = np.eye(1, M + 1)   # no RSU: P(B = 0) = 1
    for t in range(low):   # rows R | 1 << t follow rows R
        coef = np.concatenate([coef, _extend(coef, q[t])])
    h = np.empty(1 << M)
    for high in range(1 << (M - low)):
        rows = coef
        for t in range(low, M):
            if high >> (t - low) & 1:
                rows = _extend(rows, q[t])
        h[high << low:(high + 1) << low] = _bracket(rows)
    return h


def _relay_probs(q: np.ndarray, rsus: np.ndarray) -> np.ndarray:
    """(M, P) probabilities q[t, c] E[1/(B+1)] that RSU t relays column c's vehicle,
    where B counts the RSUs of the column's set R_c - {t} (rsus: (M, P) bool) that
    meet it, each with probability q[u, c]; 0.0 off R_c. One coefficient row per
    (t, c) with t in R_c adds the RSUs of its own subset in ascending order, as
    _brackets does, so the two agree exactly; O(M^2) per row."""
    t, c = np.nonzero(rsus)
    coef = np.eye(1, q.shape[0] + 1).repeat(t.size, axis=0)   # P(B = 0) = 1
    for k, u in enumerate(np.flatnonzero(rsus.any(axis=1))):
        # a row whose subset lacks u extends by probability 0.0, which keeps every bit,
        # and after k + 1 RSUs every coefficient past b = k + 1 is still exactly 0.0
        qu = np.where(rsus[u, c] & (t != u), q[u, c], 0.0)[:, None]
        coef[:, :k + 2] = _extend(coef[:, :k + 2], qu)
    out = np.zeros(rsus.shape)
    out[t, c] = q[t, c] * _bracket(coef)
    return out


def relay_choice_probs(q) -> list[float]:
    """Probability that each RSU ends up as the relay, given encounter probabilities q.

    RSU j wins the uniform pick against the B other encountered RSUs, so
    P(j chosen) = q_j E[1/(B+1)]: q_j times the integral over [0, 1] of the
    probability-generating function of the Poisson-binomial count B, whose
    coefficients follow from the O(m^2) recursion of Hong (2013). O(m^3) in all.
    """
    q = [float(x) for x in q]
    bad = [x for x in q if not 0.0 <= x <= 1.0]
    if bad:
        raise ValueError(f"encounter probabilities outside [0, 1]: {bad}")
    return _relay_probs(np.reshape(q, (-1, 1)), np.ones((len(q), 1), dtype=bool))[:, 0].tolist()


def oracle_relay_mean(S, i: int, weights, cfg: GameConfig):
    """Brute-force counterpart of the relay probabilities above, for validation.

    Enumerates all 2^(#RSUs) encounter sets directly and, inside each set,
    averages over the uniform relay choices. Returns the expected weight and
    the per-RSU probability of being the chosen relay. Kept deliberately
    independent of relay_choice_probs and player_payoffs: the one-pair call of
    _oracle_batch.
    """
    if i not in cfg.vehicles or i not in S:
        raise ValueError(f"player {i} is not a vehicle member of coalition {sorted(S)}")
    _, rsus = split_members(S, cfg.K)
    if len(rsus) > _ORACLE_MAX_RSUS:
        raise ValueError(f"enumeration bound exceeded: {len(rsus)} RSUs > {_ORACLE_MAX_RSUS}")
    q = np.array([[float(cfg.enc[cfg.rrow(j), cfg.vrow(i)]) for j in rsus]])
    value, chosen = _oracle_batch(q, np.array([[float(weights[j]) for j in rsus]]))
    return float(value[0]), dict(zip(rsus, chosen[0].tolist()))


@np.errstate(over="ignore", invalid="ignore")   # check reports a non-finite residual
def _oracle_batch(q: np.ndarray, w: np.ndarray):
    """oracle_relay_mean of P (vehicle, coalition) pairs of n RSUs each at once, from
    their encounter probabilities q and weights w (both (P, n)): values (P,) and
    relay probabilities (P, n). Sets come in ascending mask order, at most
    2^_ORACLE_BLOCK_BITS (pair, set) cells at a time; every product and sum runs
    in ascending RSU and mask order (accumulate, never a pairwise sum).
    """
    P, n = q.shape
    # column 0 is a slot that no set holds, so each accumulation starts from 1.0 or 0.0
    q = np.concatenate((np.zeros((P, 1)), q), axis=1)[..., None]
    w = np.concatenate((np.zeros((P, 1)), w), axis=1)[..., None]
    idle = 1.0 - q
    flags = np.array([0] + [1 << k for k in range(n)]).reshape(n + 1, 1)
    block = 1 << min(n, _ORACLE_BLOCK_BITS)
    pairs = 1 << max(_ORACLE_BLOCK_BITS - n, 0)
    value, chosen = np.zeros(P), np.zeros((P, n + 1))
    for start in range(0, 1 << n, block):
        bit = np.arange(start, start + block) & flags != 0
        size = np.maximum(bit.sum(axis=0), 1)   # the empty set adds prob * 0.0 / 1
        for part in (slice(first, first + pairs) for first in range(0, P, pairs)):
            prob = np.multiply.accumulate(np.where(bit, q[part], idle[part]), axis=1)[:, -1]
            wsum = np.add.accumulate(np.where(bit, w[part], 0.0), axis=1)[:, -1]
            terms = prob * wsum / size
            terms[:, 0] += value[part]   # the carry from the masks before this block
            value[part] = np.add.accumulate(terms, axis=1)[:, -1]
            terms = np.where(bit, (prob / size)[:, None], 0.0)
            terms[..., 0] += chosen[part]
            chosen[part] = np.add.accumulate(terms, axis=2)[..., -1]
    return value, chosen[:, 1:]


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


@np.errstate(over="ignore", invalid="ignore")   # the finiteness check names the overflow
def _table(cfg: GameConfig, veh: np.ndarray, rsu: np.ndarray, pr: np.ndarray):
    """The closed forms of a batch of coalitions, from membership rows veh (K, ...)
    and rsu (M, ...), both bool, and pr (K, M, ...), the probability that RSU t
    relays vehicle i given the coalition's RSUs (0.0 for t outside them). Each has
    as many trailing axes as the batch, broadcasting to its shape, as does every
    row returned: (share, rate_gain, fee) per vehicle and (benefit, charge, payoff)
    per player (throughput and payment for a vehicle, revenue and cost for an RSU).
    Entries of non-members mean nothing; a member's payoff that is not finite
    raises ValueError. Sums and products run over players in ascending id, a term
    off the coalition being a factor 1.0 or an added 0.0 (three vehicle masks and
    pr), so each entry is one fixed sequence of float operations.
    """
    K, M = cfg.K, cfg.M
    shape = np.broadcast_shapes(veh.shape[1:], rsu.shape[1:], pr.shape[2:])
    ax = (..., *[None] * len(shape))   # a parameter per player, against the batch axes
    idle = (1.0 - cfg.p)[ax]   # a member defers to lower-id members; an outsider stays idle
    defer, out, share = np.where(veh, idle, 1.0), np.where(veh, 1.0, idle), cfg.p[ax] * veh
    for v in range(K - 1):   # P(i is the vehicle scheduled), 0.0 off the coalition
        share[v + 1:] *= defer[v]
    delta, price, fwd = cfg.delta.T[ax], cfg.price[ax], cfg.cost_fwd[ax]
    gain = fee = np.zeros((K, *pr.shape[2:]))
    for t in range(M):   # every accumulator starts at +0.0, so adding 0.0 keeps its bits
        gain, fee = gain + pr[:, t] * delta[t], fee + pr[:, t] * price[t]
    benefit, charge = np.zeros((K + M, *shape)), np.zeros((K + M, *shape))
    benefit[:K], charge[:K] = share * (1.0 + gain), share * fee
    for v in range(K):
        benefit[:K] *= out[v]
    rcv = (cfg.enc * cfg.cost_rcv)[ax]
    for i in range(K):
        benefit[K:] += share[i] * pr[i] * price[:, i]
        charge[K:] += share[i] * (fwd[:, i] * pr[i] + rcv[:, i])
    w_benefit, w_charge = np.concatenate([cfg.alpha, cfg.gamma]), np.concatenate([cfg.beta, cfg.mu])
    payoff = w_benefit[ax] * benefit - w_charge[ax] * charge
    for k, held in enumerate([] if np.isfinite(payoff).all() else [*veh, *rsu]):
        if (held & ~np.isfinite(payoff[k])).any():
            raise ValueError(f"payoff of player {k + 1} in its coalition is not finite")
    return share, gain, fee, benefit, charge, payoff


def _tables(coalitions, cfg: GameConfig, *variants):
    """(member, pr, tables): players x coalitions membership, the (K, M, C) relay
    probabilities and the _table of cfg and of each variant, which must share
    cfg.enc (relay probabilities depend on nothing else). Each vehicle's come from
    _relay_probs over only the columns that hold it: polynomial in the RSU count."""
    K, n = cfg.K, cfg.n_players
    member = np.zeros((n, len(coalitions)), dtype=bool)
    for c, S in enumerate(coalitions):
        outside = sorted(m for m in S if m not in range(1, n + 1))
        if outside or not S:
            raise ValueError(f"players {outside} out of range 1..{n}" if S else "empty coalition")
        member[[m - 1 for m in S], c] = True
    i, c = np.nonzero(member[:K])   # every (vehicle, coalition holding it) pair
    pr = np.zeros((K, cfg.M, len(coalitions)))
    pr[i, :, c] = _relay_probs(cfg.enc[:, i], member[K:, c]).T
    return member, pr, [_table(c, member[:K], member[K:], pr) for c in (cfg, *variants)]


def _reports(coalitions, cfg: GameConfig) -> list[PayoffReport]:
    """The report of each coalition, from one table over all of them."""
    K, coalitions = cfg.K, [frozenset(S) for S in coalitions]
    _, pr, (table,) = _tables(coalitions, cfg)
    share, gain, fee, benefit, charge, payoff = (x.tolist() for x in table)
    reports = []
    for c, S in enumerate(coalitions):
        vehicles, rsus = split_members(S, K)
        relay = pr[:, :, c][np.ix_([i - 1 for i in vehicles], [j - K - 1 for j in rsus])]

        def col(rows, players):
            return {m: rows[m - 1][c] for m in players}

        u_veh, u_rsu = col(payoff, vehicles), col(payoff, rsus)
        total = 0.0
        for u in (*u_veh.values(), *u_rsu.values()):
            total += u
        reports.append(PayoffReport(
            members=S, share=col(share, vehicles), rate_gain=col(gain, vehicles),
            fee=col(fee, vehicles),
            relay_prob={j: dict(zip(vehicles, row)) for j, row in zip(rsus, relay.T.tolist())},
            throughput=col(benefit, vehicles), payment=col(charge, vehicles),
            revenue=col(benefit, rsus), cost=col(charge, rsus),
            vehicle_payoff=u_veh, rsu_payoff=u_rsu, total_payoff=total))
    return reports


def player_payoffs(S, cfg: GameConfig) -> PayoffReport:
    """Full closed-form report for one coalition of players 1..n (ValueError
    when it is empty or holds any other player).

    Vehicle payoff: alpha * throughput - beta * payment.
    RSU payoff: gamma * revenue - mu * cost.
    """
    return _reports([S], cfg)[0]
