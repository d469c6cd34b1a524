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
over all 2^M RSU subsets (the core sweep, which takes its RSU rows from one
_rsu_product per block wherever they compare as _table's) or from _relay_probs over
only the subsets that given coalitions need (polynomial in M); both add a subset's
RSUs in ascending order, so they agree exactly. Each zero and one on this path is
of the input's type, so float64 parameters keep their bits and object arrays
of fractions.Fraction run exactly through the same lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coalition, GameConfig, split_members

__all__ = [
    "ABS_TOL",
    "PayoffReport",
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
    out = coef * (1 - q)
    out[..., 1:] += coef[..., :-1] * q
    return out


def _bracket(coef: np.ndarray) -> np.ndarray:
    """E[1/(B+1)] from the coefficients on the last axis, summed in ascending b."""
    return sum(coef[..., b] / (b + 1) for b in range(coef.shape[-1]))


def _brackets(q: np.ndarray) -> np.ndarray:
    """E[1/(B+1)] for the number B of RSUs in R that meet a vehicle, for every RSU subset
    R (bit t: encounter probability q[..., t]) and each row of q (..., M): (..., 2^M). The
    low RSUs' coefficients, from P(B = 0) = 1 of q's type, double one RSU at a time, and each
    block sharing its high RSUs adds those after them: a subset adds its RSUs in ascending order."""
    M = q.shape[-1]
    low = min(M, _COEF_BITS)
    coef = np.eye(1, M + 1, dtype=q.dtype) * q.sum(-1, keepdims=True)[..., None] ** 0
    for t in range(low):   # rows R | 1 << t follow rows R
        coef = np.concatenate([coef, _extend(coef, q[..., t, None, None])], axis=-2)
    h = []
    for high in range(1 << (M - low)):
        rows = coef
        for t in range(low, M):
            if high >> (t - low) & 1:
                rows = _extend(rows, q[..., t, None, None])
        h.append(_bracket(rows))
    return np.concatenate(h, axis=-1)


def _relay_probs(q: np.ndarray, rsus: np.ndarray) -> np.ndarray:
    """(M, P) probabilities q[t, c] E[1/(B+1)] that RSU t relays column c's vehicle,
    where B counts the RSUs of the column's set R_c - {t} (rsus: (M, P) bool) that
    meet it, each with probability q[u, c]; 0 off R_c. One coefficient row per
    (t, c) with t in R_c adds the RSUs of its own subset in ascending order, as
    _brackets does, so the two agree exactly; O(M^2) per row."""
    t, c = np.nonzero(rsus)
    coef = np.eye(1, len(q) + 1, dtype=q.dtype).repeat(t.size, 0) * q.sum() ** 0   # P(B = 0) = 1
    for k, u in enumerate(np.flatnonzero(rsus.any(axis=1))):
        # a row whose subset lacks u extends by probability 0, which keeps every bit,
        # and after k + 1 RSUs every coefficient past b = k + 1 is still exactly 0
        qu = (q[u, c] * (rsus[u, c] & (t != u)))[:, None]
        coef[:, :k + 2] = _extend(coef[:, :k + 2], qu)
    out = np.zeros_like(q)
    out[t, c] = q[t, c] * _bracket(coef)
    return out


def oracle_relay_mean(S, i: int, weights, cfg: GameConfig):
    """Brute-force counterpart of the relay probabilities above, for validation.

    Enumerates all 2^(#RSUs) encounter sets directly and, inside each set,
    averages over the uniform relay choices. Returns the expected weight and
    the per-RSU probability of being the chosen relay. Kept deliberately
    independent of _relay_probs and player_payoffs: the one-pair call of
    _oracle_batch.
    """
    if i not in cfg.vehicles or i not in S:
        raise ValueError(f"player {i} is not a vehicle member of coalition {sorted(S)}")
    _, rsus = split_members(S, cfg.K)
    if len(rsus) > _ORACLE_MAX_RSUS:
        raise ValueError(f"enumeration bound exceeded: {len(rsus)} RSUs > {_ORACLE_MAX_RSUS}")
    q = np.array([[float(cfg.enc[j - cfg.K - 1, i - 1]) for j in rsus]])
    value, chosen = _oracle_batch(q, np.array([[float(weights[j]) for j in rsus]]))
    return float(value[0]), dict(zip(rsus, chosen[0].tolist()))


@np.errstate(over="ignore", invalid="ignore")   # check reports a non-finite residual
def _oracle_batch(q: np.ndarray, w: np.ndarray):
    """oracle_relay_mean of P (vehicle, coalition) pairs of n RSUs each at once, from
    their encounter probabilities q and weights w (both (P, n)): values (P,) and relay
    probabilities (P, n), at most 2^_ORACLE_BLOCK_BITS (pair, set) cells at a time. Set
    probabilities and weight sums double one low RSU at a time, and a block of sets takes
    its high RSUs after them: products and sums in ascending RSU order. Sets add up in
    ascending mask order (accumulate, never a pairwise sum), carried across blocks."""
    P, n = q.shape
    low = min(n, _ORACLE_BLOCK_BITS)
    bits = np.arange(1 << low) >> np.arange(low)[:, None] & 1   # low RSU t in each set of a block
    holding = np.nonzero(bits)[1].reshape(low, (1 << low) >> 1).T   # column t: the sets holding t
    value, chosen, pairs = np.zeros(P), np.zeros((P, n)), 1 << (_ORACLE_BLOCK_BITS - low)
    for part in (slice(first, first + pairs) for first in range(0, P, pairs)):
        prob, wsum = np.ones((1, len(q[part]))), np.zeros((1, len(q[part])))   # (sets, pairs)
        for t in range(low):   # sets R | 1 << t follow sets R
            prob = np.concatenate((prob * (1.0 - q[part, t]), prob * q[part, t]))
            wsum = np.concatenate((wsum, wsum + w[part, t]))   # a sum from +0.0 is never -0.0
        for high in range(1 << (n - low)):
            held = [t for t in range(low, n) if high >> (t - low) & 1]
            block, total = prob, sum((w[part, t] for t in held), wsum)
            for t in range(low, n):
                block = block * (q[part, t] if t in held else 1.0 - q[part, t])
            count = np.maximum(bits.sum(axis=0)[:, None] + len(held), 1)   # the empty set adds 0.0
            value[part] = np.add.accumulate(np.vstack((value[part], block * total / count)))[-1]
            terms = np.vstack((chosen[None, part, :low], (block / count)[holding].swapaxes(1, 2)))
            chosen[part, :low] = np.add.accumulate(terms)[-1]
            for t in held:   # every set of the block holds RSU t
                chosen[part, t] = np.add.accumulate(np.vstack((chosen[part, t], block / count)))[-1]
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
        return (self.vehicle_payoff if player in self.vehicle_payoff else self.rsu_payoff)[player]


def _vehicle_rows(cfg: GameConfig, veh: np.ndarray, pr: np.ndarray):
    """_table's vehicle rows (share, rate_gain, fee, benefit, charge, payoff), each (K, ...)."""
    K, ax = cfg.K, (..., *[None] * (pr.ndim - 2))   # a parameter per player, against the batch
    idle = (1 - cfg.p)[ax]   # a member defers to lower-id members; an outsider stays idle
    defer, out, share = np.where(veh, idle, 1), np.where(veh, 1, idle), cfg.p[ax] * veh
    for v in range(K - 1):   # P(i is the vehicle scheduled), 0 off the coalition
        share[v + 1:] *= defer[v]
    delta, price = cfg.delta.T[ax], cfg.price[ax]
    gain = fee = np.zeros((K, *pr.shape[2:]), pr.dtype) * cfg.p[ax]   # a zero of p's type
    for t in range(cfg.M):   # a float accumulator starts at +0.0, so adding 0 keeps its bits
        gain, fee = gain + pr[:, t] * delta[t], fee + pr[:, t] * price[t]
    benefit, charge = share * (1 + gain), share * fee
    for v in range(K):
        benefit *= out[v]
    return share, gain, fee, benefit, charge, cfg.alpha[ax] * benefit - cfg.beta[ax] * charge


@np.errstate(over="ignore", invalid="ignore")   # the finiteness check names the overflow
def _table(cfg: GameConfig, veh: np.ndarray, rsu: np.ndarray, pr: np.ndarray):
    """The closed forms of a batch of coalitions, from membership rows veh (K, ...)
    and rsu (M, ...), both bool, and pr (K, M, ...), the probability that RSU t
    relays vehicle i given the coalition's RSUs (0 for t outside them). Each has
    as many trailing axes as the batch, broadcasting to its shape, as does every
    row returned: (share, rate_gain, fee) per vehicle and (benefit, charge, payoff)
    per player (throughput and payment for a vehicle, revenue and cost for an RSU).
    Entries of non-members mean nothing; a member's payoff that is not finite
    raises ValueError. Sums and products run over players in ascending id, a term
    off the coalition being a factor 1 or an added zero of the input's type (three
    vehicle masks and pr), so each entry is one fixed sequence of operations.
    """
    share, gain, fee, *vehicles = _vehicle_rows(cfg, veh, pr)
    ax = (..., *[None] * (pr.ndim - 2))
    price, fwd, rcv = cfg.price[ax], cfg.cost_fwd[ax], (cfg.enc * cfg.cost_rcv)[ax]
    revenue = cost = np.zeros(pr.shape[1:], pr.dtype)   # the RSU half, over vehicles
    for i in range(cfg.K):
        revenue = revenue + share[i] * pr[i] * price[:, i]
        cost = cost + share[i] * (fwd[:, i] * pr[i] + rcv[:, i])
    rsus = revenue, cost, cfg.gamma[ax] * revenue - cfg.mu[ax] * cost
    *rows, payoff = map(np.concatenate, zip(vehicles, rsus))
    # a finite total means every entry is finite; else the rows name the first member that is not
    for k, held in enumerate([] if abs(payoff.sum()) < np.inf else [*veh, *rsu]):
        if (held & ~(abs(payoff[k]) < np.inf)).any():   # NaN compares False
            raise ValueError(f"payoff of player {k + 1} in its coalition is not finite")
    return share, gain, fee, *rows, payoff


def _rsu_product(cfg: GameConfig, share: np.ndarray, pr: np.ndarray):
    """_table's RSU payoffs (M, R, V) on a grid of RSU sets R by vehicle subsets V, from share
    (K, V) and pr (K, M, R), as one product u_t(V, R) = sum_i share_i(V) A_it(R); and (M, 1, 1)
    bounds on their distance from _table's in any order of the sums (README, "Core analysis")."""
    (K, M, R), ku, w = pr.shape, (cfg.K + 5) * 2.0 ** -53, 1 + abs(cfg.gamma) + abs(cfg.mu)
    mu, rcv = cfg.mu[:, None], cfg.enc * cfg.cost_rcv
    a, c = (cfg.gamma[:, None] * cfg.price - mu * cfg.cost_fwd).T, (mu * rcv).T   # A = a pr - c
    terms = (a[..., None] * pr - c[..., None]).reshape(K, -1)
    twice_t = 2 * w * ((cfg.enc * (cfg.price + cfg.cost_fwd + cfg.cost_rcv)) @ cfg.p)   # pr <= enc
    bound = 2 * ku / (1 - ku) * twice_t + (K + 1) * 2.0 ** -1072 * w * (1 + cfg.price.max(axis=1))
    return (terms.T @ share).reshape(M, R, share.shape[1]), bound[:, None, None]


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
    pr = np.zeros((K, cfg.M, len(coalitions)), cfg.enc.dtype)
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
        total = 0   # a loop, not sum(): Python 3.12+ compensates float sums, changing bits
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
