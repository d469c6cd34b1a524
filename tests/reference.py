"""Readable references that the production paths are compared against.

The scalar closed forms for one coalition are the reference that the
coalition table in vanetgame.analytic is compared against with `==`. Each
quantity is built one player and one RSU at a time, in the order of the
table's sums and products, so the two agree bit for bit.

`oracle_relay_mean` is the brute-force relay oracle as a plain double loop
over the encounter sets, the reference for the numpy enumeration in
vanetgame.analytic.

`partitions` is a recursive list walker over set partitions, independent of
the numpy label rows that vanetgame.model generates them from.

`slot_counters` is a plain-Python slot loop, the reference for the bit-packed
kernel in vanetgame.slotsim: on the same uniforms their event counters agree
exactly.
"""

import numpy as np

from conftest import COUNTERS
from vanetgame.analytic import PayoffReport
from vanetgame.model import canonical_structure, split_members


def _share(vehicles, i, cfg):
    share = float(cfg.p[cfg.vrow(i)])
    for v in vehicles:
        if v < i:
            share *= 1.0 - cfg.p[cfg.vrow(v)]
    return float(share)


def _choice_prob(q, j):
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


def relay_choice_probs(q):
    """P(each RSU relays), given encounter probabilities q: O(m^2) per RSU (Hong 2013)."""
    q = [float(x) for x in q]
    return [_choice_prob(q, j) for j in range(len(q))]


def _relay_terms(cfg, i, rsus):
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


def player_payoffs(S, cfg):
    """The PayoffReport of coalition S, one vehicle at a time."""
    S = frozenset(S)
    vehicles, rsus = split_members(S, cfg.K)
    idle_outside = [float(1.0 - cfg.p[cfg.vrow(v)]) for v in cfg.vehicles if v not in vehicles]
    share, gain, fee, thr, pay, u_veh = {}, {}, {}, {}, {}, {}
    relay, rev, cst = {j: {} for j in rsus}, dict.fromkeys(rsus, 0.0), dict.fromkeys(rsus, 0.0)
    for i in vehicles:
        s = share[i] = _share(vehicles, i, cfg)
        probs, gain[i], fee[i], charges = _relay_terms(cfg, i, rsus)
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


def oracle_relay_mean(S, i, weights, cfg):
    """(expected weight, {RSU: P(chosen)}) of vehicle i's uniform relay pick,
    one encounter set at a time in ascending mask order."""
    _, rsus = split_members(S, cfg.K)
    q = [float(cfg.enc[cfg.rrow(j), cfg.vrow(i)]) for j in rsus]
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


def partitions(n):
    """Every set partition of {1..n} once, in canonical order, lazily.

    Player m joins each existing block in turn, then opens a new one:
    lexicographic restricted-growth order (Knuth, TAOCP 7.2.1.5), from {1..n}
    to all singletons, blocks ordered by smallest member.
    """
    blocks = []

    def place(m):
        if m > n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for block in blocks:
            block.append(m)
            yield from place(m + 1)
            block.pop()
        blocks.append([m])
        yield from place(m + 1)
        blocks.pop()

    return place(1)


def slot_counters(cs, cfg, n_slots, seed):
    """Plain-Python slot loop over the uniforms simulate_slots draws in matrix mode.

    Each slot row holds K activity uniforms, one encounter uniform per RSU and
    one selection uniform per vehicle-containing coalition (canonical order).
    """
    K, M = cfg.K, cfg.M
    coalitions = []
    for block in canonical_structure(cs):
        vehicles = sorted(m - 1 for m in block if m <= K)
        if vehicles:
            coalitions.append((vehicles, sorted(m - K - 1 for m in block if m > K)))
    u = np.random.default_rng(seed).random((n_slots, K + M + len(coalitions)))
    counts = {name: np.zeros(K if name in COUNTERS[:3] else (M, K), np.int64)
              for name in COUNTERS}
    for t in range(n_slots):
        active = [v for v in range(K) if u[t, v] < cfg.p[v]]
        for c, (vehicles, rsus) in enumerate(coalitions):
            here = [v for v in vehicles if v in active]
            if not here:
                continue
            sched = here[0]
            success = len(here) == len(active)
            counts["scheduled"][sched] += 1
            met = [r for r in rsus if u[t, K + r] < cfg.enc[r, sched]]
            for r in met:
                counts["encounters"][r, sched] += 1
            if met:
                pick = min(int(u[t, K + M + c] * len(met)), len(met) - 1)
                counts["relays_success" if success else "relays_fail"][met[pick], sched] += 1
            else:
                counts["success_no_relay" if success else "fail_no_relay"][sched] += 1
    return counts
