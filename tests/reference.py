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

`identity_checks` is the identity suite of `vanetgame check` as it read
each quantity from per-coalition `PayoffReport` dicts, one Python generator
per identity: the reference for the array residuals of
vanetgame.analysis.run_identity_checks, which must return equal results.

`slot_counters` is a plain-Python slot loop, the reference for the bit-packed
kernel in vanetgame.slotsim: on the same uniforms their event counters agree
exactly.
"""

import dataclasses
import itertools

import numpy as np

from conftest import COUNTERS
from vanetgame.analysis import (_CHECK_STRUCTURES, CheckResult, _uniformized,
                                vehicle_coalition_profitability)
from vanetgame.analytic import ABS_TOL, PayoffReport, _reports, oracle_relay_mean
from vanetgame.model import (canonical_structure, check_structure, iter_partitions,
                             normalize_structure, split_members)


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


def _payoff_vector(reports, n_players: int) -> np.ndarray:
    out = np.zeros(n_players)
    for rep in reports:
        for i, u in rep.vehicle_payoff.items():
            out[i - 1] = u
        for j, u in rep.rsu_payoff.items():
            out[j - 1] = u
    return out


def _idle(rates) -> float:
    """Product of (1 - rate) over rates, from 1.0 in the order given."""
    out = 1.0
    for rate in rates:
        out *= 1.0 - rate
    return out


def _gap(pairs) -> float:
    """Largest |a - b| over the (a, b) pairs an identity equates; 0.0 for none."""
    return max(itertools.chain((0.0,), (abs(a - b) for a, b in pairs)))


def _balance(rep: PayoffReport) -> tuple:
    """(vehicle payments, RSU revenues) of one coalition, each summed in ascending id."""
    return (sum(rep.payment[i] for i in sorted(rep.payment)),
            sum(rep.revenue[j] for j in sorted(rep.revenue)))


def identity_checks(cfg):
    """Exercise the exact identities tying the closed-form quantities together.

    Runs over every coalition of the first _CHECK_STRUCTURES partitions of all
    players in canonical order (every partition when there are at most that
    many) and reports one result per identity. A residual identity yields the
    pairs it equates per coalition; its result is the largest gap and the first
    coalition that reaches it.
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
