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
exactly. `placement_counts` is a plain loop over slots, RSUs and vehicles, the
reference for the per-RSU buffers of vanetgame.geometry.estimate_encounter_matrix:
on the same uniforms their encounter counts agree exactly.

`ExactConfig` is a GameConfig whose parameters are `fractions.Fraction` object
arrays, on which the coalition table and the core sweep run exactly.
`exact_quantities`, `exact_bracket` and `exact_verdict` are their references:
expectations by brute force over slot outcomes and encounter sets, and the
core verdict by brute force over coalitions, sharing no code with the table.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from conftest import COUNTERS
from vanetgame.analysis import _CHECK_STRUCTURES, CheckResult, vehicle_coalition_profitability
from vanetgame.analytic import ABS_TOL, PayoffReport, _reports, oracle_relay_mean
from vanetgame.geometry import GRID_CELLS
from vanetgame.model import (_SHAPES, GameConfig, canonical_structure, check_structure,
                             iter_partitions, normalize_structure, split_members)


def _share(vehicles, i, cfg):
    share = float(cfg.p[i - 1])
    for v in vehicles:
        if v < i:
            share *= 1.0 - cfg.p[v - 1]
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
    vi = i - 1
    rows = [j - cfg.K - 1 for j in rsus]
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
    idle_outside = [float(1.0 - cfg.p[v - 1]) for v in cfg.vehicles if v not in vehicles]
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
        u_veh[i] = float(cfg.alpha[i - 1]) * t - float(cfg.beta[i - 1]) * pay[i]
        for j, pr, (price, fwd, rcv) in zip(rsus, probs, charges):
            relay[j][i] = pr
            rev[j] += s * pr * price
            cst[j] += s * (fwd * pr + rcv)
    u_rsu = {j: float(cfg.gamma[j - cfg.K - 1]) * rev[j] - float(cfg.mu[j - cfg.K - 1]) * cst[j]
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
    q = [float(cfg.enc[j - cfg.K - 1, i - 1]) for j in rsus]
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


def placement_counts(geo, K, M, ranges):
    """(M, K) encounter counts per range vector, on the uniforms the estimator draws.

    Row t of default_rng(geo.seed).random((n_slots, 2 * (K + M))) places node n
    (vehicles 0..K-1, then RSUs) at x = row[2n], y = row[2n + 1], scaled to the
    square or snapped to the center of its grid cell first.
    """
    u = np.random.default_rng(geo.seed).random((geo.n_slots, 2 * (K + M)))
    counts = [[[0] * K for _ in range(M)] for _ in ranges]
    for t in range(geo.n_slots):
        pos = []
        for value in u[t].tolist():
            if geo.placement == "grid":
                cell = min(int(value * GRID_CELLS), GRID_CELLS - 1)
                pos.append((cell + 0.5) * (geo.side_km / GRID_CELLS))
            else:
                pos.append(value * geo.side_km)
        for j in range(M):
            xr, yr = pos[2 * (K + j)], pos[2 * (K + j) + 1]
            for i in range(K):
                dx, dy = xr - pos[2 * i], yr - pos[2 * i + 1]
                for g, r in enumerate(ranges):
                    counts[g][j][i] += dx * dx + dy * dy <= r[i] * r[i]
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


def _reach(rates) -> float:
    """P(any encounter): -expm1 of the log1p(-rate) sum, added from 0.0 in the order given."""
    out = 0.0
    with np.errstate(divide="ignore"):   # rate 1: log1p(-1) = -inf, so reach is 1
        for rate in rates:
            out += np.log1p(-rate)
    return float(-np.expm1(out))


def _gap(pairs) -> float:
    """Largest |a - b| over the (a, b, *terms) tuples an identity equates; 0.0 for none."""
    return max(itertools.chain((0.0,), (abs(a - b) for a, b, *_ in pairs)))


def _scale(pairs) -> float:
    """Largest |x| over every entry of the tuples, the sides a and b and the further terms
    an identity sums: its pass rule's scale. 0.0 for none."""
    return max(itertools.chain((0.0,), (abs(x) for pair in pairs for x in pair)))


def _balance(rep: PayoffReport) -> tuple:
    """(vehicle payments, RSU revenues) of one coalition, each summed in ascending id."""
    return (sum(rep.payment[i] for i in sorted(rep.payment)),
            sum(rep.revenue[j] for j in sorted(rep.revenue)))


def identity_checks(cfg):
    """Exercise the exact identities tying the closed-form quantities together.

    Runs over every coalition of the first _CHECK_STRUCTURES partitions of all
    players in canonical order (every partition when there are at most that
    many) and reports one result per identity. A residual identity yields the
    pairs it equates per coalition, each followed by any further terms it sums;
    its result is the largest gap and the first coalition that reaches it, and it
    passes when every coalition's gap is at most ABS_TOL * max(1, that
    coalition's _scale) and every such scale is finite.
    """
    n = cfg.n_players
    partitions = list(itertools.islice(iter_partitions(n), _CHECK_STRUCTURES))
    normalized = [normalize_structure(cs, cfg.K) for cs in partitions]
    coalitions = sorted({block for cs in partitions for block in cs}, key=sorted)
    # per-vehicle-uniform rate gains and fees: each vehicle's first RSU's, at every RSU
    uni = dataclasses.replace(cfg, delta=np.repeat(cfg.delta[:, :1], cfg.M, axis=1),
                              price=np.repeat(cfg.price[:1, :], cfg.M, axis=0))
    evaluated = list({*coalitions, *(block for cs in normalized for block in cs),
                      *(frozenset((i,)) for i in cfg.vehicles),
                      *(frozenset(range(1, i + 1)) for i in cfg.vehicles)})
    reports = dict(zip(evaluated, _reports(evaluated, cfg)))
    uni_reports = dict(zip(coalitions, _reports(coalitions, uni)))

    def share_sum(S, rep, vehicles, rsus):
        if vehicles:
            yield (sum(rep.share[i] for i in vehicles),
                   1.0 - _idle(cfg.p[i - 1] for i in vehicles))

    def relay_row_sum(S, rep, vehicles, rsus):
        for i in vehicles if rsus else ():
            yield (sum(rep.relay_prob[j][i] for j in rsus),
                   _reach(cfg.enc[j - cfg.K - 1, i - 1] for j in rsus))

    def mean_vs_relay_prob(S, rep, vehicles, rsus):
        for i in vehicles if rsus else ():
            yield rep.fee[i], sum(rep.relay_prob[j][i] * cfg.price[j - cfg.K - 1, i - 1]
                                  for j in rsus)
            yield rep.rate_gain[i], sum(rep.relay_prob[j][i] * cfg.delta[i - 1, j - cfg.K - 1]
                                        for j in rsus)

    def payment_balance(S, rep, vehicles, rsus):
        yield _balance(rep)

    def oracle_agreement(S, rep, vehicles, rsus):
        for i in vehicles if rsus and len(rsus) <= 12 else ():
            weights = {j: float(cfg.delta[i - 1, j - cfg.K - 1]) for j in rsus}
            value, chosen = oracle_relay_mean(S, i, weights, cfg)
            yield value, rep.rate_gain[i]
            for j in rsus:
                yield chosen[j], rep.relay_prob[j][i]

    def simplified_forms(S, _, vehicles, rsus):
        rep = uni_reports[S]
        for i in vehicles:
            reach = _reach(uni.enc[j - uni.K - 1, i - 1] for j in rsus)
            d_i = float(uni.delta[i - 1, 0]) if rsus else 0.0
            xi_i = float(uni.price[0, i - 1]) if rsus else 0.0
            yield rep.rate_gain[i], d_i * reach
            yield rep.fee[i], xi_i * reach

    unit = (cfg.beta == 1.0).all() and (cfg.gamma == 1.0).all()
    if unit:
        zero_cfg = dataclasses.replace(cfg, price=np.zeros_like(cfg.price))
        zero = dict(zip(coalitions, _reports(coalitions, zero_cfg)))

    def fee_cancellation(S, rep, vehicles, rsus):
        rep0 = zero[S]
        yield (rep.total_payoff, rep0.total_payoff,   # then the member payoffs summed
               *(rep.payoff_of(m) for m in sorted(S)), *(rep0.payoff_of(m) for m in sorted(S)))
        yield _balance(rep)

    identities = (
        ("scheduled-share total matches 1 - P(all idle)", share_sum),
        ("relay-choice probabilities total P(any encounter)", relay_row_sum),
        ("fee and rate-gain match relay-probability sums", mean_vs_relay_prob),
        ("vehicle payments equal RSU revenues", payment_balance),
        ("grouped sums match brute-force enumeration", oracle_agreement),
        ("uniform-weight closed forms match general formulas", simplified_forms),
        ("fees cancel out of every coalition's sum payoff", fee_cancellation if unit else None),
    )
    members = [(S, reports[S], *split_members(S, cfg.K)) for S in coalitions]
    results: list[CheckResult] = []
    for name, identity in identities:
        if identity is None:
            results.append(CheckResult(name, None, "skipped: needs unit payment/revenue weights"))
            continue
        worst, where, passed = 0.0, "", True
        for S, rep, vehicles, rsus in members:
            pairs = list(identity(S, rep, vehicles, rsus))
            gap = _gap(pairs)
            passed &= bool(gap <= ABS_TOL * max(1.0, _scale(pairs)) < math.inf)
            if gap > worst:
                worst, where = gap, f" (coalition {sorted(S)})"
        results.append(CheckResult(name, passed, f"max residual {worst:.3e}{where}"))

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
    for S, rep in reports.items():   # every vehicle-only coalition evaluated, prefixes included
        vehicles, rsus = split_members(S, cfg.K)
        if rsus or not vehicles:
            continue
        verdict = vehicle_coalition_profitability(S, cfg)
        for i in vehicles:
            alone = reports[frozenset((i,))].vehicle_payoff[i]
            direct = rep.vehicle_payoff[i] >= alone - ABS_TOL * max(1.0, abs(alone))
            profit_ok &= verdict[i] == direct
    results.append(CheckResult(name, bool(profit_ok), "checked over vehicle-only coalitions"))
    return results


class ExactConfig(GameConfig):
    """A GameConfig whose ten parameter arrays are read-only object arrays of
    Fraction, each value converted exactly (a float keeps its binary value)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "M", int(self.M))
        for name, shape in _SHAPES.items():
            values = [Fraction(x) for x in np.asarray(getattr(self, name), dtype=object).flat]
            arr = np.array(values, dtype=object).reshape(shape(self.K, self.M))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _outcomes(probs):
    """(P(pattern), pattern) of every on/off pattern of independent events with
    the given probabilities."""
    for pattern in itertools.product((False, True), repeat=len(probs)):
        yield math.prod((q if on else 1 - q for q, on in zip(probs, pattern)),
                        start=Fraction(1)), pattern


def exact_bracket(q) -> Fraction:
    """E[1/(B+1)] for the number B of independent events, of probabilities q, that occur."""
    return sum(prob / (sum(pattern) + 1) for prob, pattern in _outcomes(q))


def exact_quantities(S, cfg) -> dict:
    """Every member quantity of coalition S of an ExactConfig from first principles:
    the scheduled vehicle over each pattern of active vehicles, and its relay over
    each set of the coalition's RSUs that meet it, picked uniformly from that set.
    Keys: share, rate_gain, fee, relay_prob ((RSU, vehicle) pairs), benefit and
    charge (throughput and payment, revenue and cost), payoff."""
    vehicles, rsus = split_members(S, cfg.K)
    zero = Fraction(0)
    share, clear = dict.fromkeys(vehicles, zero), dict.fromkeys(vehicles, zero)
    for prob, pattern in _outcomes(list(cfg.p)):
        active = [i for i, on in zip(cfg.vehicles, pattern) if on]
        here = [i for i in active if i in vehicles]
        if here:   # the lowest-id active member transmits; it succeeds if no outsider is active
            share[here[0]] += prob
            clear[here[0]] += prob if len(here) == len(active) else zero
    relay = {(j, i): zero for j in rsus for i in vehicles}
    for i in vehicles:
        q = [cfg.enc[j - cfg.K - 1, i - 1] for j in rsus]
        for prob, pattern in _outcomes(q):
            met = [j for j, on in zip(rsus, pattern) if on]
            for j in met:
                relay[j, i] += prob / len(met)
    out = {"share": share, "relay_prob": relay, "rate_gain": {}, "fee": {},
           "benefit": {}, "charge": {}, "payoff": {}}
    for i in vehicles:
        v = i - 1
        gain = sum((relay[j, i] * cfg.delta[v, j - cfg.K - 1] for j in rsus), zero)
        fee = sum((relay[j, i] * cfg.price[j - cfg.K - 1, v] for j in rsus), zero)
        out["rate_gain"][i], out["fee"][i] = gain, fee
        out["benefit"][i], out["charge"][i] = clear[i] * (1 + gain), share[i] * fee
        out["payoff"][i] = cfg.alpha[v] * out["benefit"][i] - cfg.beta[v] * out["charge"][i]
    for j in rsus:
        r = j - cfg.K - 1
        out["benefit"][j] = sum((share[i] * relay[j, i] * cfg.price[r, i - 1]
                                 for i in vehicles), zero)
        out["charge"][j] = sum((share[i] * (relay[j, i] * cfg.cost_fwd[r, i - 1]
                                            + cfg.enc[r, i - 1] * cfg.cost_rcv[r, i - 1])
                                for i in vehicles), zero)
        out["payoff"][j] = cfg.gamma[r] * out["benefit"][j] - cfg.mu[r] * out["charge"][j]
    return out


def exact_verdict(cfg) -> tuple:
    """(grand payoff vector, gain witness, preference witness, smallest blocker) of
    the grand coalition, by brute force over every coalition mask in ascending
    order: the first (member, coalition) offending each condition, and the blocker
    with the smallest sorted member tuple."""
    n = cfg.n_players
    coalitions = [frozenset(m + 1 for m in range(n) if mask >> m & 1)
                  for mask in range(1, 1 << n)]
    payoff = {S: exact_quantities(S, cfg)["payoff"] for S in coalitions}
    grand = [payoff[coalitions[-1]][m] for m in range(1, n + 1)]
    gain = preference = None
    for S in coalitions[:-1]:
        members, u = sorted(S), payoff[S]
        if gain is None and members[0] <= cfg.K:
            gain = next(((m, S) for m in members if not u[m] > 0), None)
        if preference is None:
            preference = next(((m, S) for m in members if not grand[m - 1] > u[m]), None)
    blockers = [sorted(S) for S in coalitions if all(payoff[S][m] > grand[m - 1] for m in S)]
    return grand, gain, preference, frozenset(min(blockers)) if blockers else None
