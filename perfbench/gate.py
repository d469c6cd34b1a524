"""Correctness gate: checks every command output before anything is timed.

The checks read the CSV and text the CLI produced and compare them with
values recomputed here (brute-force relay expectations, Bell numbers, the
partition rank from workloads.structure_id) or with the package's own
structure payoffs. A failed check raises GateError, which aborts the run.
"""

from __future__ import annotations

import csv
import io
import math
import re

import workloads

# The package documents its exact identities at this absolute tolerance.
ABS_TOL = 1e-12
# Largest accepted |estimate - analytic| / stderr for the Monte Carlo commands.
Z_MAX = 6.0


class GateError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _brute_relay_mean(q, w) -> float:
    """Expected weight of the uniformly chosen relay over all encounter sets."""
    total = 0.0
    for mask in range(1, 1 << len(q)):
        prob = 1.0
        members = []
        for k, qk in enumerate(q):
            if mask >> k & 1:
                prob *= qk
                members.append(k)
            else:
                prob *= 1.0 - qk
        total += prob * sum(w[k] for k in members) / len(members)
    return total


def check_payoffs(text: str, spec: dict, blocks) -> None:
    """Payments equal revenues per coalition and sweep point; for the grand
    coalition read from the config matrix, rate gains and fees match a
    brute-force recomputation."""
    rows = _rows(text)
    require(rows, "payoffs: empty CSV")
    value = {(r["d_km"], int(r["player"]), r["quantity"]): float(r["value"]) for r in rows}
    require(len(value) == len(rows), "payoffs: duplicate (d_km, player, quantity) rows")
    game = spec["config"]["game"]
    K = game["K"]
    for d in sorted({r["d_km"] for r in rows}):
        for block in blocks:
            vehicles = [m for m in block if m <= K]
            rsus = [m for m in block if m > K]
            paid = sum(value[(d, i, "payment")] for i in vehicles)
            earned = sum(value[(d, j, "revenue")] for j in rsus)
            require(abs(paid - earned) <= ABS_TOL,
                     f"payoffs: payments {paid!r} != revenues {earned!r} in {block} at d={d!r}")
    if len(blocks) == 1 and "" in {r["d_km"] for r in rows}:
        enc = spec["config"]["encounter"]["matrix"]
        for i in range(1, K + 1):
            q = [enc[j][i - 1] for j in range(game["M"])]
            gain = _brute_relay_mean(q, game["delta"][i - 1])
            fee = _brute_relay_mean(q, [game["price"][j][i - 1] for j in range(game["M"])])
            require(abs(value[("", i, "rate_gain")] - gain) <= ABS_TOL,
                     f"payoffs: rate_gain of vehicle {i} is {value[('', i, 'rate_gain')]!r}, "
                     f"brute force gives {gain!r}")
            require(abs(value[("", i, "fee")] - fee) <= ABS_TOL,
                     f"payoffs: fee of vehicle {i} is {value[('', i, 'fee')]!r}, "
                     f"brute force gives {fee!r}")


_VECTOR = re.compile(r"^grand-coalition payoffs: (.*)$", re.M)
_BLOCKED = re.compile(r"^grand vector in core: no \(blocked by \[([0-9, ]+)\]\)$", re.M)


def check_core(text: str, n: int, grand_vector, coalition_payoffs) -> None:
    """The printed grand vector equals the structure payoffs, and a reported
    blocker makes every member strictly better off than the grand vector."""
    match = _VECTOR.search(text)
    require(match is not None, "core: no grand-coalition payoff line")
    printed = [float(tok.split("=", 1)[1]) for tok in match.group(1).split(", ")]
    require(len(printed) == n, f"core: {len(printed)} payoffs printed, expected {n}")
    require(printed == [float(v) for v in grand_vector],
             "core: printed grand vector differs from structure_payoffs")
    require("grand vector in core: " in text, "core: no membership verdict")
    blocked = _BLOCKED.search(text)
    if blocked:
        members = [int(tok) for tok in blocked.group(1).split(",")]
        inside = coalition_payoffs(members)
        for m in members:
            require(inside[m] > printed[m - 1],
                     f"core: blocker {members} does not strictly dominate for player {m}")


def check_simulate(text: str) -> float:
    """Every estimate lies within Z_MAX stderrs of its analytic value; returns max |z|."""
    rows = _rows(text)
    require(rows, "simulate: empty CSV")
    worst = 0.0
    for r in rows:
        est, se, exact = float(r["estimate"]), float(r["stderr"]), float(r["analytic"])
        if se > 0.0:
            z = abs(est - exact) / se
        else:
            require(abs(est - exact) <= 1e-9,
                     f"simulate: zero stderr but estimate {est!r} != analytic {exact!r}")
            z = 0.0
        require(z <= Z_MAX, f"simulate: |z|={z:.2f} for player {r['player']} {r['quantity']}")
        worst = max(worst, z)
    return worst


def check_encounter(text: str, n_pairs: int, sweep) -> float:
    """Each placement estimate lies within Z_MAX stderrs of the exact pair probability."""
    rows = _rows(text)
    require(len(rows) == n_pairs * len(sweep),
             f"encounter: {len(rows)} rows, expected {n_pairs * len(sweep)}")
    worst = 0.0
    for r in rows:
        d = float(r["d_km"])
        exact = math.pi * d * d - (8.0 / 3.0) * d ** 3 + 0.5 * d ** 4
        require(abs(float(r["analytic"]) - exact) <= ABS_TOL,
                 f"encounter: analytic column {r['analytic']} != {exact!r} at d={d}")
        est, se = float(r["estimate"]), float(r["stderr"])
        require(se > 0.0, f"encounter: zero stderr at d={d}")
        z = abs(est - exact) / se
        require(z <= Z_MAX, f"encounter: |z|={z:.2f} at d={d} vehicle {r['vehicle']} rsu {r['rsu']}")
        worst = max(worst, z)
    return worst


def check_enumerate(text: str, n: int, structure_id: int, structure: str) -> None:
    """Bell(n) unique rows with ids in order, grand coalition first, singletons
    last, and the workload's structure at the id computed by rank."""
    rows = _rows(text)
    require(len(rows) == workloads.bell(n), f"enumerate: {len(rows)} rows, Bell({n})="
             f"{workloads.bell(n)}")
    require(len({r["structure"] for r in rows}) == len(rows), "enumerate: duplicate structures")
    for idx, r in enumerate(rows, start=1):
        require(int(r["id"]) == idx, f"enumerate: row {idx} has id {r['id']}")
        require(int(r["n_coalitions"]) == r["structure"].count("|") + 1,
                 f"enumerate: id {idx} has a wrong coalition count")
    require(rows[0]["structure"] == ",".join(str(m) for m in range(1, n + 1)),
             "enumerate: first row is not the grand coalition")
    require(rows[-1]["structure"] == "|".join(str(m) for m in range(1, n + 1)),
             "enumerate: last row is not all singletons")
    require(rows[structure_id - 1]["structure"] == structure,
             f"enumerate: id {structure_id} is {rows[structure_id - 1]['structure']}, "
             f"expected {structure}")
