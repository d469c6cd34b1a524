"""Seeded workload inputs: config documents, structures and CLI argv lists.

Every workload is a closed loop of CLI commands (the next command starts when
the previous one ends). Parameters are drawn from the workload seed only, so
the same seed gives byte-identical configs and argv. Parameter ranges keep
fees above forwarding costs (as in the default set) and make every proper
coalition profitable, so the core sweep always visits all 2^n coalitions.
Activity and encounter probabilities vary only a little around fixed
centres, because the simulator's work grows with them; so the cost of a
workload barely depends on the seed, while its values do.
"""

from __future__ import annotations

import random

SWEEP = "0.1,0.2,0.3,0.4,0.5"

# Full-size shapes; the smoke shapes run the same commands at tiny sizes.
SHAPES = {
    "core-n12": {"K": 4, "M": 8},
    "simulate-k8m8": {"K": 8, "M": 8, "slots": 1_000_000},
    "structures-n10": {"K": 4, "M": 6, "slots": 400_000, "enc_slots": 100_000},
}
SMOKE_SHAPES = {
    "core-n12": {"K": 3, "M": 6},
    "simulate-k8m8": {"K": 3, "M": 3, "slots": 20_000},
    "structures-n10": {"K": 3, "M": 3, "slots": 20_000, "enc_slots": 5_000},
}

WHY = {
    "core-n12": "2^12-coalition sweep of analysis over analytic closed forms; "
                "slotsim and geometry idle",
    "simulate-k8m8": "one wide 8+8 grand coalition through the slot simulator; "
                     "model, analytic and geometry nearly idle",
    "structures-n10": "README flow at n=10: Bell(10) enumeration, id lookup, "
                      "narrow-coalition simulation and placement estimation",
}


def _matrix(rng, rows, cols, lo, hi):
    return [[round(rng.uniform(lo, hi), 6) for _ in range(cols)] for _ in range(rows)]


def make_config(rng: random.Random, K: int, M: int) -> dict:
    """One valid config document for K vehicles and M RSUs."""
    return {
        "game": {
            "K": K, "M": M,
            "p": [round(rng.uniform(0.18, 0.22), 6) for _ in range(K)],
            "delta": _matrix(rng, K, M, 0.2, 1.0),
            "price": _matrix(rng, M, K, 1.2, 2.0),
            "cost_fwd": _matrix(rng, M, K, 0.1, 0.6),
            "cost_rcv": _matrix(rng, M, K, 0.01, 0.05),
            "alpha": [10.0] * K, "beta": [1.0] * K,
            "gamma": [1.0] * M, "mu": [1.0] * M,
        },
        "encounter": {"matrix": _matrix(rng, M, K, 0.4, 0.6)},
        "geometry": {"side_km": 1.0, "placement": "continuous",
                     "range_km": [0.2] * K, "n_slots": 100_000,
                     "seed": rng.randrange(1, 2 ** 31)},
    }


def split_blocks(rng: random.Random, K: int, M: int) -> list[list[int]]:
    """One coalition per vehicle, with the RSUs dealt out as evenly as possible."""
    rsus = list(range(K + 1, K + M + 1))
    rng.shuffle(rsus)
    owners = list(range(1, K + 1))
    rng.shuffle(owners)
    blocks = {v: [v] for v in range(1, K + 1)}
    for pos, j in enumerate(rsus):
        blocks[owners[pos % K]].append(j)
    return [sorted(blocks[v]) for v in range(1, K + 1)]


def format_blocks(blocks) -> str:
    return "|".join(",".join(str(m) for m in b) for b in sorted(blocks, key=min))


def _completions(remaining: int, blocks: int, memo: dict) -> int:
    """Restricted-growth suffixes of a given length after `blocks` labels are in use."""
    if remaining == 0:
        return 1
    key = (remaining, blocks)
    if key not in memo:
        memo[key] = (blocks * _completions(remaining - 1, blocks, memo)
                     + _completions(remaining - 1, blocks + 1, memo))
    return memo[key]


def structure_id(blocks, n: int) -> int:
    """1-based position of a partition in lexicographic restricted-growth order.

    Computed here by counting, independently of the program's enumeration,
    so the gate can check that `enumerate` lists the partition at this id.
    """
    label_of = {}
    for lab, block in enumerate(sorted(blocks, key=min)):
        for m in block:
            label_of[m] = lab
    labels = [label_of[m] for m in range(1, n + 1)]
    memo: dict = {}
    rank = 0
    top = 0   # number of labels used by the prefix
    for i in range(1, n):
        for v in range(labels[i]):
            rank += _completions(n - i - 1, max(top, v + 1), memo)
        top = max(top, labels[i] + 1)
    return rank + 1


def bell(n: int) -> int:
    return _completions(n, 0, {}) if n else 1


def build(name: str, seed: int, smoke: bool = False) -> dict:
    """Config document and command list of one workload.

    Each command is {"name", "argv", "csv"}; argv holds the placeholders
    "{config}" and "{out}" for the config and output paths, which the worker
    fills in, and "csv" says whether the command writes an output file.
    """
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    rng = random.Random(f"{name}:{seed}")
    K, M = shape["K"], shape["M"]
    config = make_config(rng, K, M)
    sim_seed = str(rng.randrange(1, 2 ** 31))
    base = ["--config", "{config}"]
    info = {"K": K, "M": M}
    if name == "core-n12":
        commands = [
            {"name": "payoffs", "argv": ["payoffs", *base, "--out", "{out}"], "csv": True},
            {"name": "core", "argv": ["core", *base], "csv": False},
            {"name": "check", "argv": ["check", *base], "csv": False},
        ]
    elif name == "simulate-k8m8":
        info["slots"] = shape["slots"]
        commands = [
            {"name": "simulate", "argv": ["simulate", *base, "--slots", str(shape["slots"]),
                                          "--seed", sim_seed, "--out", "{out}"], "csv": True},
        ]
    elif name == "structures-n10":
        blocks = split_blocks(rng, K, M)
        sid = structure_id(blocks, K + M)
        info.update(slots=shape["slots"], enc_slots=shape["enc_slots"], blocks=blocks,
                    structure=format_blocks(blocks), structure_id=sid)
        commands = [
            {"name": "enumerate", "argv": ["enumerate", *base, "--out", "{out}"], "csv": True},
            {"name": "payoffs", "argv": ["payoffs", *base, "--structure", str(sid),
                                         "--d-sweep", SWEEP, "--out", "{out}"], "csv": True},
            {"name": "simulate", "argv": ["simulate", *base, "--structure", str(sid),
                                          "--slots", str(shape["slots"]), "--seed", sim_seed,
                                          "--out", "{out}"], "csv": True},
            {"name": "encounter", "argv": ["encounter", *base, "--d-sweep", SWEEP,
                                           "--slots", str(shape["enc_slots"]),
                                           "--seed", sim_seed, "--out", "{out}"], "csv": True},
        ]
    else:
        raise KeyError(name)
    return {"workload": name, "seed": seed, "smoke": smoke, "config": config,
            "commands": commands, "info": info}
