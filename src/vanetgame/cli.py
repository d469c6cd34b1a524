"""Command-line front end: enumeration, payoffs, stability, and simulations.

Every file-producing subcommand writes RFC-4180-style CSV with a frozen
column order plus an adjacent <out>.manifest.json recording the invocation,
so runs are reproducible from their outputs. Exit codes: 0 success, 1 stdout
closed by its reader before the output was complete, 2 usage error, 3 config
or argument problem (an --out that cannot be written included), 4 internal
invariant breach or failed check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import run_identity_checks, stability_verdict, structure_reports
from .analytic import ABS_TOL
from .configio import ConfigError, load_config, resolve_encounter
from .geometry import (PLACEMENTS, analytic_pair_encounter, estimate_encounter_matrix,
                       grid_pair_encounter)
from .model import (bell_number, format_structure, parse_structure, structure_csv_blocks,
                    unrank_partition)
from .slotsim import simulate_slots

DEFAULT_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5)
# Most players for which `enumerate` lists the partitions and `--structure` takes an id
_STRUCTURE_ID_MAX_PLAYERS = 12


def _sweep(text: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: expected comma-separated numbers")
    if not values:
        raise argparse.ArgumentTypeError("empty sweep")
    return values


@functools.cache   # argparse objects hold reference cycles: build them once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetgame",
        description="Cooperative vehicle-to-roadside relaying: exact coalition payoffs, "
                    "core stability, and Monte Carlo validation.")
    parser.add_argument("--version", action="version", version=f"vanetgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, seed=False, out=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file (built-in config when omitted)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="seed of the random draws")
        if out:
            p.add_argument("--out", help="output CSV path")
        return p

    command("enumerate", cmd_enumerate, "list every coalition structure with ids", out=True)

    p = command("encounter", cmd_encounter, "estimate encounter probabilities over a range sweep",
                seed=True, out=True)
    p.add_argument("--d-sweep", type=_sweep, default=DEFAULT_SWEEP,
                   help="comma-separated transmission ranges in km")
    p.add_argument("--slots", type=int, default=None, help="placement slots per range")
    p.add_argument("--placement", choices=PLACEMENTS, default=None)

    p = command("payoffs", cmd_payoffs, "closed-form per-player quantities for a structure",
                out=True)
    p.add_argument("--structure", default=None,
                   help="canonical id or explicit blocks like '1,2|3|4' (default: grand coalition)")
    p.add_argument("--d-sweep", type=_sweep, default=None,
                   help="derive symmetric encounter matrices from these ranges; "
                        "omitted: use the config's matrix")

    command("core", cmd_core, "sufficient conditions and core membership of the grand vector")

    p = command("simulate", cmd_simulate, "slot simulation vs closed forms for a structure",
                seed=True, out=True)
    p.add_argument("--structure", default=None)
    p.add_argument("--slots", type=int, default=1_000_000)

    command("check", cmd_check, "run the exact-identity suite on the config")
    return parser


def _resolve_structure(arg, cfg):
    n = cfg.n_players
    if arg is None:
        return (frozenset(range(1, n + 1)),)
    if arg.strip().isascii() and arg.strip().isdecimal():   # int() takes non-ASCII digits too
        if n > _STRUCTURE_ID_MAX_PLAYERS:
            raise ValueError(f"structure ids require at most {_STRUCTURE_ID_MAX_PLAYERS} "
                             "players; pass explicit blocks")
        return unrank_partition(n, int(arg))
    return parse_structure(arg, n)


def _csv(header, rows: list):
    """A write(fh) for _emit that writes the header and the rows as CSV."""
    def write(fh) -> int:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return len(rows)
    return write


def _emit(args, write, **fields) -> None:
    """Stream write(fh) to --out, with a manifest of fields and the rows it wrote, or to stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            count = write(fh)
        manifest = {"tool": "vanetgame", "version": __version__, "command": args.command,
                    "python": platform.python_version(), "numpy": np.__version__,
                    "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    "config": args.config, "out": args.out, **fields, "rows": count}
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {count} rows to {args.out}")
    else:
        write(sys.stdout)


def _max_abs_z(rows, at: int) -> dict:
    """Manifest fields on rows (*where, estimate, stderr, exact, ...), where being the first
    `at` columns: max_abs_z, the largest |estimate - exact| / stderr over the n_compared rows
    with stderr > 0, the where of its first row (max_abs_z_at), its Sidak family-wise p-value
    1 - (1 - erfc(z / sqrt 2))^n_compared (max_abs_z_p), and zero_se_mismatches, the rows with
    stderr 0 that miss exact by over ABS_TOL s or have s = inf, s = max(1, |estimate|, |exact|)."""
    z, mismatches = [], 0
    for row in rows:
        est, se, ana = row[at:at + 3]
        if se > 0:
            z.append((abs(est - ana) / se, list(row[:at])))
        else:
            mismatches += not abs(est - ana) <= ABS_TOL * max(1.0, abs(est), abs(ana)) < math.inf
    top, where = max(z, key=lambda item: item[0], default=(None, None))
    tail = None if top is None else math.erfc(top / math.sqrt(2))
    p = tail if tail is None or tail >= 1.0 else -math.expm1(len(z) * math.log1p(-tail))
    return {"max_abs_z": top, "max_abs_z_at": where, "max_abs_z_p": p, "n_compared": len(z),
            "zero_se_mismatches": mismatches}


def cmd_enumerate(args, loaded) -> int:
    cfg = loaded.game
    if cfg.n_players > _STRUCTURE_ID_MAX_PLAYERS:
        raise ValueError(f"refusing to enumerate partitions of {cfg.n_players} players")

    def write(fh) -> int:
        fh.write("id,structure,normalized,n_coalitions\n")
        fh.writelines(structure_csv_blocks(cfg.n_players, cfg.K))
        return bell_number(cfg.n_players)

    _emit(args, write, n_players=cfg.n_players, K=cfg.K)
    return 0


def cmd_encounter(args, loaded) -> int:
    cfg = loaded.game
    flags = {"placement": args.placement, "n_slots": args.slots, "seed": args.seed}
    geo = dataclasses.replace(loaded.geometry, **{k: v for k, v in flags.items() if v is not None})
    references = [analytic_pair_encounter(d, geo.side_km) for d in args.d_sweep]
    law = grid_pair_encounter if geo.placement == "grid" else analytic_pair_encounter
    z_reference = {d: law(d, geo.side_km) for d in args.d_sweep}   # the placement's own law
    start = time.perf_counter()
    estimates = estimate_encounter_matrix(geo, cfg.K, cfg.M,
                                          ranges=[(d,) * cfg.K for d in args.d_sweep])
    mplace_per_s = geo.n_slots / (time.perf_counter() - start) / 1e6
    rows = [(d, i + 1, cfg.K + j + 1, float(est.matrix[j, i]), float(est.stderr[j, i]), reference)
            for d, reference, est in zip(args.d_sweep, references, estimates)
            for j in range(cfg.M) for i in range(cfg.K)]
    _emit(args, _csv(("d_km", "vehicle", "rsu", "estimate", "stderr", "analytic"), rows),
          seed=geo.seed, slots=geo.n_slots, placement=geo.placement,
          d_sweep=list(args.d_sweep), mplace_per_s=mplace_per_s, max_abs_z_law=law.__name__,
          **_max_abs_z([(*row[:5], z_reference[row[0]]) for row in rows], 3))
    return 0


def _report_items(rep):
    """(player, quantity, value) for every quantity of one coalition's report, unordered."""
    for name in ("share", "rate_gain", "fee", "throughput", "payment", "revenue", "cost"):
        yield from ((m, name, value) for m, value in getattr(rep, name).items())
    yield from ((m, "payoff", u) for m, u in {**rep.vehicle_payoff, **rep.rsu_payoff}.items())
    yield from ((j, f"relay_prob_v{i}", value)
                for j, row in rep.relay_prob.items() for i, value in row.items())


def _payoff_rows(cs, cfg, d_label):
    rows = [(d_label, *item) for rep in structure_reports(cs, cfg) for item in _report_items(rep)]
    rows.sort(key=lambda r: (r[1], r[2]))   # every row of one call has the same d_label
    return rows


def cmd_payoffs(args, loaded) -> int:
    cfg = loaded.game
    cs = _resolve_structure(args.structure, cfg)
    rows, sweep = [], {}
    if args.d_sweep is None:
        rows.extend(_payoff_rows(cs, resolve_encounter(loaded), ""))
    else:
        sweep["d_sweep"] = list(args.d_sweep)
        for d in args.d_sweep:
            q = analytic_pair_encounter(d, loaded.geometry.side_km)
            rows.extend(_payoff_rows(cs, dataclasses.replace(cfg, enc=q), d))
    _emit(args, _csv(("d_km", "player", "quantity", "value"), rows),
          structure=args.structure, structure_blocks=format_structure(cs), **sweep)
    return 0


def cmd_core(args, loaded) -> int:
    cfg = resolve_encounter(loaded)
    verdict = stability_verdict(cfg)
    cond = verdict.conditions
    weight, gain, pref = cond.weight_witness, cond.gain_witness, cond.preference_witness
    for text, witness in (   # a witness names a player (from 1) or a (player, coalition)
            ("weights strictly positive", weight and f"player {weight}"),
            ("strict gains inside every vehicle-containing proper coalition",
             gain and f"player {gain[0]} in coalition {sorted(gain[1])}"),
            ("grand coalition strictly preferred by every member of every proper coalition",
             pref and f"player {pref[0]} prefers coalition {sorted(pref[1])}")):
        print(f"{text}: " + ("yes" if witness is None else f"no  (witness: {witness})"))
    print(f"sufficient conditions hold: {'yes' if cond.all_hold else 'no'}")
    vec = ", ".join(f"u{i + 1}={float(v)!r}" for i, v in enumerate(verdict.payoff_vector))
    print(f"grand-coalition payoffs: {vec}")
    if verdict.membership.in_core:
        n_proper = 2 ** cfg.n_players - 2
        print(f"grand vector in core: yes (unblocked by all {n_proper} proper coalitions)")
    else:
        print(f"grand vector in core: no (blocked by {sorted(verdict.membership.blocking)})")
    return 0


def cmd_simulate(args, loaded) -> int:
    cfg = resolve_encounter(loaded)
    cs = _resolve_structure(args.structure, cfg)
    seed = 0 if args.seed is None else args.seed
    # the closed forms first: a config whose payoffs are not finite stops before any slot
    analytic = {(player, qty): value for _, player, qty, value in _payoff_rows(cs, cfg, "")}
    start = time.perf_counter()
    report = simulate_slots(cs, cfg, args.slots, seed)
    mslot_per_s = args.slots / (time.perf_counter() - start) / 1e6
    rows = [(player, qty, est, se, analytic[(player, qty)], n, sd)
            for (player, qty, est, se, n, sd) in report.rows()]
    _emit(args, _csv(("player", "quantity", "estimate", "stderr", "analytic", "n_slots",
                      "seed"), rows),
          structure=args.structure, structure_blocks=format_structure(cs), seed=seed,
          slots=args.slots, mslot_per_s=mslot_per_s,
          **_max_abs_z(rows, 2))
    return 0


def cmd_check(args, loaded) -> int:
    cfg = resolve_encounter(loaded)
    results = run_identity_checks(cfg)
    for res in results:
        status = "SKIP" if res.passed is None else "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    return 4 if any(res.passed is False for res in results) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args, load_config(args.config or None))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`). Point stdout at devnull
        # so the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:   # a failed write: load_config reports read failures as ConfigError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
