#!/usr/bin/env python3
"""Layered end-to-end benchmark of the vanetgame CLI.

    python3 perfbench/run.py --workload core-n12 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 0 --trace 1 --smoke

Run it from the root of a source checkout (the directory holding src/). For
each workload it writes the seeded config, times set-up in fresh
interpreters, then starts one worker interpreter (perfbench/worker.py) that
gates every command's output for correctness and then times the command list
in a closed loop through vanetgame.cli.main. Workloads run one at a time,
single-threaded. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics from spans recorded around the package's layer boundaries.
A human-readable report precedes the last line, a JSON object with keys
correct, attempted, failed and metrics; the full record (machine, argv,
config sha256, samples, failures, spans) goes to perfbench/out/.

--smoke runs the same commands and gate at tiny sizes. Exit codes: 0 when
every gate passed, 1 when a gate or worker failed, 2 when the checkout or
the arguments are unusable.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.SHAPES)

# name -> unit; reported with --trace 0
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# name -> unit; reported with --trace 1
PER_LAYER = {
    "model.enumerate_partitions.busy_s": "s",
    "model.partitions_produced": "count",
    "model.format_structure.calls": "count",
    "model.normalize_structure.busy_s": "s",
    "analytic.player_payoffs.busy_s": "s",
    "analytic.player_payoffs.calls": "count",
    "analysis.stability_verdict.self_s": "s",
    "analysis.run_identity_checks.self_s": "s",
    "analysis.structure_reports.self_s": "s",
    "analysis.distinct_coalition_ratio": "ratio",
    "slotsim.simulate_slots.busy_s": "s",
    "slotsim.slots": "count",
    "slotsim.mslot_per_s": "Mslot/s",
    "geometry.estimate_encounter_matrix.busy_s": "s",
    "geometry.placements": "count",
    "geometry.mplace_per_s": "Mplace/s",
    "configio.load_config.busy_s": "s",
    "configio.resolve_encounter.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A fresh interpreter imports the CLI and loads the config, between two sets of
# reference-loop samples that it prints.
SETUP_CODE = """
import sys
sys.path.insert(0, 'perfbench')
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(3):
    probe.sample()
sys.path.insert(0, 'src')
import vanetgame.cli
from vanetgame.configio import load_config
load_config(sys.argv[1])
for _ in range(3):
    probe.sample()
print(repr(probe.refs))
"""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def machine_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "threads_pinned": {name: "1" for name in THREAD_ENV},
    }


def median(values):
    return statistics.median(values) if values else None


def time_setup(root: str, config_path: str, env: dict, probes: int) -> list[tuple]:
    """(wall, nominal) seconds of fresh interpreters that import the CLI and load
    the config, less the time of their reference-loop samples."""
    out = []
    for probe in range(probes + 1):
        start = time.perf_counter()
        # communicate() without a timeout blocks; with one, waiting polls in 50 ms steps
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, config_path], cwd=root,
                                env=env, stdout=subprocess.PIPE, text=True)
        stdout, _ = proc.communicate()
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if probe:   # the first probe warms the file and bytecode caches
            refs = ast.literal_eval(stdout.strip())
            wall -= sum(refs)
            out.append((wall, speed.nominal_seconds(wall, refs)))
    return out


def _fig(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def command_metrics(spec: dict, result: dict, setup: list) -> dict:
    """Every end-to-end figure of the report, from successful untraced samples.

    Times are medians in nominal seconds (see speed.py), each with its raw
    wall-clock median beside it as <name>_wall_s.
    """
    info, commands = spec["info"], result["commands"]
    done = [st for st in commands.values() if st["walls"]]
    n_pass = len(result["untraced_pass_s"])
    out = {
        "pass_s": _fig(sum(median(st["nominal"]) for st in done), "s", n_pass),
        "pass_wall_s": _fig(sum(median(st["walls"]) for st in done), "s", n_pass),
        "setup_s": _fig(median([nominal for _, nominal in setup]), "s", len(setup)),
        "setup_wall_s": _fig(median([wall for wall, _ in setup]), "s", len(setup)),
        "peak_rss_mb": _fig(result["peak_rss_mb"], "MB", 1),
    }
    for name, st in commands.items():
        n = len(st["walls"])
        out[f"{name}_s"] = _fig(median(st["nominal"]), "s", n)
        out[f"{name}_wall_s"] = _fig(median(st["walls"]), "s", n)
        if name == "simulate" and n:
            out["sim_mslot_per_s"] = _fig(info["slots"] / out["simulate_s"]["value"] / 1e6,
                                          "Mslot/s", n)
        if name == "encounter" and n:
            places = len(workloads.SWEEP.split(",")) * info["enc_slots"]
            out["encounter_mplace_per_s"] = _fig(places / out["encounter_s"]["value"] / 1e6,
                                                 "Mplace/s", n)
    attempted = sum(st["attempted"] for st in commands.values())
    failed = sum(st["failed"] for st in commands.values())
    out["failed_share"] = _fig(failed / attempted, "ratio", attempted)
    return out


def layer_metrics(result: dict) -> tuple[dict, bool]:
    """Per-layer metrics: medians of span times over traced passes, counts of one pass."""
    layers = result["layers"]
    first = layers[0]
    counts_repeat = all(lay["counts"] == first["counts"] for lay in layers)

    def times(kind, name):
        return median([lay[kind].get(name, 0.0) for lay in layers])

    def rate(count_name, busy_name):
        rates = [lay["counts"].get(count_name, 0) / lay["busy"][busy_name] / 1e6
                 for lay in layers if lay["busy"].get(busy_name)]
        return median(rates) or 0.0

    counts = first["counts"]
    values = {
        "model.enumerate_partitions.busy_s": times("busy", "model.enumerate_partitions"),
        "model.partitions_produced": counts.get("model.partitions_produced", 0),
        "model.format_structure.calls": counts.get("model.format_structure.calls", 0),
        "model.normalize_structure.busy_s": times("busy", "model.normalize_structure"),
        "analytic.player_payoffs.busy_s": times("busy", "analytic.player_payoffs"),
        "analytic.player_payoffs.calls": counts.get("analytic.player_payoffs.calls", 0),
        "analysis.stability_verdict.self_s": times("self", "analysis.stability_verdict"),
        "analysis.run_identity_checks.self_s": times("self", "analysis.run_identity_checks"),
        "analysis.structure_reports.self_s": times("self", "analysis.structure_reports"),
        "analysis.distinct_coalition_ratio": first["distinct_coalition_ratio"],
        "slotsim.simulate_slots.busy_s": times("busy", "slotsim.simulate_slots"),
        "slotsim.slots": counts.get("slotsim.slots", 0),
        "slotsim.mslot_per_s": rate("slotsim.slots", "slotsim.simulate_slots"),
        "geometry.estimate_encounter_matrix.busy_s":
            times("busy", "geometry.estimate_encounter_matrix"),
        "geometry.placements": counts.get("geometry.placements", 0),
        "geometry.mplace_per_s": rate("geometry.placements",
                                      "geometry.estimate_encounter_matrix"),
        "configio.load_config.busy_s": times("busy", "configio.load_config"),
        "configio.resolve_encounter.self_s": times("self", "configio.resolve_encounter"),
        "cli.self_s": times("self", "cli"),
        "cli.rows_written": result["rows_written"],
        "trace.overhead_s": median(result["traced_pass_s"]) - median(result["untraced_pass_s"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, \
        counts_repeat


def run_workload(root: str, name: str, args, deadline: float) -> dict:
    spec = workloads.build(name, args.seed, args.smoke)
    tag = f"{name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = os.path.join(root, "perfbench", "out", tag)
    os.makedirs(run_dir, exist_ok=True)
    config_path = os.path.join(run_dir, "config.json")
    config_bytes = (json.dumps(spec["config"], indent=1, sort_keys=True) + "\n").encode()
    with open(config_path, "wb") as fh:
        fh.write(config_bytes)
    env = child_env(root)
    record = {"workload": name, "why": workloads.WHY[name], "seed": args.seed,
              "smoke": args.smoke, "trace": bool(args.trace), "info": spec["info"],
              "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
              "run_dir": os.path.relpath(run_dir, root),
              "loop": "closed loop, one client: each command starts when the previous ends",
              "wait_s": 0.0,
              "wait_note": "one process, no queue or lock: every layer's waiting time is 0"}

    # half the set-up probes run before the worker and half after it
    record["setup_samples"] = time_setup(root, config_path, env, SETUP_PROBES // 2)

    task_path = os.path.join(run_dir, "task.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(task_path, "w") as fh:
        json.dump({"root": root, "spec": spec, "run_dir": run_dir, "config_path": config_path,
                   "seconds": args.seconds, "trace": bool(args.trace)}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), task_path,
                               result_path], cwd=root, env=env, timeout=timeout,
                              capture_output=True, text=True)
        worker_stderr = proc.stderr.strip().splitlines()[-5:]
    except subprocess.TimeoutExpired:
        worker_stderr = [f"worker exceeded {timeout:.0f} s and was killed"]
    if not os.path.exists(result_path):
        record.update(ok=False, error="worker produced no result", worker_stderr=worker_stderr)
        return record
    record["setup_samples"] += time_setup(root, config_path, env, SETUP_PROBES // 2)
    with open(result_path) as fh:
        result = json.load(fh)
    spans = result.pop("spans", [])
    with open(os.path.join(run_dir, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "busy"], "passes": spans}, fh)
    record.update(ok=result["ok"], error=result["error"], env=result.get("env"),
                  gate=result.get("gate"), commands=result.get("commands", {}),
                  peak_rss_mb=result["peak_rss_mb"], worker_stderr=worker_stderr)
    if not result["ok"]:
        return record
    record["report"] = command_metrics(spec, result, record["setup_samples"])
    record["untraced_pass_s"] = result["untraced_pass_s"]
    record["end_to_end"] = {name: {"value": record["report"][name]["value"], "unit": unit}
                            for name, unit in END_TO_END.items()}
    if args.trace:
        record["traced_pass_s"] = result["traced_pass_s"]
        record["missing_boundaries"] = result.get("missing_boundaries", [])
        record["per_layer"], record["counts_repeat"] = layer_metrics(result)
    return record


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(rec: dict) -> None:
    print(f"== {rec['workload']} (seed {rec['seed']}{', smoke' if rec['smoke'] else ''}"
          f"{', traced' if rec['trace'] else ''}): {rec['why']}")
    print(f"   config sha256 {rec['config_sha256']}")
    if not rec["ok"]:
        print(f"   FAILED: {rec['error']}")
        for line in rec.get("worker_stderr", []):
            print(f"   worker: {line}")
        return
    print(f"   gate: {json.dumps(rec['gate'], sort_keys=True)}")
    for name, st in rec["commands"].items():
        print(f"   {name}: {' '.join(st['argv'])}")
        for err in st["errors"]:
            print(f"      failed (exit {err['exit']}): {err['stderr']}")
    print("   end to end (untraced; median, samples; *_s in nominal seconds):")
    for key, v in rec["report"].items():
        print(f"      {key:<26} {_fmt(v['value']):>12} {v['unit']:<9} n={v['samples']}")
    if rec["trace"]:
        print(f"   per layer (median over {len(rec['traced_pass_s'])} traced passes; counts "
              f"{'repeat' if rec['counts_repeat'] else 'DIFFER'} across passes; "
              f"waiting time 0 in every layer):")
        for key, v in rec["per_layer"].items():
            print(f"      {key:<42} {_fmt(v['value']):>12} {v['unit']}")
        if rec["missing_boundaries"]:
            print(f"   boundaries not found: {rec['missing_boundaries']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same commands and gate")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vanetgame", "cli.py")):
        print(f"error: {root} is not a vanetgame checkout (src/vanetgame/cli.py missing)",
              file=sys.stderr)
        return 2

    machine = machine_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(root, name, args, deadline) for name in names]
    for rec in records:
        print_report(rec)
    env = next((rec["env"] for rec in records if rec.get("env")), None)
    print(f"machine: {json.dumps(machine, sort_keys=True)}; env: {json.dumps(env, sort_keys=True)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    with open(os.path.join(root, "perfbench", "out", f"results-{tag}.json"), "w") as fh:
        json.dump({"machine": machine, "env": env, "argv": sys.argv[1:], "workloads": records},
                  fh, indent=1, sort_keys=True)

    ok = all(rec["ok"] for rec in records)
    metrics = {}
    for rec in records:
        if rec["ok"]:
            picked = rec["per_layer"] if args.trace else rec["end_to_end"]
            prefix = f"{rec['workload']}." if len(records) > 1 else ""
            metrics.update({prefix + k: {"value": v["value"], "unit": v["unit"]}
                            for k, v in picked.items()})
    attempted = sum(st["attempted"] for rec in records for st in rec.get("commands", {}).values())
    failed = sum(st["failed"] for rec in records for st in rec.get("commands", {}).values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
