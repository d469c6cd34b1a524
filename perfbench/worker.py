"""One workload in one fresh interpreter: gate, then a timed closed loop.

    python3 perfbench/worker.py <task.json> <result.json>

The task file (written by run.py) holds the workload spec, the run
directory, the measuring time and the trace flag. The worker runs every
command once through vanetgame.cli.main and checks its output (the gate),
then repeats the command list until the measuring time is used up, checking
that each timed output is byte-identical to the gate's. With tracing on,
untraced and traced passes alternate, so the tracing overhead is measured in
the same process. Each timed command runs under a speed.SpeedProbe, which
gives its time in nominal seconds next to its wall time. Everything measured
goes to the result file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import SpeedProbe, nominal_seconds  # noqa: E402


def run_command(main, argv, probe: SpeedProbe | None = None):
    """(exit code, wall seconds, stdout, stderr) of one in-process CLI call.

    With a probe, the wall time excludes the probe's own samples.
    """
    out, err = io.StringIO(), io.StringIO()
    with probe.during() if probe else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI would exit 1 with this traceback
            rc = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    if probe:
        wall -= probe.paused
    return rc, wall, out.getvalue(), err.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    def __init__(self, task: dict) -> None:
        self.spec = task["spec"]
        self.info = self.spec["info"]
        self.n = self.info["K"] + self.info["M"]
        self.run_dir = task["run_dir"]
        self.config_path = task["config_path"]
        from vanetgame.cli import main
        self.main = main
        self.expected: dict = {}   # command name -> output bytes of its first good run
        self.stats = {c["name"]: {"argv": None, "walls": [], "nominal": [], "attempted": 0,
                                  "failed": 0, "errors": []}
                      for c in self.spec["commands"]}

    def argv(self, cmd: dict, tag: str) -> tuple[list, str | None]:
        out = os.path.join(self.run_dir, f"{tag}-{cmd['name']}.csv") if cmd["csv"] else None
        argv = [a.replace("{config}", self.config_path).replace("{out}", out or "")
                for a in cmd["argv"]]
        return argv, out

    def run(self, cmd: dict, tag: str, tracer=None, probe=None):
        """(output bytes or None on failure, wall seconds) of one command."""
        argv, out = self.argv(cmd, tag)
        stats = self.stats[cmd["name"]]
        stats["argv"] = [a.replace(self.run_dir, "<run_dir>") for a in argv]
        if tracer:
            idx = tracer.open("cli")
        rc, wall, stdout, stderr = run_command(self.main, argv, probe)
        if tracer:
            tracer.close(idx)
        stats["attempted"] += 1
        if rc != 0:
            stats["failed"] += 1
            line = (stderr.strip().splitlines() or [f"exit {rc}"])[-1]
            if len(stats["errors"]) < 3:
                stats["errors"].append({"exit": rc, "stderr": line})
            return None, wall
        return (_read(out) if out else stdout.encode()), wall

    # -- gate ----------------------------------------------------------------
    def check(self, cmd: dict, output: bytes) -> dict:
        """Gate one command's output; malformed output fails the gate too."""
        try:
            return self._check(cmd, output)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise gate.GateError(f"{cmd['name']}: malformed output ({exc!r})") from exc

    def _check(self, cmd: dict, output: bytes) -> dict:
        from vanetgame.analysis import structure_payoffs
        from vanetgame.analytic import player_payoffs
        from vanetgame.configio import load_config

        name, text, info = cmd["name"], output.decode(), self.info
        if name == "payoffs":
            blocks = info.get("blocks", [list(range(1, self.n + 1))])
            gate.check_payoffs(text, self.spec, blocks)
            return {"payoffs": "payments equal revenues; grand rate gains and fees match "
                               "brute force" if len(blocks) == 1 else
                               "payments equal revenues per coalition and range"}
        if name == "core":
            cfg = load_config(self.config_path).game
            grand = structure_payoffs((frozenset(range(1, self.n + 1)),), cfg)

            def coalition_payoffs(members):
                rep = player_payoffs(frozenset(members), cfg)
                return {m: rep.payoff_of(m) for m in members}
            gate.check_core(text, self.n, grand, coalition_payoffs)
            return {"core": "grand vector equals structure_payoffs; blocker dominates"}
        if name == "check":
            gate.require("[FAIL]" not in text, "check: exit 0 with a failed identity")
            return {"check": "no failed identity"}
        if name == "simulate":
            return {"simulate_max_abs_z": gate.check_simulate(text)}
        if name == "encounter":
            sweep = [float(d) for d in cmd["argv"][cmd["argv"].index("--d-sweep") + 1].split(",")]
            return {"encounter_max_abs_z": gate.check_encounter(text, info["K"] * info["M"],
                                                                sweep)}
        if name == "enumerate":
            gate.check_enumerate(text, self.n, info["structure_id"], info["structure"])
            return {"enumerate": f"Bell({self.n}) rows; structure {info['structure']} at id "
                                 f"{info['structure_id']}"}
        raise KeyError(name)

    def gate(self) -> dict:
        checks = {}
        for cmd in self.spec["commands"]:
            output, _ = self.run(cmd, "gate")
            if output is None:
                continue
            checks.update(self.check(cmd, output))
            self.expected[cmd["name"]] = output
        return checks

    # -- timed loop ----------------------------------------------------------
    def timed_pass(self, tracer=None) -> float:
        """Run the command list once; returns the pass's nominal seconds."""
        total = 0.0
        for cmd in self.spec["commands"]:
            probe = SpeedProbe()
            probe.sample()
            output, wall = self.run(cmd, "timed", tracer, probe)
            probe.sample()
            nominal = nominal_seconds(wall, probe.refs)
            total += nominal
            if output is None:
                continue
            if not tracer:
                self.stats[cmd["name"]]["walls"].append(wall)
                self.stats[cmd["name"]]["nominal"].append(nominal)
            expected = self.expected.get(cmd["name"])
            if expected is None:
                self.expected[cmd["name"]] = output
                self.check(cmd, output)
            elif output != expected:
                raise gate.GateError(f"{cmd['name']}: timed output differs from the gate's "
                                     f"(sha256 {hashlib.sha256(output).hexdigest()[:12]} vs "
                                     f"{hashlib.sha256(expected).hexdigest()[:12]})")
        return total

    def rows_written(self) -> int:
        """CSV data rows one pass writes."""
        return sum(self.expected[c["name"]].count(b"\n") - 1 for c in self.spec["commands"]
                   if c["csv"] and c["name"] in self.expected)

    def measure(self, seconds: float, trace: bool) -> dict:
        result = {"untraced_pass_s": [], "traced_pass_s": [], "layers": [], "spans": []}
        deadline = time.perf_counter() + seconds
        n_pass = 0
        while True:
            traced = trace and n_pass % 2 == 1
            if traced:
                tr = tracing.Tracer()
                tr.install()
                try:
                    nominal = self.timed_pass(tr)
                finally:
                    tr.uninstall()
                result["traced_pass_s"].append(nominal)
                result["layers"].append(tracing.layer_summary(tr))
                result["spans"].append(tr.spans)
                result["missing_boundaries"] = tr.missing
            else:
                result["untraced_pass_s"].append(self.timed_pass())
            n_pass += 1
            if time.perf_counter() >= deadline and n_pass >= (2 if trace else 1):
                return result


def main() -> int:
    task_path, result_path = sys.argv[1], sys.argv[2]
    with open(task_path) as fh:
        task = json.load(fh)
    sys.path.insert(0, os.path.join(task["root"], "src"))
    import numpy
    import vanetgame
    from vanetgame import _kernels

    result = {"ok": False, "error": None}
    src = os.path.realpath(os.path.join(task["root"], "src", "vanetgame"))
    if os.path.dirname(os.path.realpath(vanetgame.__file__)) != src:
        result["error"] = f"imported vanetgame from {vanetgame.__file__}, not the checkout"
    else:
        result["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "simulator_backend": _kernels.default_backend(),
        }
        work = Workload(task)
        try:
            result["gate"] = work.gate()
            result.update(work.measure(task["seconds"], task["trace"]))
            result["rows_written"] = work.rows_written()
            result["ok"] = True
        except gate.GateError as exc:
            result["error"] = f"correctness gate: {exc}"
        result["commands"] = work.stats
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
