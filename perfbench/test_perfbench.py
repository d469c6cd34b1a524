"""Tests of the benchmark itself: smoke run through the real gate, gate
rejections on tampered outputs, and refusal outside a checkout.

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from vanetgame.cli import main as cli_main  # noqa: E402
from vanetgame.model import enumerate_partitions  # noqa: E402


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_through_the_gate(trace):
    proc = _bench(["--workload", "all", "--smoke", "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    with open(os.path.join(ROOT, "perfbench", "out",
                           f"results-all-seed3-trace{trace}-smoke.json")) as fh:
        records = json.load(fh)["workloads"]
    commands = [st for rec in records for st in rec["commands"].values()]
    assert last["attempted"] == sum(st["attempted"] for st in commands) > 0
    assert last["failed"] == sum(st["failed"] for st in commands)
    assert all(len(st["errors"]) == min(3, st["failed"]) for st in commands)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(last["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS for m in expected}
    if trace:
        assert all(rec["counts_repeat"] for rec in records)
        assert all(rec["per_layer"]["cli.self_s"]["value"] >= 0.0 for rec in records)


def test_workload_inputs_repeat_per_seed():
    for name in run.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5)["config"] != workloads.build(name, 6)["config"]


def test_structure_id_matches_the_program_enumeration():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        assert workloads.bell(n) == len(parts)
        for idx, cs in enumerate(parts, start=1):
            assert workloads.structure_id([sorted(b) for b in cs], n) == idx


def test_gate_rejects_tampered_outputs():
    spec = workloads.build("core-n12", 1, smoke=True)
    K, M = spec["info"]["K"], spec["info"]["M"]
    n = K + M
    cfg_path = os.path.join(ROOT, "perfbench", "out", "gate-test-config.json")
    os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(spec["config"], fh)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["payoffs", "--config", cfg_path]) == 0
    good = buf.getvalue()
    blocks = [list(range(1, n + 1))]
    gate.check_payoffs(good, spec, blocks)
    lines = good.splitlines()
    for quantity in ("payment", "rate_gain"):
        pos = next(i for i, line in enumerate(lines) if f",1,{quantity}," in line)
        value = float(lines[pos].rsplit(",", 1)[1])
        bad = lines[:pos] + [lines[pos].rsplit(",", 1)[0] + f",{value + 1e-9!r}"] + lines[pos + 1:]
        with pytest.raises(gate.GateError):
            gate.check_payoffs("\n".join(bad) + "\n", spec, blocks)

    header = "player,quantity,estimate,stderr,analytic,n_slots,seed\n"
    gate.check_simulate(header + "1,throughput,0.5,0.01,0.51,100,1\n")
    with pytest.raises(gate.GateError):
        gate.check_simulate(header + "1,throughput,0.5,0.01,0.6,100,1\n")

    enum = "id,structure,normalized,n_coalitions\n1,\"1,2\",\"1,2\",1\n2,1|2,1|2,2\n"
    gate.check_enumerate(enum, 2, 2, "1|2")
    with pytest.raises(gate.GateError):
        gate.check_enumerate(enum, 2, 1, "1|2")
    with pytest.raises(gate.GateError):
        gate.check_enumerate(enum.split("2,1|2", 1)[0], 2, 1, "1,2")


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "core-n12", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
