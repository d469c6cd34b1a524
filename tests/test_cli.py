import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import vanetgame
from vanetgame.cli import build_parser, main
from vanetgame.configio import ConfigError, load_config
from conftest import SHIPPED_CONFIG, shipped_doc


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(shipped_doc()))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_enumerate_lists_every_structure(capsys):
    assert main(["enumerate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,structure,normalized,n_coalitions"
    assert len(lines) == 1 + 15
    structures = {row.split(",", 1)[1] for row in lines[1:]}
    assert '"1,2,3,4","1,2,3,4",1' in structures


def test_enumerate_writes_csv_and_manifest(tmp_path, config_file):
    out = tmp_path / "partitions.csv"
    assert main(["enumerate", "--config", config_file, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["id", "structure", "normalized", "n_coalitions"]
    assert len(rows) == 16
    manifest = json.loads((tmp_path / "partitions.csv.manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert manifest["version"]
    assert (manifest["n_players"], manifest["K"], manifest["rows"]) == (4, 2, 15)
    assert "seed" not in manifest   # enumerate draws nothing


def _scalar_doc(K, M):
    """A config document of K vehicles and M RSUs with every parameter a scalar."""
    return {"game": {"K": K, "M": M, "p": 0.5, "delta": 0.5, "price": 1.5, "cost_fwd": 0.5,
                     "cost_rcv": 0.2, "alpha": 10.0, "beta": 1.0, "gamma": 1.0, "mu": 1.0},
            "encounter": {"matrix": 0.5}}


def _scalar_config(tmp_path, K, M):
    """A config file of K vehicles and M RSUs with every parameter given as a scalar."""
    path = tmp_path / f"k{K}m{M}.json"
    path.write_text(json.dumps(_scalar_doc(K, M)))
    return str(path)


# sha256 of the enumerate CSV for 10 players, frozen from the enumeration that
# built frozensets and re-sorted them for every row; (1, 9) frozen from the walker
# that built every row from its full partition; (5, 6), at 11 players, frozen from
# the walker that batched the last player and wrote through the csv module
ENUMERATE_SHA256 = {
    (1, 9): "ebac7c5e2970e53e1338253c9de8b34fe05fdbdaaa2eb5045eb5412239804684",
    (4, 6): "2e08d7e772a7402ecc983399c62e142942158fd9e35cb8b7d95af8b7e16ab94d",
    (5, 6): "71687c5c8c1e96d2eb1d3ae24bce51e367be343dac95558329b669e2ac370590",
    (10, 0): "a92da9633a2a074e989e5cc52a8875bc896d69c34a440bc887dbd727c708167c",
}


@pytest.mark.parametrize("K, M", sorted(ENUMERATE_SHA256))
def test_enumerate_csv_matches_frozen_hash(tmp_path, capsys, K, M):
    config = _scalar_config(tmp_path, K, M)
    out = tmp_path / "partitions.csv"
    assert main(["enumerate", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {vanetgame.bell_number(K + M)} rows to {out}\n"
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == ENUMERATE_SHA256[(K, M)]
    assert main(["enumerate", "--config", config]) == 0
    assert capsys.readouterr().out.encode() == data


# sha256 of Monte Carlo CSVs on the built-in config, frozen from the simulator
# and placement estimator that each built their own distance block. On the
# grid, node distances can equal a range exactly, which pins "within range" to <=.
# The 40,000-slot sweeps (unsorted, a repeated range, two chunks) were frozen from
# the estimator that redrew the placements for every range.
MONTE_CARLO_SHA256 = {
    "encounter --slots 20000 --d-sweep 0.1,0.3":
        "b5379de89b627f9780ba3b90e8efdcf91c8441d4826b88eeed28e7ab49118f38",
    "encounter --slots 20000 --d-sweep 0.2,0.3 --placement grid":
        "a683af4c4b383371165f85bbe355923672fa094425fab9a11884c6b99816afe6",
    "encounter --slots 40000 --d-sweep 0.3,0.1,0.3,0.5 --seed 7":
        "2e487013f3d2832e442a14570105a673b6a77ec6b0eea7367446beb28c97e4b2",
    "encounter --slots 40000 --d-sweep 0.3,0.1,0.3,0.5 --seed 7 --placement grid":
        "fd98e9adaaba877d5d812e5cdb47102fde2e32e2f5534a7fdf1381f2c4f350e1",
    # refrozen when estimates moved from sums of squares to shifted event counts: the
    # counters are unchanged, and 6 estimates and 4 stderrs moved by 1 ulp
    "simulate --slots 20000 --structure 1,3|2,4 --seed 5":
        "bad13c5bada4865357ae1e88ce0ab3ee29c431575eb3df106a5a616f7730e3b4",
}


@pytest.mark.parametrize("command", sorted(MONTE_CARLO_SHA256))
def test_monte_carlo_csv_matches_frozen_hash(capsys, command):
    assert main(command.split()) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == MONTE_CARLO_SHA256[command]


DATA = pathlib.Path(__file__).parent / "data"

# sha256 of payoffs CSVs, frozen from the scalar closed forms that evaluated
# one coalition at a time; {data} is the tests/data directory
PAYOFFS_SHA256 = {
    "payoffs":
        "62e85c68798e526375413725274b9ff8b2f4e84b9165f42bc7a5a956f3edc5c6",
    "payoffs --config {data}/core_k4m8.json":
        "33c3a37dd2431a0c988b1444add12ae834a9e0abdf95b6fca264c31c049b8855",
    "payoffs --config {data}/core_k4m8.json --structure 1|2|3|4|5|6|7|8|9|10|11|12":
        "48a3e48b956553d4c7744bab0ad5f6fc3041a478cbecc96d8bf41a5eada09de6",
    "payoffs --config {data}/core_k3m4_edges.json":
        "dd79d94ea26a92170a83a3595ebaea6fb193e8c70fd8235c3a74b49c1c1c6e40",
    "payoffs --config {data}/core_k3m4_edges.json --structure 1,4,5|2,6|3,7":
        "49b7a672986ccc29b220cc5eef191e61ea8d70f697ca965c0e3b640376846e97",
    "payoffs --config {data}/core_k5m0.json":
        "c3747a7f2bd70a4bc1d78f8cecb25d54a37e73a7dbbacb39691b71b94dcd0cf3",
    "payoffs --d-sweep 0.1,0.3,0.5 --structure 1,3|2,4":
        "dc221ea966c9bf5aa5adf52ce7af2340c705cb55c9c3c55d9dfaea704984983d",
}


@pytest.mark.parametrize("command", sorted(PAYOFFS_SHA256))
def test_payoffs_csv_matches_frozen_hash(capsys, command):
    assert main(command.replace("{data}", str(DATA)).split()) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == PAYOFFS_SHA256[command]


def test_payoffs_all_singletons(capsys):
    assert main(["payoffs", "--structure", "1|2|3|4"]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    payoff = {(r[1], r[2]): float(r[3]) for r in rows if r[2] == "payoff"}
    assert payoff[("1", "payoff")] == pytest.approx(2.4, abs=1e-12)
    assert payoff[("2", "payoff")] == pytest.approx(2.4, abs=1e-12)
    assert payoff[("3", "payoff")] == 0.0
    assert payoff[("4", "payoff")] == 0.0


def test_payoffs_structure_by_id_matches_blocks(capsys):
    assert main(["payoffs", "--structure", "1"]) == 0
    by_id = capsys.readouterr().out
    assert main(["payoffs", "--structure", "1,2,3,4"]) == 0
    by_blocks = capsys.readouterr().out
    assert by_id == by_blocks


def test_payoffs_d_sweep_produces_rows_per_range(tmp_path, config_file):
    out = tmp_path / "payoffs.csv"
    assert main(["payoffs", "--config", config_file, "--d-sweep", "0.1,0.3",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    d_values = {row[0] for row in rows[1:]}
    assert d_values == {"0.1", "0.3"}


def test_encounter_csv_is_byte_identical_across_runs(tmp_path, config_file):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["encounter", "--config", config_file, "--d-sweep", "0.2,0.4",
            "--slots", "20000", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = read_csv(out_a)
    assert rows[0] == ["d_km", "vehicle", "rsu", "estimate", "stderr", "analytic"]
    assert len(rows) == 1 + 2 * 4   # two sweep points, four pairs


@pytest.mark.parametrize("flags, used, law", [
    # the built-in seed, the file's slot count
    ([], (20_240_808, 2_000, "continuous"), "analytic_pair_encounter"),
    # z measures Monte Carlo error: against the grid's own law, not the continuous one
    (["--seed", "5", "--slots", "1000", "--placement", "grid"], (5, 1_000, "grid"),
     "grid_pair_encounter"),
], ids=["from-config", "from-flags"])
def test_encounter_manifest_records_what_the_run_used(tmp_path, flags, used, law):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**shipped_doc(), "geometry": {"n_slots": 2_000}}))
    out = tmp_path / "enc.csv"
    assert main(["encounter", "--config", str(config), "--d-sweep", "0,0.2", *flags,
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "enc.csv.manifest.json").read_text())
    assert (manifest["seed"], manifest["slots"], manifest["placement"]) == used
    assert "geometry_seed" not in manifest and "n_slots" not in manifest
    assert manifest["max_abs_z_law"] == law
    reference = getattr(vanetgame.geometry, law)
    z = {(float(d), int(i), int(j)): abs(float(est) - reference(float(d))) / float(se)
         for d, i, j, est, se, _ in read_csv(out)[1:] if float(se) > 0}
    assert manifest["max_abs_z"] == max(z.values())
    assert manifest["max_abs_z_at"] == list(max(z, key=z.get))
    assert manifest["max_abs_z_p"] == pytest.approx(_sidak(max(z.values()), len(z)), rel=1e-9)
    assert (manifest["n_compared"], manifest["zero_se_mismatches"]) == (len(z), 0)
    assert manifest["mplace_per_s"] > 0


def _sidak(z, n):
    """The family-wise p-value of a largest |z| over n normal rows, written out directly."""
    return 1.0 - (1.0 - math.erfc(z / math.sqrt(2.0))) ** n


def test_max_abs_z_fields_on_hand_computed_rows():
    rows = [(1, "throughput", 0.5, 0.25, 0.0, 100, 7),   # z = 2
            (1, "payment", 1.0, 1.0, 1.0, 100, 7),       # z = 0
            (2, "payoff", -0.5, 0.5, 0.0, 100, 7),       # z = 1
            (5, "cost", 0.7, 0.0, 0.7, 100, 7),          # stderr 0, exact
            (5, "revenue", 0.1, 0.0, 0.0, 100, 7)]       # stderr 0, off by 0.1
    fields = vanetgame.cli._max_abs_z(rows, 2)
    tail = 0.04550026389635842   # P(|Z| >= 2) = erfc(sqrt 2)
    assert fields == {"max_abs_z": 2.0, "max_abs_z_at": [1, "throughput"],
                      "max_abs_z_p": pytest.approx(1.0 - (1.0 - tail) ** 3, rel=1e-12),
                      "n_compared": 3, "zero_se_mismatches": 1}
    # the first row of the largest z names it; a z of 0 alone has p-value 1
    assert vanetgame.cli._max_abs_z([(0.3, 1, 2, 1.0, 0.5, 0.0)] * 2, 3)["max_abs_z_at"] \
        == [0.3, 1, 2]
    assert vanetgame.cli._max_abs_z([(0.3, 1, 2, 1.0, 0.5, 1.0)], 3)["max_abs_z_p"] == 1.0
    # z = 20: 1 - (1 - 5.5e-89)^3 rounds to 0.0, the p-value is 3 * 5.5e-89
    far = vanetgame.cli._max_abs_z([(1, "x", 20.0, 1.0, 0.0), (1, "y", 0.0, 1.0, 0.0),
                                    (1, "z", 0.0, 1.0, 0.0)], 2)
    assert _sidak(20.0, 3) == 0.0
    assert far["max_abs_z_p"] == pytest.approx(3.0 * math.erfc(20.0 / math.sqrt(2.0)), rel=1e-12)
    assert vanetgame.cli._max_abs_z([(1, "x", 1.0, 0.0, 1.0)], 2) == {
        "max_abs_z": None, "max_abs_z_at": None, "max_abs_z_p": None, "n_compared": 0,
        "zero_se_mismatches": 0}
    # stderr 0: a miss is judged against ABS_TOL * max(1, |estimate|, |exact|)
    big = 2.0 ** 40
    rows = [(1, "x", big + 2 ** -12, 0.0, big), (1, "y", big * (1 + 1e-9), 0.0, big)]
    assert vanetgame.cli._max_abs_z(rows, 2)["zero_se_mismatches"] == 1
    # and an infinite scale misses whatever the gap: inf is never within inf of 1.0
    rows = [(1, "x", math.inf, 0.0, 1.0), (1, "y", math.nan, 0.0, 1.0)]
    assert vanetgame.cli._max_abs_z(rows, 2)["zero_se_mismatches"] == 2


def test_encounter_manifest_reports_no_z_without_a_positive_stderr(tmp_path):
    out = tmp_path / "enc.csv"
    # a zero range never meets anyone on continuous placement: every stderr is 0
    assert main(["encounter", "--d-sweep", "0", "--slots", "500", "--out", str(out)]) == 0
    assert {row[4] for row in read_csv(out)[1:]} == {"0.0"}
    manifest = json.loads((tmp_path / "enc.csv.manifest.json").read_text())
    assert (manifest["max_abs_z"], manifest["n_compared"], manifest["zero_se_mismatches"]) \
        == (None, 0, 0)
    assert manifest["max_abs_z_at"] is manifest["max_abs_z_p"] is None


def test_core_reports_membership(capsys, config_file):
    assert main(["core", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "grand vector in core: yes" in out
    assert "sufficient conditions hold: no" in out
    assert "witness" in out


def test_core_invariant_breach_exits_4(monkeypatch, capsys):
    # a blocker that does not dominate on re-evaluation: one stderr line, exit 4
    original = vanetgame.analysis._sweep
    monkeypatch.setattr(vanetgame.analysis, "_sweep",
                        lambda cfg, grand, x: (*original(cfg, grand, x)[:2], frozenset({1})))
    assert main(["core"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invariant breach: internal invariant breach: blocker [1] "
                            "does not dominate on re-evaluation\n")


def test_simulate_emits_comparison_rows(tmp_path, config_file):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", config_file, "--structure", "1,2,3,4",
                 "--slots", "20000", "--seed", "3", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["player", "quantity", "estimate", "stderr", "analytic",
                       "n_slots", "seed"]
    assert len(rows) == 1 + 12
    z = {}
    for row in rows[1:]:
        est, se, ana = float(row[2]), float(row[3]), float(row[4])
        assert abs(est - ana) <= max(4 * se, 5e-3)
        if se > 0:
            z[int(row[0]), row[1]] = abs(est - ana) / se
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["max_abs_z"] == max(z.values())
    assert manifest["max_abs_z_at"] == list(max(z, key=z.get))
    assert manifest["max_abs_z_p"] == pytest.approx(_sidak(max(z.values()), len(z)), rel=1e-9)
    assert (manifest["n_compared"], manifest["zero_se_mismatches"]) == (len(z), 0)
    assert manifest["mslot_per_s"] > 0
    # without --seed the run uses seed 0, and the manifest says so
    assert main(["simulate", "--slots", "100", "--out", str(out)]) == 0
    assert {row[-1] for row in read_csv(out)[1:]} == {"0"}
    assert json.loads((tmp_path / "sim.csv.manifest.json").read_text())["seed"] == 0
    # with every vehicle idle no estimate has a positive stderr: no z to report
    idle = tmp_path / "idle.json"
    doc = shipped_doc()
    doc["game"]["p"] = [0.0, 0.0]
    idle.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(idle), "--slots", "100", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "sim.csv.manifest.json").read_text())["max_abs_z"] is None


def test_simulate_manifest_counts_zero_stderr_mismatches(tmp_path, monkeypatch):
    # vehicle 1 always transmits alone and vehicle 2 never: their estimates are exact,
    # every stderr is 0, and max_abs_z sees nothing even when the kernel miscounts
    config = tmp_path / "cfg.json"
    doc = shipped_doc()
    doc["game"]["p"] = [1.0, 0.0]
    config.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--config", str(config), "--structure", "1|2|3|4", "--slots", "100",
            "--out", str(out)]

    def fields():
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        return manifest["max_abs_z"], manifest["n_compared"], manifest["zero_se_mismatches"]

    assert fields() == (None, 0, 0)
    original = vanetgame.slotsim._count_chunk

    def miscount(u, p, layout, counts):   # one success too many for vehicle 1
        original(u, p, layout, counts)
        counts["success_no_relay"][0] += 1

    monkeypatch.setattr(vanetgame.slotsim, "_count_chunk", miscount)
    assert fields() == (None, 0, 2)   # its throughput and its payoff


@pytest.mark.parametrize("delta, slots", [(1 / 3, 100_000), (0.3, 1_000)])
def test_simulate_manifest_counts_a_deterministic_run_as_exact(tmp_path, delta, slots):
    # one vehicle always relayed by the one RSU: every stderr is 0.0 and every estimate exact
    config = tmp_path / "cfg.json"
    game = {"K": 1, "M": 1, "p": 1.0, "delta": delta, "price": 1.5, "cost_fwd": 0.5,
            "cost_rcv": 0.2, "alpha": 10.0, "beta": 1.0, "gamma": 1.0, "mu": 1.0}
    config.write_text(json.dumps({"game": game, "encounter": {"matrix": 1.0}}))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--slots", str(slots),
                 "--out", str(out)]) == 0
    assert {row[3] for row in read_csv(out)[1:]} == {"0.0"}
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert (manifest["n_compared"], manifest["zero_se_mismatches"]) == (0, 0)


@pytest.mark.parametrize("argv", [["enumerate"], ["simulate", "--slots", "100"]])
def test_manifest_records_python_and_numpy_versions(tmp_path, config_file, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", config_file, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__


def test_check_passes_on_default_config(capsys, config_file):
    assert main(["check", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 8


def test_negative_zero_entries_print_as_zero(tmp_path, capsys):
    """A config whose zeros are -0.0 is the config with 0.0: payoffs, core and
    check print the same bytes for both, with no negative zero."""
    printed = []
    for zero in (0.0, -0.0):
        doc = shipped_doc()
        game, enc = doc["game"], doc["encounter"]["matrix"]
        game["p"][0] = zero
        game["price"] = [[zero] * game["K"] for _ in range(game["M"])]
        game["cost_rcv"] = [[zero] * game["K"] for _ in range(game["M"])]
        for k in range(min(game["K"], game["M"])):
            enc[k][k] = zero
        path = tmp_path / f"zero{zero}.json"
        path.write_text(json.dumps(doc))
        for command in ("payoffs", "core", "check"):
            main([command, "--config", str(path)])
            printed.append(capsys.readouterr().out)
    assert printed[3:] == printed[:3]
    assert ",-0.0" not in printed[3]


def test_check_samples_partitions_of_all_players_beyond_eight(capsys):
    config = pathlib.Path(__file__).parent / "data" / "core_k4m8.json"
    assert main(["check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 8


def test_structure_id_out_of_range_exits_3(capsys):
    assert main(["payoffs", "--structure", "16"]) == 3
    assert "structure id 16 out of range 1..15" in capsys.readouterr().err


def test_structure_ids_resolve_in_enumeration_order(capsys):
    assert main(["enumerate"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    for idx, blocks, _, _ in rows:
        assert main(["payoffs", "--structure", idx]) == 0
        by_id = capsys.readouterr().out
        assert main(["payoffs", "--structure", blocks]) == 0
        assert capsys.readouterr().out == by_id


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# --seed only where the command draws random numbers, --out only where it writes CSV
@pytest.mark.parametrize("argv", [["enumerate", "--seed", "1"], ["payoffs", "--seed", "1"],
                                  ["core", "--seed", "1"], ["check", "--seed", "1"],
                                  ["core", "--out"], ["check", "--out"]],
                         ids=lambda argv: "-".join(a.strip("-") for a in argv[:2]))
def test_flag_a_subcommand_does_not_use_exits_2(tmp_path, capsys, argv):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "x")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert not (tmp_path / "x").exists()


def test_readme_quick_start_commands_parse():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("vanetgame ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


@pytest.mark.parametrize("command", [["core"], ["payoffs"]])
def test_repeated_commands_leave_no_argparse_cycles(capsys, command):
    main(command)   # the first call may build the parser
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(command)
        gc.collect()
        cyclic = [obj for obj in gc.garbage if getattr(obj, "__module__", None) == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic, f"{len(cyclic)} argparse objects left in reference cycles"


def test_invalid_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = shipped_doc()
    doc["game"]["p"] = [0.6, 1.7]
    doc["game"]["delta"] = [[0.5], [0.5]]
    bad.write_text(json.dumps(doc))
    assert main(["enumerate", "--config", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "probability out of range" in err
    assert "shape mismatch" in err


def _malformed(edit):
    doc = shipped_doc()
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    ([shipped_doc()], "top level must be a JSON object"),
    (_malformed(lambda d: d.update(encounter=[[0.5, 0.5], [0.5, 0.5]])),
     "'encounter' section must be a JSON object"),
    (_malformed(lambda d: d.update(geometry=[1.0])), "'geometry' section must be a JSON object"),
    (_malformed(lambda d: d["game"].update(K="x")),
     "config error: K: count must be an integer, got 'x'\n"),
    (_malformed(lambda d: d.update(encounter={"matrix": "ab"})),
     "config error: enc: entries must be real numbers, got 'ab'\n"),
    (_malformed(lambda d: d.update(encounter={"matrix": [[0.5, "0.5"], [0.5, 0.5]]})),
     "config error: enc: entries must be real numbers, got '0.5'\n"),
    (_malformed(lambda d: d.update(encounter={"matrix": [[0.5, True], [0.5, 0.5]]})),
     "config error: enc: entries must be real numbers, got True\n"),
    (_malformed(lambda d: d["game"].update(p=["0.6", True])),
     "config error: p: entries must be real numbers, got '0.6'\n"),
    (_malformed(lambda d: d["game"].update(alpha=True)),
     "config error: alpha: entries must be real numbers, got True\n"),
    (_malformed(lambda d: d["game"].update(delta=[[0.5, 0.5], [0.5, [None]]])),
     "config error: delta: entries must be real numbers, got None\n"),
    (_malformed(lambda d: d["geometry"].update(side_km="1.0")),
     "config error: geometry: side_km: entries must be real numbers, got '1.0'\n"),
    (_malformed(lambda d: d["geometry"].update(range_km=True)),
     "config error: geometry: range_km: entries must be real numbers, got True\n"),
    (_malformed(lambda d: d["geometry"].update(range_km=[0.2, "0.2"])),
     "config error: geometry: range_km: entries must be real numbers, got '0.2'\n"),
    (_malformed(lambda d: d.update(encounter=None)), "'encounter' section must be a JSON object"),
    (_malformed(lambda d: d["geometry"].update(n_slots=1.9)),
     "config error: geometry: n_slots must be a positive integer, got 1.9\n"),
    (_malformed(lambda d: d["geometry"].update(n_slots=True)),
     "config error: geometry: n_slots must be a positive integer, got True\n"),
    (_malformed(lambda d: d["geometry"].update(seed="7")),
     "config error: geometry: seed must be a nonnegative integer, got '7'\n"),
    (_malformed(lambda d: d["geometry"].update(seed=2.5)),
     "config error: geometry: seed must be a nonnegative integer, got 2.5\n"),
    # json.dumps writes inf as Infinity, which loads as the same value as 1e400
    (_malformed(lambda d: d["geometry"].update(n_slots=float("inf"))),
     "config error: geometry: n_slots must be a positive integer, got inf\n"),
    # json.dumps writes NaN and Infinity, which json.loads reads back
    (_malformed(lambda d: d["geometry"].update(side_km=float("nan"))),
     "side_km must be positive and finite"),
    (_malformed(lambda d: d["geometry"].update(side_km=float("inf"))),
     "side_km must be positive and finite"),
    (_malformed(lambda d: d["geometry"].update(range_km=[0.2, float("nan")])),
     "transmission ranges must be nonnegative and finite"),
    (_scalar_doc(0, 2), "config error: K: need at least one vehicle\n"),
    (_malformed(lambda d: d["game"].update(p=[0.6, float("nan")])),
     "config error: p: non-finite entries\n"),
    (_malformed(lambda d: d["encounter"].update(matrix=[[0.5, 0.5], [0.5]])),
     "config error: enc: nested lists do not form an array: "),
    (_malformed(lambda d: d["geometry"].update(placment="grid")),
     "config error: geometry: unknown key 'placment'\n"),
    (_malformed(lambda d: d["game"].update(alhpa=3)), "config error: game: unknown key 'alhpa'\n"),
    (_malformed(lambda d: d.update(encouter={})), "config error: unknown section 'encouter'\n"),
    (_malformed(lambda d: d["geometry"].update(range_km=[0.2, 0.2, 0.2])),
     "config error: geometry.range_km needs 2 entries, got 3\n"),
    (_malformed(lambda d: [d["game"].pop(key) for key in ("mu", "p")]),
     "bad.json: 'game' section missing keys ['p', 'mu']\n"),
], ids=["list-document", "list-encounter", "list-geometry", "string-K", "string-matrix",
        "string-matrix-entry", "bool-matrix-entry", "string-p", "bool-alpha", "null-delta",
        "string-side_km", "bool-range_km", "string-range_km-entry", "null-encounter", "float-n_slots", "bool-n_slots", "string-seed", "float-seed",
        "inf-n_slots", "nan-side_km", "inf-side_km", "nan-range_km", "K-0", "nan-p",
        "ragged-matrix", "typo-geometry-key", "typo-game-key", "typo-section",
        "long-range_km", "missing-game-keys"])
def test_malformed_config_documents_exit_3(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["core", "--config", str(bad)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["core"], ["check"], ["payoffs"],
                                     ["simulate", "--slots", "1000"]],
                         ids=["core", "check", "payoffs", "simulate"])
def test_non_finite_payoffs_exit_3(tmp_path, capsys, command):
    doc = shipped_doc()
    doc["game"].update(delta=1e308, price=1e308, alpha=1e308, beta=1e308)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy overflow warning ahead of the error line
        assert main([*command, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""   # no verdict, result line or row from a NaN payoff
    assert err == "error: payoff of player 1 in its coalition is not finite\n"


@pytest.mark.parametrize("game, message", [
    ({"cost_fwd": 1.7e308, "cost_rcv": 1.7e308}, "cost of player 2"),
    ({"delta": 1.7e308, "price": 1.7e308, "beta": -1.0}, "payoff of player 1"),
], ids=["cost", "payoff"])
def test_simulated_slot_value_past_the_float_range_exits_3(tmp_path, capsys, game, message):
    # the closed forms are finite (the relay happens half the time), one slot's value is not
    doc = {"game": {"K": 1, "M": 1, "p": 0.5, "delta": 1.0, "price": 0.5, "cost_fwd": 1.0,
                    "cost_rcv": 1.0, "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "mu": 1.0, **game},
           "encounter": {"matrix": 0.5}}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    assert main(["payoffs", "--config", str(path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--slots", "300", "--config", str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message} in one slot is not finite\n")


@pytest.mark.parametrize("argv, players, message", [
    (["core"], (1, 20), "error: enumeration bound exceeded: 21 players > 20\n"),
    (["payoffs", "--structure", "5"], (1, 12),
     "error: structure ids require at most 12 players; pass explicit blocks\n"),
], ids=["core-21-players", "structure-id-13-players"])
def test_player_count_past_a_bound_exits_3(tmp_path, capsys, argv, players, message):
    assert main([*argv, "--config", _scalar_config(tmp_path, *players)]) == 3
    assert capsys.readouterr() == ("", message)


def test_failing_identity_prints_fail_and_exits_4(monkeypatch, capsys):
    # a negative tolerance fails every residual identity, each gap being >= 0
    monkeypatch.setattr(vanetgame.analysis, "ABS_TOL", -1.0)
    assert main(["check"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] scheduled-share total matches 1 - P(all idle): max residual " in out


def test_check_passes_a_config_with_a_tiny_encounter_probability(tmp_path, capsys):
    doc = _scalar_doc(1, 1)   # 1 - (1 - 3e-17) is 0.0, which failed by 1e5 * 3e-17
    doc["game"]["delta"], doc["encounter"]["matrix"] = 1e5, 3e-17
    path = tmp_path / "tiny-encounter.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_nan_oracle_fails_its_identity_by_coalition(monkeypatch, capsys):
    # an oracle that returns NaN must not pass as a zero residual
    def nan_oracle(q, w):
        return np.full(q.shape[0], np.nan), np.full(q.shape, np.nan)

    monkeypatch.setattr(vanetgame.analysis, "_oracle_batch", nan_oracle)
    assert main(["check"]) == 4
    out = capsys.readouterr().out
    assert ("[FAIL] grouped sums match brute-force enumeration: max residual nan "
            "(coalition [1, 2, 3])") in out
    assert out.count("[FAIL]") == 1


def test_infinite_oracle_fails_its_identity_by_coalition(monkeypatch, capsys):
    # an infinite residual has an infinite scale, and the pass rule takes no infinite scale
    def inf_oracle(q, w):
        return np.full(q.shape[0], np.inf), np.full(q.shape, np.inf)

    monkeypatch.setattr(vanetgame.analysis, "_oracle_batch", inf_oracle)
    assert main(["check"]) == 4
    out = capsys.readouterr().out
    assert ("[FAIL] grouped sums match brute-force enumeration: max residual inf "
            "(coalition [1, 2, 3])") in out
    assert out.count("[FAIL]") == 1


def test_core_names_an_rsu_weight_witness(tmp_path, capsys):
    doc = shipped_doc()
    doc["game"]["gamma"] = [1.0, 0.0]
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(doc))
    assert main(["core", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "weights strictly positive: no  (witness: player 4)\n" in out


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000 + "]" * 100_000, "is not valid JSON"),
    # deep, but within what the JSON decoder takes: the value checks walk it without recursion
    ('{"game": {"K": 2, "M": 2, "p": %s0.6%s, "delta": 0.5, "price": 1.5, "cost_fwd": 0.5, '
     '"cost_rcv": 0.2, "alpha": 10, "beta": 1, "gamma": 1, "mu": 1}}' % ("[" * 900, "]" * 900),
     "config error: p: nested lists do not form an array: "),
], ids=["deep-document", "deep-p"])
def test_deeply_nested_config_exits_3(tmp_path, capsys, text, message):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    assert main(["core", "--config", str(deep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err, err


@pytest.mark.parametrize("slots", ["0", "-5"])
def test_encounter_nonpositive_slots_exit_3(capsys, slots):
    for command in (["encounter", "--d-sweep", "0.2"], ["simulate"]):
        assert main([*command, "--slots", slots]) == 3
        assert capsys.readouterr().err == f"error: n_slots must be a positive integer, got {slots}\n"


@pytest.mark.parametrize("command, seed", [("simulate", "-1"), ("encounter", "-3")])
def test_negative_seed_exits_3_naming_the_seed(capsys, command, seed):
    assert main([command, "--slots", "10", "--seed", seed]) == 3
    assert capsys.readouterr().err == f"error: seed must be a nonnegative integer, got {seed}\n"


@pytest.mark.parametrize("command", ["payoffs", "encounter"])
def test_nan_range_in_sweep_exits_3(capsys, command):
    assert main([command, "--d-sweep", "nan"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["enumerate"], ["encounter", "--slots", "10"],
                                  ["payoffs"], ["simulate", "--slots", "100"]],
                         ids=lambda argv: argv[0])
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "missing-dir" / "out.csv"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1, err


def test_encounter_checks_every_range_before_estimating(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["encounter", "--slots", "10", "--d-sweep", "1e308"]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_reader_closing_the_pipe_early_gets_no_traceback(tmp_path):
    cmd = [sys.executable, "-m", "vanetgame.cli", "enumerate", "--config",
           _scalar_config(tmp_path, 4, 6)]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vanetgame.__file__).parents[1])}
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline() == b"id,structure,normalized,n_coalitions\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err.seek(0)
        stderr = err.read()
    assert b"Traceback" not in stderr, stderr.decode()


def test_missing_config_file_exits_3(capsys):
    assert main(["core", "--config", "/nonexistent/cfg.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_bad_structure_spec_exits_3(tmp_path, capsys):
    for spec, players, reason in [
        ("1,2|9", None, "player 9 out of range 1..4"),
        ("\u00b2", None, "non-integer member"),   # a digit that int() rejects
        ("\u00b2", (7, 6), "non-integer member"),
        ("1_0|1,2,3,4,5,6,7,8,9", (4, 6), "non-integer member"),   # int() takes these
        ("+1,2|3,4", None, "non-integer member"),
        ("\uff11,2|3,4", None, "non-integer member"),
        ("\uff11", None, "non-integer member"),   # not a structure id either
        ("1||2,3,4", None, "empty coalition"),
        ("1,2|", None, "empty coalition"),
    ]:
        config = [] if players is None else ["--config", _scalar_config(tmp_path, *players)]
        assert main(["payoffs", *config, "--structure", spec]) == 3, (spec, players)
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad structure spec {spec!r}: {reason}"), (players, err)


def test_enumerate_refuses_more_than_twelve_players(tmp_path, capsys):
    out = tmp_path / "partitions.csv"
    assert main(["enumerate", "--config", _scalar_config(tmp_path, 7, 6), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert list(tmp_path.glob("partitions.csv*")) == []


def test_builtin_config_loads_like_the_shipped_file():
    shipped = load_config(SHIPPED_CONFIG)
    builtin = load_config()
    for field in dataclasses.fields(builtin.game):
        assert np.array_equal(getattr(builtin.game, field.name), getattr(shipped.game, field.name))
    assert builtin.geometry == shipped.geometry
    assert builtin.encounter_from_geometry == shipped.encounter_from_geometry is False


def test_empty_lists_stand_for_rsu_matrices_without_rsus(tmp_path, capsys):
    doc = {"game": {"K": 1, "M": 0, "p": [0.5], "delta": [], "price": [], "cost_fwd": [],
                    "cost_rcv": [], "alpha": [10.0], "beta": [1.0], "gamma": [], "mu": []},
           "encounter": {"matrix": []}}
    lists = tmp_path / "k1m0-lists.json"
    lists.write_text(json.dumps(doc))
    for command in ("core", "check"):
        assert main([command, "--config", _scalar_config(tmp_path, 1, 0)]) == 0
        scalars = capsys.readouterr().out
        assert main([command, "--config", str(lists)]) == 0
        assert capsys.readouterr().out == scalars


def test_check_skips_profitability_for_a_negative_throughput_weight(tmp_path, capsys):
    doc = shipped_doc()
    doc["game"]["alpha"] = [-1, 10]
    path = tmp_path / "negative-alpha.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert ("[SKIP] share-ratio profitability agrees with payoff comparison: "
            "skipped: needs nonnegative throughput weights\n") in out


def test_load_config_fills_in_the_defaults(tmp_path):
    builtin = load_config().geometry
    doc = shipped_doc()
    del doc["geometry"]
    path = tmp_path / "no-geometry.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).geometry == builtin
    doc["geometry"] = {}   # a section takes the built-in values, seed included
    path.write_text(json.dumps(doc))
    assert load_config(path).geometry == builtin
    del doc["geometry"]
    doc["encounter"] = {"from_geometry": True}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="requires a 'geometry' section"):
        load_config(path)


# (document, expected error); 2**40 vehicles fail to allocate at once
HUGE_CONFIGS = {
    # list-valued parameters and a K that is no array size
    "geometry": (_malformed(lambda d: d["game"].update(K=10 ** 400)), "p: shape mismatch"),
    "no-geometry": (_malformed(lambda d: (d["game"].update(K=10 ** 400), d.pop("geometry"))),
                    "p: shape mismatch"),
    # scalar parameters and the 2x2 matrix: rejected before anything K-sized is built
    "scalar-million": ({**_scalar_doc(10 ** 6, 2), "encounter": {"matrix": [[0.5] * 2] * 2}},
                       r"enc: shape mismatch, expected \(2, 1000000\), got \(2, 2\)"),
    # every parameter scalar: valid, but too large to build
    "scalar-2**40": (_scalar_doc(2 ** 40, 2), "too large to build"),
    "from-geometry-2**40": ({**_scalar_doc(2 ** 40, 2), "encounter": {"from_geometry": True},
                             "geometry": {}}, "too large to build"),
}


@pytest.mark.parametrize("case", sorted(HUGE_CONFIGS))
def test_huge_vehicle_count_is_a_config_error(tmp_path, case):
    doc, message = HUGE_CONFIGS[case]
    path = tmp_path / "huge-K.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not case.endswith("2**40"):   # numpy reports even a failed allocation to tracemalloc
        assert peak < 1 << 20, peak


def test_empty_config_path_means_the_builtin_config(capsys):
    assert main(["core"]) == 0
    builtin = capsys.readouterr().out
    assert main(["core", "--config", ""]) == 0
    assert capsys.readouterr().out == builtin


def _from_geometry_config(tmp_path):
    """The built-in config with its encounter matrix estimated from 20,000 placements."""
    doc = shipped_doc()
    doc["encounter"] = {"from_geometry": True}
    doc["geometry"]["n_slots"] = 20000
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_from_geometry_fills_encounter_matrix(tmp_path, capsys):
    assert main(["payoffs", "--config", _from_geometry_config(tmp_path)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    gain = {r[1]: float(r[3]) for r in rows if r[2] == "rate_gain"}
    # d=0.2 on a unit square: reach well below the 0.5-matrix default
    assert 0.0 < gain["1"] < 0.2


def test_simulate_from_placement_agrees_with_payoffs(tmp_path, capsys):
    # from_geometry is how placements reach the simulator: it draws independent
    # encounters at the estimated probabilities, and its analytic column is payoffs'
    config = _from_geometry_config(tmp_path)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", config, "--slots", "20000", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["payoffs", "--config", config]) == 0
    payoffs = {(player, qty): float(value) for _, player, qty, value
               in csv.reader(capsys.readouterr().out.splitlines()[1:])}
    rows = read_csv(out)[1:]
    assert len(rows) == 12
    for player, qty, _, _, analytic, _, _ in rows:
        assert float(analytic) == payoffs[(player, qty)], (player, qty)
    max_abs_z = json.loads((tmp_path / "sim.csv.manifest.json").read_text())["max_abs_z"]
    assert np.isfinite(max_abs_z) and max_abs_z < 5
