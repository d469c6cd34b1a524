"""Frozen `core` and `check` output for fixed configs.

`core` output was produced by the subset-enumeration closed forms and the
two-sweep core analysis that preceded the current code. Every verdict,
witness and blocker line must match byte for byte. The grand-coalition
payoffs are printed with repr: they match exactly for the default config, and
elsewhere to ABS_TOL, because the polynomial closed forms round differently
from the enumeration (both stay within a few ulps of the exact value).
The `k3m4_gain` (an RSU without a strict gain), `k5m0` (no RSUs) and
`k3m4_edges` (encounter probabilities of exactly 0 and 1) cases were frozen
from the sweep that built one `PayoffReport` per coalition, before the
subset-DP payoff table replaced it.

`check` output was produced by the identity suite that read each quantity
through its own per-(coalition, player) function; the residuals it prints
must stay byte-identical. The hash of the `check` lines over random configs
was frozen from the suite that gave each identity its own max-and-witness
loop, before one loop took the largest gap of every identity.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from vanetgame import run_identity_checks
from vanetgame.analytic import ABS_TOL
from vanetgame.cli import main
from conftest import random_config

DATA = pathlib.Path(__file__).parent / "data"
PAYOFF_LINE = "grand-coalition payoffs: "


def _payoffs(line):
    return [float(tok.split("=", 1)[1]) for tok in line[len(PAYOFF_LINE):].split(", ")]


def _stdout(command, name, capsys):
    argv = [command]
    if name != "default":
        argv += ["--config", str(DATA / f"core_{name}.json")]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_core_stdout_of_default_config_is_byte_identical(capsys):
    assert _stdout("core", "default", capsys) == (DATA / "core_default.golden.txt").read_text()


@pytest.mark.parametrize("name", ["default", "k4m8", "k4m8_blocked", "k3m4_edges", "k3m4_gain",
                                  "k5m0"])
def test_check_stdout_is_byte_identical(name, capsys):
    assert _stdout("check", name, capsys) == (DATA / f"check_{name}.golden.txt").read_text()


@pytest.mark.parametrize("name", ["k4m8", "k4m8_blocked", "k3m4_gain", "k5m0", "k3m4_edges"])
def test_core_stdout_matches_golden(name, capsys):
    got = _stdout("core", name, capsys).splitlines()
    want = (DATA / f"core_{name}.golden.txt").read_text().splitlines()
    assert len(got) == len(want)
    for line, frozen in zip(got, want):
        if frozen.startswith(PAYOFF_LINE):
            assert line.startswith(PAYOFF_LINE)
            new, old = _payoffs(line), _payoffs(frozen)
            assert len(new) == len(old)
            assert max(abs(a - b) for a, b in zip(new, old)) <= ABS_TOL
        else:
            assert line == frozen


def _check_line(res):
    status = "SKIP" if res.passed is None else "PASS" if res.passed else "FAIL"
    return f"[{status}] {res.name}: {res.detail}\n"


def test_check_lines_over_random_configs_hash_to_frozen_digest():
    # 60 draws with K = 1..4 and M = 0..5; even draws have unit payment and
    # revenue weights (the fee identity runs), odd draws uniform relay weights
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for k in range(60):
        cfg = random_config(rng, unit_bg=k % 2 == 0, uniform_relay=k % 2 == 1)
        for res in run_identity_checks(cfg):
            digest.update(_check_line(res).encode())
    assert digest.hexdigest() == (
        "83207696be89d08f4bd8b4bde893eba86d95f9b96b1ab3a913a8b1be30a53d37")
