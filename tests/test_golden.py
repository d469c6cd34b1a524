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
must stay byte-identical.
"""

import pathlib

import pytest

from vanetgame.analytic import ABS_TOL
from vanetgame.cli import main

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
