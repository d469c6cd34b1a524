"""Frozen event counters of `simulate_slots`. The first seven cases come from
the numpy kernel over the full (slots, M, K) encounter block; `byte8` and
`multibyte` from the boolean-matrix kernel that preceded the bit-packed one;
`holes` from the bit-packed kernel that gathered each coalition's RSU columns.

A seed fixes the random stream and its draw order, so any rewrite of the
kernel must reproduce every counter bit for bit. The cases cover the grand
coalition, split structures (with a coalition that has no RSUs), all
singletons, a game without RSUs, a wider game, runs that span more than one
chunk, games wide enough to fill one or more bytes of packed vehicle and
RSU bits, and a coalition whose RSUs lie far apart among other coalitions' RSUs.
"""

import json
import pathlib

import numpy as np
import pytest

from vanetgame import GameConfig, load_config, parse_structure, simulate_slots
from conftest import COUNTERS

DATA = pathlib.Path(__file__).parent / "data" / "slotsim_counters.json"


def _builtin_game():
    return load_config().game


def _no_rsu_game():
    return GameConfig(3, 0, p=[0.3, 0.55, 0.8], enc=np.zeros((0, 3)),
                      delta=np.zeros((3, 0)), price=np.zeros((0, 3)),
                      cost_fwd=np.zeros((0, 3)), cost_rcv=np.zeros((0, 3)))


def _wide_game():
    enc = [[0.9, 0.1, 0.5, 0.3],
           [0.2, 0.8, 0.4, 0.6],
           [0.7, 0.3, 0.0, 1.0],
           [0.5, 0.5, 0.5, 0.5],
           [0.05, 0.95, 0.35, 0.65]]
    return GameConfig(4, 5, p=[0.2, 0.45, 0.7, 0.35], enc=enc, delta=0.5, price=1.0,
                      cost_fwd=0.3, cost_rcv=0.1)


def _byte8_game():
    # 8 vehicles and 8 RSUs: one full byte of packed bits on each side
    enc = (np.arange(64).reshape(8, 8) * 5 % 9) / 8.0
    return GameConfig(8, 8, p=np.linspace(0.15, 0.5, 8), enc=enc, delta=0.5, price=1.0,
                      cost_fwd=0.3, cost_rcv=0.1)


def _multibyte_game():
    # 9 vehicles and 17 RSUs: vehicle 9 and RSUs 9-17 sit past the first byte
    enc = (np.arange(153).reshape(17, 9) * 7 % 11) / 10.0
    return GameConfig(9, 17, p=np.linspace(0.1, 0.5, 9), enc=enc, delta=0.5, price=1.0,
                      cost_fwd=0.3, cost_rcv=0.1)


# name -> (game, structure, n_slots, seed)
CASES = {
    "grand": (_builtin_game, "1,2,3,4", 70_000, 11),
    "split": (_builtin_game, "1,3|2,4", 40_000, 12),
    "rsu_alone": (_builtin_game, "1,2,3|4", 40_000, 13),
    "singletons": (_builtin_game, "1|2|3|4", 40_000, 14),
    "no_rsus": (_no_rsu_game, "1,2|3", 40_000, 15),
    "wide": (_wide_game, "1,3,5,7|2,6|4,8,9", 70_000, 16),
    "byte8": (_byte8_game, "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", 40_000, 18),
    "multibyte": (_multibyte_game,
                  "1,5,9,10,11,12,13,14,15,16,17,18,19,20,21|2,3,4|6,7,8,22,23,24,25,26",
                  40_000, 19),
    # the first coalition's RSUs (0-based 0, 8, 16) sit in three bytes, and the
    # other coalitions' RSUs fill the holes between them
    "holes": (_multibyte_game,
              "1,2,10,18,26|3,4,5,11,12,13,14,15,16,17|6,7,8,9,19,20,21,22,23,24,25",
              40_000, 20),
}


def run_case(name):
    game, structure, n_slots, seed = CASES[name]
    cfg = game()
    cs = parse_structure(structure, cfg.n_players)
    return simulate_slots(cs, cfg, n_slots, seed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_counters_match_golden(name):
    frozen = json.loads(DATA.read_text())[name]
    rep = run_case(name)
    for field in COUNTERS:
        got = getattr(rep, field)
        assert got.dtype == np.int64, field
        assert got.tolist() == frozen[field], field
