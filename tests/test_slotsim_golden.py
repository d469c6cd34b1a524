"""Frozen event counters of `simulate_slots`, produced by the slot kernel that
preceded the current one (numpy kernel over the full (slots, M, K) encounter
block).

A seed fixes the random stream and its draw order, so any rewrite of the
kernel must reproduce every counter bit for bit. The cases cover the grand
coalition, split structures (with a coalition that has no RSUs), all
singletons, a game without RSUs, a wider game, geometry mode, and runs that
span more than one chunk.
"""

import json
import pathlib

import numpy as np
import pytest

from vanetgame import GeometryConfig, make_config, parse_structure, simulate_slots
from vanetgame.configio import default_game_config
from conftest import COUNTERS

DATA = pathlib.Path(__file__).parent / "data" / "slotsim_counters.json"


def _no_rsu_game():
    return make_config(3, 0, p=[0.3, 0.55, 0.8], enc=np.zeros((0, 3)),
                       delta=np.zeros((3, 0)), price=np.zeros((0, 3)),
                       cost_fwd=np.zeros((0, 3)), cost_rcv=np.zeros((0, 3)))


def _wide_game():
    enc = [[0.9, 0.1, 0.5, 0.3],
           [0.2, 0.8, 0.4, 0.6],
           [0.7, 0.3, 0.0, 1.0],
           [0.5, 0.5, 0.5, 0.5],
           [0.05, 0.95, 0.35, 0.65]]
    return make_config(4, 5, p=[0.2, 0.45, 0.7, 0.35], enc=enc, delta=0.5, price=1.0,
                       cost_fwd=0.3, cost_rcv=0.1)


# name -> (game, structure, n_slots, seed, geometry)
CASES = {
    "grand": (default_game_config, "1,2,3,4", 70_000, 11, None),
    "split": (default_game_config, "1,3|2,4", 40_000, 12, None),
    "rsu_alone": (default_game_config, "1,2,3|4", 40_000, 13, None),
    "singletons": (default_game_config, "1|2|3|4", 40_000, 14, None),
    "no_rsus": (_no_rsu_game, "1,2|3", 40_000, 15, None),
    "wide": (_wide_game, "1,3,5,7|2,6|4,8,9", 70_000, 16, None),
    "geometry": (default_game_config, "1,3,4|2", 40_000, 17,
                 GeometryConfig(side_km=1.0, range_km=(0.3, 0.5))),
}


def run_case(name):
    game, structure, n_slots, seed, geometry = CASES[name]
    cfg = game()
    cs = parse_structure(structure, cfg.n_players)
    return simulate_slots(cs, cfg, n_slots, seed, geometry=geometry)


@pytest.mark.parametrize("name", sorted(CASES))
def test_counters_match_golden(name):
    frozen = json.loads(DATA.read_text())[name]
    rep = run_case(name)
    for field in COUNTERS:
        got = getattr(rep, field)
        assert got.dtype == np.int64, field
        assert got.tolist() == frozen[field], field
