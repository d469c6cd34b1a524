import json
import pathlib

import numpy as np
import pytest

from vanetgame import GameConfig, load_config

# EmpiricalReport's integer event counters: three per vehicle, three per (RSU, vehicle)
COUNTERS = ("scheduled", "success_no_relay", "fail_no_relay",
            "encounters", "relays_success", "relays_fail")

# The built-in config with every value spread out, as shipped
SHIPPED_CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "default.json"


@pytest.fixture
def default_cfg():
    """2 vehicles, 2 RSUs, the parameter set from configs/default.json."""
    return load_config().game


def shipped_doc():
    """A fresh dict of configs/default.json, to edit into another config document."""
    return json.loads(SHIPPED_CONFIG.read_text())


def random_config(rng, k_max=4, m_max=5, *, k_min=1, m_min=0, unit_bg=False,
                  uniform_relay=False):
    """Random well-formed config for property checks.

    unit_bg pins the payment and revenue weights to 1 (needed by the fee
    cancellation identity); uniform_relay makes rate gains uniform per vehicle
    and fees uniform per vehicle (the simplified closed forms apply then).
    """
    K = int(rng.integers(k_min, k_max + 1))
    M = int(rng.integers(m_min, m_max + 1))
    delta = rng.uniform(0.0, 2.0, size=(K, M))
    price = rng.uniform(0.0, 2.0, size=(M, K))
    if uniform_relay:
        delta = np.repeat(rng.uniform(0.0, 2.0, size=(K, 1)), M, axis=1)
        price = np.repeat(rng.uniform(0.0, 2.0, size=(1, K)), M, axis=0)
    return GameConfig(
        K, M,
        p=rng.uniform(0.0, 1.0, size=K),
        enc=rng.uniform(0.0, 1.0, size=(M, K)),
        delta=delta,
        price=price,
        cost_fwd=rng.uniform(0.0, 1.0, size=(M, K)),
        cost_rcv=rng.uniform(0.0, 1.0, size=(M, K)),
        alpha=rng.uniform(0.5, 12.0, size=K),
        beta=np.ones(K) if unit_bg else rng.uniform(0.2, 3.0, size=K),
        gamma=np.ones(M) if unit_bg else rng.uniform(0.2, 3.0, size=M),
        mu=rng.uniform(0.2, 3.0, size=M),
    )


def random_coalition(rng, cfg, need_vehicle=True, need_rsu=False):
    """Random non-empty coalition; by default it contains at least one vehicle."""
    while True:
        members = [m for m in range(1, cfg.n_players + 1) if rng.random() < 0.5]
        if not members:
            continue
        if need_vehicle and not any(m <= cfg.K for m in members):
            if cfg.K == 0:
                raise AssertionError("config has no vehicles")
            members.append(int(rng.integers(1, cfg.K + 1)))
        if need_rsu and not any(m > cfg.K for m in members):
            if cfg.M == 0:
                continue
            members.append(int(rng.integers(cfg.K + 1, cfg.n_players + 1)))
        return frozenset(members)
