"""Config-file loading and the built-in default parameter set.

Config files are JSON with three sections:

  game       K, M, p, delta, price, cost_fwd, cost_rcv, alpha, beta, gamma, mu
             (scalars spread to full arrays; matrices as nested lists)
  encounter  {"matrix": [[...]]} with one row per RSU, or
             {"from_geometry": true} to estimate the matrix from placement
  geometry   side_km, placement, range_km, n_slots, seed

See README.md for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .geometry import GeometryConfig, estimate_encounter_matrix
from .model import GameConfig, make_config, validate_config

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "load_config",
    "resolve_encounter",
    "default_game_config",
    "default_geometry",
    "default_config_dict",
]


class ConfigError(Exception):
    """Invalid config file; .errors carries the full violation list."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class LoadedConfig:
    game: GameConfig
    geometry: GeometryConfig   # default_geometry(K) when the file has no geometry section
    encounter_from_geometry: bool


_GAME_KEYS = ("p", "delta", "price", "cost_fwd", "cost_rcv", "alpha", "beta", "gamma", "mu")


# The built-in placement model; range_km is spread to one entry per vehicle
_GEOMETRY_DEFAULTS = {"side_km": 1.0, "range_km": 0.2, "placement": "continuous",
                      "n_slots": 1_000_000, "seed": 20_240_808}


def _parse_geometry(section, K: int, errors) -> GeometryConfig | None:
    """The geometry section as a GeometryConfig, or None after recording its errors."""
    fallback = {**_GEOMETRY_DEFAULTS, "seed": 0}   # a section without a seed uses seed 0
    n_slots = _count(section.get("n_slots", fallback["n_slots"]), "geometry.n_slots", errors)
    seed = _count(section.get("seed", fallback["seed"]), "geometry.seed", errors)
    if n_slots is None or seed is None:
        return None
    try:
        rng_km = section.get("range_km", fallback["range_km"])
        if np.isscalar(rng_km):
            rng_km = (float(rng_km),) * K
        return GeometryConfig(
            side_km=float(section.get("side_km", fallback["side_km"])),
            range_km=tuple(float(r) for r in rng_km),
            placement=str(section.get("placement", fallback["placement"])),
            n_slots=n_slots,
            seed=seed,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        errors.append(f"geometry: {exc}")
        return None


def _section(doc, name, errors, default=None):
    """doc[name] (default when absent) if it is a JSON object; else records an error."""
    if name not in doc:
        return default
    section = doc[name]
    if not isinstance(section, dict):
        errors.append(f"'{name}' section must be a JSON object, got {type(section).__name__}")
        return None
    return section


def _count(value, name, errors):
    """value if it is a nonnegative JSON integer (not a bool); else records an error."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        errors.append(f"{name} must be a nonnegative integer, got {value!r}")
        return None
    return value


def load_config(path=None) -> LoadedConfig:
    """Parse and validate a config file, reporting every problem at once.

    Without a path, the built-in default parameter set.
    """
    if path is None:
        game = default_game_config()
        return LoadedConfig(game=game, geometry=default_geometry(game.K),
                            encounter_from_geometry=False)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"{path}: top level must be a JSON object, got {type(doc).__name__}"])

    errors = []
    game = doc.get("game")
    encounter = _section(doc, "encounter", errors, default={})
    geo_section = _section(doc, "geometry", errors)
    K = M = None
    if not isinstance(game, dict):
        errors.append(f"{path}: missing or malformed 'game' section")
    elif missing := [k for k in ("K", "M", *_GAME_KEYS) if k not in game]:
        errors.append(f"{path}: 'game' section missing keys {missing}")
    else:
        K, M = _count(game["K"], "game.K", errors), _count(game["M"], "game.M", errors)

    from_geometry = False
    enc = None
    if encounter is not None:
        from_geometry = encounter.get("from_geometry", False)
        if not isinstance(from_geometry, bool):
            errors.append(f"encounter.from_geometry must be true or false, got {from_geometry!r}")
            from_geometry = False
        if "matrix" in encounter:
            try:
                enc = np.asarray(encounter["matrix"], dtype=np.float64)
            except (ValueError, TypeError, OverflowError) as exc:
                errors.append(f"encounter.matrix is not a numeric matrix: {exc}")
        elif not from_geometry:
            errors.append("encounter section needs either 'matrix' or 'from_geometry': true")
    if K is None or M is None:
        raise ConfigError(errors)
    if enc is None:
        enc = np.zeros((M, K))   # placeholder until resolve_encounter runs

    geometry = None
    if geo_section is not None:
        geometry = _parse_geometry(geo_section, K, errors)
    elif from_geometry:
        errors.append("encounter.from_geometry requires a 'geometry' section")
    if geometry is not None and len(geometry.range_km) != K:
        errors.append(f"geometry.range_km needs {K} entries, got {len(geometry.range_km)}")

    try:
        cfg = make_config(K, M, enc=enc, check=False,
                          **{k: game[k] for k in _GAME_KEYS})
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(errors + [f"game section: {exc}"]) from exc
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors)
    # validated: K == len(cfg.p), so the default geometry's size is bounded
    return LoadedConfig(game=cfg, geometry=geometry or default_geometry(K),
                        encounter_from_geometry=from_geometry)


def resolve_encounter(loaded: LoadedConfig) -> GameConfig:
    """The game, its encounter matrix estimated from geometry when the file asked for it."""
    if not loaded.encounter_from_geometry:
        return loaded.game
    est = estimate_encounter_matrix(loaded.geometry, loaded.game.K, loaded.game.M)
    return replace(loaded.game, enc=est.matrix)


def default_game_config(encounter=0.5) -> GameConfig:
    """Built-in 2-vehicle / 2-RSU parameter set used by the docs and tests."""
    return make_config(
        2, 2, p=0.6, enc=encounter, delta=0.5, price=1.5,
        cost_fwd=0.5, cost_rcv=0.2, alpha=10.0, beta=1.0, gamma=1.0, mu=1.0)


def default_geometry(K: int = 2) -> GeometryConfig:
    return GeometryConfig(**{**_GEOMETRY_DEFAULTS,
                             "range_km": (_GEOMETRY_DEFAULTS["range_km"],) * K})


def default_config_dict() -> dict:
    """The default parameter set in config-file form (see configs/default.json)."""
    cfg = default_game_config()
    geo = default_geometry(cfg.K)
    return {
        "game": {
            "K": cfg.K, "M": cfg.M,
            "p": cfg.p.tolist(),
            "delta": cfg.delta.tolist(),
            "price": cfg.price.tolist(),
            "cost_fwd": cfg.cost_fwd.tolist(),
            "cost_rcv": cfg.cost_rcv.tolist(),
            "alpha": cfg.alpha.tolist(),
            "beta": cfg.beta.tolist(),
            "gamma": cfg.gamma.tolist(),
            "mu": cfg.mu.tolist(),
        },
        "encounter": {"matrix": cfg.enc.tolist()},
        "geometry": {
            "side_km": geo.side_km,
            "placement": geo.placement,
            "range_km": list(geo.range_km),
            "n_slots": geo.n_slots,
            "seed": geo.seed,
        },
    }
