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
from .model import ConfigError, GameConfig, make_config

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "load_config",
    "resolve_encounter",
    "default_game_config",
    "default_geometry",
    "default_config_dict",
]


@dataclass(frozen=True)
class LoadedConfig:
    game: GameConfig
    geometry: GeometryConfig   # the built-in values for any key the file leaves out
    encounter_from_geometry: bool


# The built-in 2-vehicle / 2-RSU scenario as a config document. It is parsed
# like a file, its scalars spread, and a file's geometry section falls back to
# it key by key.
_BUILTIN = {
    "game": {"K": 2, "M": 2, "p": 0.6, "delta": 0.5, "price": 1.5, "cost_fwd": 0.5,
             "cost_rcv": 0.2, "alpha": 10.0, "beta": 1.0, "gamma": 1.0, "mu": 1.0},
    "encounter": {"matrix": 0.5},
    "geometry": {"side_km": 1.0, "placement": "continuous", "range_km": 0.2,
                 "n_slots": 1_000_000, "seed": 20_240_808},
}


def _parse_geometry(section, K: int, errors) -> GeometryConfig | None:
    """The geometry section as a GeometryConfig, or None after recording its errors."""
    section = {**_BUILTIN["geometry"], **section}
    n_slots = _count(section["n_slots"], "geometry.n_slots", errors)
    seed = _count(section["seed"], "geometry.seed", errors)
    numeric = [_numbers(section[key], f"geometry.{key}", errors) for key in ("side_km", "range_km")]
    if n_slots is None or seed is None or not all(numeric):
        return None
    try:
        rng_km = section["range_km"]
        if np.isscalar(rng_km):
            rng_km = (float(rng_km),) * K
        return GeometryConfig(
            side_km=float(section["side_km"]),
            range_km=tuple(float(r) for r in rng_km),
            placement=str(section["placement"]),
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


def _numbers(value, name, errors) -> bool:
    """Whether value is a JSON number or nested lists of them (no bool, no string);
    else records an error. An explicit stack walks any nesting depth."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))   # the first bad entry in document order is named
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            errors.append(f"{name} must be a JSON number or nested lists of them, got {item!r}")
            return False
    return True


def load_config(path=None) -> LoadedConfig:
    """Parse and validate a config file, reporting every problem at once.

    Without a path, the built-in config. The geometry section is checked
    once the game is valid, so its size is bounded by a game that was built.
    """
    if path is None:
        return _parse(_BUILTIN, "built-in config")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nesting too deep
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"{path}: top level must be a JSON object, got {type(doc).__name__}"])
    return _parse(doc, path)


def _parse(doc: dict, source) -> LoadedConfig:
    """The config one JSON document describes; `source` names the document in messages."""
    errors = []
    game = doc.get("game")
    encounter = _section(doc, "encounter", errors, default={})
    geo_section = _section(doc, "geometry", errors)
    K = M = None
    numeric = False
    if not isinstance(game, dict):
        errors.append(f"{source}: missing or malformed 'game' section")
    elif missing := [k for k in _BUILTIN["game"] if k not in game]:
        errors.append(f"{source}: 'game' section missing keys {missing}")
    else:
        K, M = _count(game["K"], "game.K", errors), _count(game["M"], "game.M", errors)
        # a list, not a generator: every parameter's error is recorded
        numeric = all([_numbers(game[k], f"game.{k}", errors) for k in _BUILTIN["game"]
                       if k not in ("K", "M")])

    from_geometry = False
    enc = 0.0   # placeholder until resolve_encounter runs
    if encounter is not None:
        from_geometry = encounter.get("from_geometry", False)
        if not isinstance(from_geometry, bool):
            errors.append(f"encounter.from_geometry must be true or false, got {from_geometry!r}")
            from_geometry = False
        if "matrix" not in encounter:
            if not from_geometry:
                errors.append("encounter section needs either 'matrix' or 'from_geometry': true")
        elif _numbers(encounter["matrix"], "encounter.matrix", errors):
            try:
                enc = np.asarray(encounter["matrix"], dtype=np.float64)
            except (ValueError, TypeError, OverflowError) as exc:
                errors.append(f"encounter.matrix is not a numeric matrix: {exc}")
    if geo_section is None and from_geometry:
        errors.append("encounter.from_geometry requires a 'geometry' section")
    if K is None or M is None or not numeric:
        raise ConfigError(errors)

    try:
        cfg = make_config(enc=enc, **{k: game[k] for k in _BUILTIN["game"]})
    except ConfigError as exc:
        raise ConfigError(errors + exc.errors) from exc
    except MemoryError as exc:
        raise ConfigError(errors + [f"game section: K={K}, M={M} is too large to build"]) from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(errors + [f"game section: {exc}"]) from exc
    geometry = _parse_geometry(geo_section or {}, K, errors)
    if geometry is not None and len(geometry.range_km) != K:
        errors.append(f"geometry.range_km needs {K} entries, got {len(geometry.range_km)}")
    if errors:
        raise ConfigError(errors)
    return LoadedConfig(game=cfg, geometry=geometry, encounter_from_geometry=from_geometry)


def resolve_encounter(loaded: LoadedConfig) -> GameConfig:
    """The game, its encounter matrix estimated from geometry when the file asked for it."""
    if not loaded.encounter_from_geometry:
        return loaded.game
    est = estimate_encounter_matrix(loaded.geometry, loaded.game.K, loaded.game.M)
    return replace(loaded.game, enc=est.matrix)


def default_game_config(encounter=0.5) -> GameConfig:
    """The built-in game, with `encounter` as its encounter matrix (a scalar spreads)."""
    matrix = np.asarray(encounter).tolist()   # an array as the JSON value it stands for
    return _parse({**_BUILTIN, "encounter": {"matrix": matrix}}, "built-in config").game


def default_geometry(K: int = 2) -> GeometryConfig:
    """The built-in placement model, with one transmission range per vehicle."""
    return _parse_geometry({}, K, [])


def default_config_dict() -> dict:
    """The built-in config with every value spread out (see configs/default.json)."""
    loaded = load_config()
    fields = {"game": loaded.game, "geometry": loaded.geometry}
    doc = {name: {key: np.asarray(getattr(fields[name], key)).tolist() for key in keys}
           for name, keys in _BUILTIN.items() if name in fields}
    return {**doc, "encounter": {"matrix": loaded.game.enc.tolist()}}
