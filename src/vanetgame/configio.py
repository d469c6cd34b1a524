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

from .geometry import GeometryConfig, estimate_encounter_matrix
from .model import ConfigError, GameConfig

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "load_config",
    "resolve_encounter",
]


@dataclass(frozen=True)
class LoadedConfig:
    game: GameConfig
    geometry: GeometryConfig   # the built-in values for any key the file leaves out
    encounter_from_geometry: bool


# The built-in 2-vehicle / 2-RSU scenario as a config document. It is parsed
# like a file, its scalars spread, a file's geometry section falls back to it
# key by key, and it holds every key a file may use.
_BUILTIN = {
    "game": {"K": 2, "M": 2, "p": 0.6, "delta": 0.5, "price": 1.5, "cost_fwd": 0.5,
             "cost_rcv": 0.2, "alpha": 10.0, "beta": 1.0, "gamma": 1.0, "mu": 1.0},
    "encounter": {"matrix": 0.5, "from_geometry": False},
    "geometry": {"side_km": 1.0, "placement": "continuous", "range_km": 0.2,
                 "n_slots": 1_000_000, "seed": 20_240_808},
}


def _parse_geometry(section, K: int, errors) -> GeometryConfig | None:
    """The geometry section as a GeometryConfig, or None after recording its errors.
    A range_km that is no list spreads to the game's K vehicles."""
    section = {key: section.get(key, value) for key, value in _BUILTIN["geometry"].items()}
    if not isinstance(section["range_km"], list):
        section["range_km"] = (section["range_km"],) * K
    try:
        geometry = GeometryConfig(**section)
    except ValueError as exc:
        errors.append(f"geometry: {exc}")
        return None
    if len(geometry.range_km) != K:
        errors.append(f"geometry.range_km needs {K} entries, got {len(geometry.range_km)}")
    return geometry


def _section(doc, name, errors, default=None):
    """doc[name] (default when absent) if it is a JSON object; else records an error."""
    if name not in doc:
        return default
    section = doc[name]
    if not isinstance(section, dict):
        errors.append(f"'{name}' section must be a JSON object, got {type(section).__name__}")
        return None
    return section


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
    errors = [f"unknown section {name!r}" for name in doc if name not in _BUILTIN]
    game = doc.get("game")
    encounter = _section(doc, "encounter", errors, default={})
    geo_section = _section(doc, "geometry", errors)
    for name, section in (("game", game), ("encounter", encounter), ("geometry", geo_section)):
        if isinstance(section, dict):   # a key of no built-in section is a typo
            errors += [f"{name}: unknown key {k!r}" for k in section if k not in _BUILTIN[name]]
    if not isinstance(game, dict):
        errors.append(f"{source}: missing or malformed 'game' section")
    elif missing := [k for k in _BUILTIN["game"] if k not in game]:
        errors.append(f"{source}: 'game' section missing keys {missing}")

    from_geometry = False
    enc = 0.0   # placeholder until resolve_encounter runs
    if encounter is not None:
        from_geometry = encounter.get("from_geometry", False)
        if not isinstance(from_geometry, bool):
            errors.append(f"encounter.from_geometry must be true or false, got {from_geometry!r}")
            from_geometry = False
        if "matrix" in encounter:
            enc = encounter["matrix"]
        elif not from_geometry:
            errors.append("encounter section needs either 'matrix' or 'from_geometry': true")
    if geo_section is None and from_geometry:
        errors.append("encounter.from_geometry requires a 'geometry' section")
    if not isinstance(game, dict) or missing:
        raise ConfigError(errors)

    try:
        cfg = GameConfig(enc=enc, **{k: game[k] for k in _BUILTIN["game"]})
    except ConfigError as exc:
        raise ConfigError(errors + exc.errors) from exc
    except MemoryError as exc:
        raise ConfigError(errors + [f"game section: K={game['K']}, M={game['M']} is too large "
                                    "to build"]) from exc
    geometry = _parse_geometry(geo_section or {}, cfg.K, errors)
    if errors:
        raise ConfigError(errors)
    return LoadedConfig(game=cfg, geometry=geometry, encounter_from_geometry=from_geometry)


def resolve_encounter(loaded: LoadedConfig) -> GameConfig:
    """The game, its encounter matrix estimated from geometry when the file asked for it."""
    if not loaded.encounter_from_geometry:
        return loaded.game
    est, = estimate_encounter_matrix(loaded.geometry, loaded.game.K, loaded.game.M,
                                     ranges=[loaded.geometry.range_km])
    return replace(loaded.game, enc=est.matrix)
