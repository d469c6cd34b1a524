"""Coalitional analysis of cooperative vehicle-to-roadside relaying.

Exact closed-form payoffs for any coalition structure, core stability
analysis, and two independent Monte Carlo validators (geometric placement
for encounter probabilities, slot-level protocol simulation).
"""

__version__ = "0.1.0"

from .analysis import (CheckResult, CoreConditions, CoreMembership, StabilityVerdict,
                       core_membership, core_sufficient_conditions, run_identity_checks,
                       stability_verdict, structure_payoffs, structure_reports,
                       vehicle_coalition_profitability)
from .analytic import ABS_TOL, PayoffReport, oracle_relay_mean, player_payoffs
from .configio import ConfigError, LoadedConfig, load_config, resolve_encounter
from .geometry import (EncounterEstimate, GeometryConfig, analytic_pair_encounter,
                       estimate_encounter_matrix)
from .model import (Coalition, CoalitionStructure, GameConfig, bell_number,
                    canonical_structure, check_structure, enumerate_partitions,
                    format_structure, iter_partitions, normalize_structure,
                    parse_structure, split_members, structure_csv_blocks, unrank_partition)
from .slotsim import EmpiricalReport, simulate_slots

__all__ = [
    "__version__",
    "ABS_TOL",
    "Coalition",
    "CoalitionStructure",
    "GameConfig",
    "PayoffReport",
    "EmpiricalReport",
    "EncounterEstimate",
    "GeometryConfig",
    "CheckResult",
    "CoreConditions",
    "CoreMembership",
    "StabilityVerdict",
    "ConfigError",
    "LoadedConfig",
    "analytic_pair_encounter",
    "bell_number",
    "canonical_structure",
    "check_structure",
    "core_membership",
    "core_sufficient_conditions",
    "enumerate_partitions",
    "estimate_encounter_matrix",
    "format_structure",
    "iter_partitions",
    "load_config",
    "normalize_structure",
    "oracle_relay_mean",
    "parse_structure",
    "player_payoffs",
    "resolve_encounter",
    "run_identity_checks",
    "simulate_slots",
    "split_members",
    "stability_verdict",
    "structure_csv_blocks",
    "structure_payoffs",
    "structure_reports",
    "unrank_partition",
    "vehicle_coalition_profitability",
]
