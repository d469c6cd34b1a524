"""Coalitional analysis of cooperative vehicle-to-roadside relaying.

Exact closed-form payoffs for any coalition structure, core stability
analysis, and two independent Monte Carlo validators (geometric placement
for encounter probabilities, slot-level protocol simulation).
"""

__version__ = "0.1.0"

from . import analysis, analytic, configio, geometry, model, slotsim
from .analysis import *
from .analytic import *
from .configio import *
from .geometry import *
from .model import *
from .slotsim import *

__all__ = ["__version__", *dict.fromkeys(analysis.__all__ + analytic.__all__ + configio.__all__
                                          + geometry.__all__ + model.__all__ + slotsim.__all__)]
