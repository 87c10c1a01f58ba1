"""Exact tools for the max knapsack profit of the size-classed payoff function.

The package root carries the names the README and the scripts use; every
other helper is imported from its submodule.
"""

from .analysis import tinf_bracket
from .binpack import adversarial_instance, harmonic_pack
from .exactnum import to_decimal
from .harmonic import HarmonicParams
from .solvers import solve, solve_closed_form

__version__ = "0.1.0"

__all__ = [
    "HarmonicParams",
    "adversarial_instance",
    "harmonic_pack",
    "solve",
    "solve_closed_form",
    "tinf_bracket",
    "to_decimal",
]
