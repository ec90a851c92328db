"""Derivative-free minimization of black-box functions over convex hulls of atoms."""

from .core import (
    AtomSet,
    BudgetedObjective,
    BudgetExhausted,
    NonFiniteValue,
    OrdConfig,
    SimplexWeights,
)
from .dfsimplex import DfSimplexState, LineSearchOutcome, StopReason, df_simplex_solve, line_search
from .ord import OrdResult, OrdStop, PoisednessFailure, ord_solve

__all__ = [
    "AtomSet",
    "BudgetedObjective",
    "BudgetExhausted",
    "DfSimplexState",
    "LineSearchOutcome",
    "NonFiniteValue",
    "OrdConfig",
    "OrdResult",
    "OrdStop",
    "PoisednessFailure",
    "SimplexWeights",
    "StopReason",
    "df_simplex_solve",
    "line_search",
    "ord_solve",
]

__version__ = "0.1.0"
