"""Shared domain types: atom sets, simplex points, budgeted objectives, the ORD config."""
from __future__ import annotations

import itertools
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

# Simplex membership: tolerance on the weight sum; non-negativity is kept exact
# by clamping rounding noise in (NEG_CLAMP, 0) back to 0 after each two-coordinate
# exchange update.
SUM_TOL = 1e-12
NEG_CLAMP = -1e-15

# Weights at or below this threshold count as zero everywhere (the drop rule,
# active-zero sets, sparsity measurements).
ZERO_TOL = 1e-12


def require_integer(label: str, value, low=0, high=math.inf) -> int:
    """``value`` as an int if it is an integer in [low, high), else ValueError.

    The library's one rule for a count, id or seed a caller passes: a numpy
    integer passes; a bool or a float (even 2.0) is refused, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise ValueError(f"{label} must be an integer {bound}, got {value!r}")
    return int(value)


class BudgetExhausted(Exception):
    """An evaluation was requested beyond the objective's budget."""


class NonFiniteValue(ValueError):
    """The black box returned NaN or an infinity."""


@dataclass(frozen=True)
class AtomSet:
    """A finite set of points in R^n whose convex hull is the feasible set.

    Atoms are rows of ``atoms``; the row index is the atom's id and is stable
    for the lifetime of the set (working subsets reference these ids, so
    dropping an atom from a subset never renumbers anything).
    """

    atoms: np.ndarray  # (m, n)

    def __post_init__(self):
        arr = np.asarray(self.atoms, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"atoms must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need m >= 1 atoms of dimension n >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", arr)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class SimplexWeights:
    """A point of the unit simplex paired with the atom ids it weights."""

    w: np.ndarray
    ids: tuple

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        ids = tuple(require_integer("atom id", i) for i in self.ids)
        if w.ndim != 1 or len(w) != len(ids):
            raise ValueError(f"weights of length {len(w)} cannot pair with {len(ids)} ids")
        if len(set(ids)) != len(ids):
            raise ValueError("atom ids must be unique")
        w[(w > NEG_CLAMP) & (w < 0.0)] = 0.0
        if np.any(w < 0.0):
            raise ValueError(f"negative weight: min={w.min()}")
        if abs(w.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "ids", ids)


def weights_point(w: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The point w.A that weights w over the rows of the atom matrix A stand for.

    The library's one map from weights to points: ORD evaluates phi at this
    point and returns it as x, so both must come from the same product.
    ``w.dot(A)`` is bitwise ``w @ A`` without the matmul dispatch.
    """
    return w.dot(A)


def exchange_point(z: np.ndarray, sign: int, i: int, j: int, step: float) -> np.ndarray:
    """The point z + step*sign*(e_i - e_j), i != j, with rounding noise clamped to 0.

    ``z`` is an ndarray; the result is a fresh float64 copy of it. The two
    changed coordinates are computed on Python floats, the same IEEE
    operations as on float64 array entries, and stored once.
    """
    out = z.astype(float)
    d = sign * step
    zi = out.item(i) + d
    zj = out.item(j) - d
    if zi < 0.0:
        if zi <= NEG_CLAMP:
            raise ValueError(f"infeasible exchange step {step} at coordinate {i}")
        zi = 0.0
    if zj < 0.0:
        if zj <= NEG_CLAMP:
            raise ValueError(f"infeasible exchange step {step} at coordinate {j}")
        zj = 0.0
    out[i] = zi
    out[j] = zj
    return out


def is_simplex_point(w: np.ndarray) -> bool:
    w = np.asarray(w, dtype=float)
    return bool(np.all(w >= 0.0) and abs(w.sum() - 1.0) <= SUM_TOL)


class BudgetedObjective:
    """A black-box objective with evaluation counting and budget enforcement.

    Every call appends its value to ``values``, a float64 ``array('d')`` at
    8 bytes per evaluation, so ``eval_count`` grows by exactly one; ``trace``
    derives the ``(eval_index, f_value, best_so_far)`` rows from ``values``
    when it is read. A call beyond the budget raises
    :class:`BudgetExhausted` without consulting the black box and leaves
    ``values`` unchanged; a NaN/inf value raises :class:`NonFiniteValue`. One
    instance belongs to one solver run at a time.
    """

    def __init__(self, func: Callable[[np.ndarray], float], budget: Optional[int] = None):
        self.func = func
        self.budget = None if budget is None else require_integer("budget", budget, 1)
        self.values = array("d")

    @property
    def eval_count(self) -> int:
        return len(self.values)

    @property
    def trace(self) -> List[Tuple[int, float, float]]:
        # min keeps the earlier value on ties, as a strict < update would
        best = itertools.accumulate(self.values, min)
        return list(zip(itertools.count(1), self.values, best))

    def __call__(self, x: np.ndarray) -> float:
        if self.budget is not None and len(self.values) >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations exhausted")
        value = float(self.func(x))
        if not math.isfinite(value):
            raise NonFiniteValue(f"objective returned {value} at x={x!r}")
        self.values.append(value)
        return value


@dataclass(frozen=True)
class OrdConfig:
    """ORD's refine seed; its tolerance schedule and step parameters are module constants."""

    rng_seed: Optional[int] = None

    def __post_init__(self):
        if self.rng_seed is not None:
            require_integer("rng_seed", self.rng_seed)
