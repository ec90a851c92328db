"""Direct search over the unit simplex with exchange directions +/-(e_i - e_j).

Each outer iteration picks the max-weight pivot coordinate, line-searches
every other coordinate against it in index order from the running point,
and maintains per-coordinate starting stepsizes floored at the
stopping tolerance epsilon. The solver stops at the first iteration that
starts with every stepsize at the floor and accepts no step, which certifies
an approximate-stationarity bound for gradient-Lipschitz objectives.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import BudgetExhausted, DfSimplexConfig, exchange_point, is_simplex_point
from .linesearch import line_search


class StopReason(Enum):
    TOLERANCE = "tolerance"
    BUDGET = "budget"


def choose_pivot(y: np.ndarray) -> int:
    """The max-weight coordinate, lowest index on ties."""
    return int(np.argmax(y))


@dataclass
class DfSimplexState:
    """State threaded through the outer iterations."""

    y: np.ndarray
    f_y: float
    alpha_hat: np.ndarray
    k: int = 0
    pivot: int = -1
    # alpha accepted per coordinate during the most recent iteration
    last_alphas: Optional[np.ndarray] = None
    # every probe of the most recent iteration in evaluation order, repeats kept
    samples: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    # all alpha_hat were at the epsilon floor when the iteration began
    entered_at_floor: bool = False
    budget_exhausted: bool = False


@dataclass
class DfSimplexResult:
    y: np.ndarray
    f: float
    alpha_hat: np.ndarray
    # every probe of the final iteration in evaluation order, repeats kept
    samples: List[Tuple[np.ndarray, float]]
    iterations: int
    stop: StopReason


def df_simplex_iterate(
    state: DfSimplexState,
    phi: Callable[[np.ndarray], float],
    cfg: DfSimplexConfig,
) -> DfSimplexState:
    """One outer iteration: pivot, sweep of line searches, stepsize updates.

    On budget exhaustion the partially updated state is returned with
    ``budget_exhausted`` set, so the caller can stop gracefully.
    """
    y = state.y
    m = len(y)
    ah = state.alpha_hat
    j = choose_pivot(y)
    entered_at_floor = bool(np.all(ah == cfg.epsilon))

    z = y.copy()
    f_z = state.f_y
    new_ah = ah.copy()
    alphas = np.zeros(m)
    samples: List[Tuple[np.ndarray, float]] = []
    exhausted = False

    for i in range(m):
        if i == j:
            continue
        try:
            out = line_search(phi, z, f_z, i, j, float(ah[i]), cfg.gamma, cfg.delta)
        except BudgetExhausted:
            exhausted = True
            break
        samples.extend(out.samples)
        alphas[i] = out.alpha
        if out.alpha > 0.0:
            # Floor the success update too: the feasibility bound can truncate
            # the accepted step below epsilon, and alpha_hat >= epsilon must
            # hold at all times for the stopping condition to stay reachable.
            new_ah[i] = max(out.alpha, cfg.epsilon)
            z = exchange_point(z, out.sign, i, j, out.alpha)
            f_z = out.f_new
        else:
            new_ah[i] = max(cfg.theta * ah[i], cfg.epsilon)

    if not exhausted:
        xi = new_ah.copy()
        xi[j] = ah[j]
        new_ah[j] = max(float(xi.min()), cfg.epsilon)

    return DfSimplexState(
        y=z,
        f_y=f_z,
        alpha_hat=new_ah,
        k=state.k + 1,
        pivot=j,
        last_alphas=alphas,
        samples=samples,
        entered_at_floor=entered_at_floor,
        budget_exhausted=exhausted,
    )


def df_simplex_solve(
    phi: Callable[[np.ndarray], float],
    y0: np.ndarray,
    cfg: DfSimplexConfig,
    f0: Optional[float] = None,
) -> DfSimplexResult:
    """Run the direct search from y0 until the tolerance or the budget stops it.

    ``f0`` is an optional cached value of phi(y0); when omitted, one
    evaluation is spent up front. Every probe costs exactly one evaluation.
    """
    y0 = np.asarray(y0, dtype=float).copy()
    if not is_simplex_point(y0):
        raise ValueError(f"starting point {y0!r} is not in the unit simplex")
    m = len(y0)

    if f0 is None:
        f0 = phi(y0)

    if m == 1:
        # No exchange direction exists; report the stepsize at the floor.
        return DfSimplexResult(
            y=y0,
            f=float(f0),
            alpha_hat=np.array([cfg.epsilon]),
            samples=[],
            iterations=0,
            stop=StopReason.TOLERANCE,
        )

    state = DfSimplexState(
        y=y0,
        f_y=float(f0),
        alpha_hat=np.full(m, float(cfg.alpha0)),
        k=0,
    )

    while True:
        state = df_simplex_iterate(state, phi, cfg)
        if state.budget_exhausted:
            stop = StopReason.BUDGET
            break
        if state.entered_at_floor and np.all(state.last_alphas == 0.0):
            stop = StopReason.TOLERANCE
            break

    return DfSimplexResult(
        y=state.y,
        f=state.f_y,
        alpha_hat=state.alpha_hat,
        samples=state.samples,
        iterations=state.k,
        stop=stop,
    )
