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

from .core import BudgetExhausted, DfSimplexConfig, is_simplex_point
from .linesearch import line_search


class StopReason(Enum):
    TOLERANCE = "tolerance"
    BUDGET = "budget"


def choose_pivot(y: np.ndarray) -> int:
    """The max-weight coordinate, lowest index on ties."""
    return int(np.argmax(y))


@dataclass
class DfSimplexState:
    """The running state; df_simplex_solve returns the one that stopped.

    ``samples`` holds the most recent iteration's probes, which ORD fits its
    drop gradient to. A BUDGET stop carries none: its sweep was cut short,
    and ORD returns before any fit.
    """

    y: np.ndarray
    f: float
    alpha_hat: np.ndarray
    iterations: int = 0
    # every probe of the most recent iteration in evaluation order, repeats kept
    samples: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    # set by the iteration that ends the run, None while it goes on
    stop: Optional[StopReason] = None


def df_simplex_iterate(
    state: DfSimplexState,
    phi: Callable[[np.ndarray], float],
    cfg: DfSimplexConfig,
) -> DfSimplexState:
    """One outer iteration: pivot, sweep of line searches, stepsize updates.

    ``stop`` is BUDGET when a probe is refused, with the partially updated
    state returned so the caller can stop gracefully, and TOLERANCE when no
    step was accepted and every stepsize began at the floor, or there is no
    exchange direction at all (m == 1).
    """
    y = state.y
    m = len(y)
    # stepsizes on Python floats: the same IEEE operations as on float64 entries
    ah = state.alpha_hat.tolist()
    gamma, delta, theta, eps = cfg.gamma, cfg.delta, cfg.theta, cfg.epsilon
    j = choose_pivot(y)

    z = y.copy()
    z_j = z.item(j)  # the forward feasibility bound of every search
    f_z = state.f
    new_ah = list(ah)
    samples: List[Tuple[np.ndarray, float]] = []
    moved = False
    stop = None

    for i in range(m):
        if i == j:
            continue
        if z_j <= 0.0 and z.item(i) <= 0.0:
            # both feasibility bounds are zero: the search would make no probe
            new_ah[i] = max(theta * ah[i], eps)
            continue
        try:
            out = line_search(phi, z, f_z, i, j, ah[i], gamma, delta)
        except BudgetExhausted:
            stop = StopReason.BUDGET
            samples = []
            break
        samples.extend(out.samples)
        if out.alpha > 0.0:
            # Floor the success update too: the feasibility bound can truncate
            # the accepted step below epsilon, and alpha_hat >= epsilon must
            # hold at all times for the stopping condition to stay reachable.
            new_ah[i] = max(out.alpha, eps)
            z, f_z = out.z, out.f_new
            z_j = z.item(j)
            moved = True
        else:
            new_ah[i] = max(theta * ah[i], eps)

    if stop is None:
        if not moved and (m == 1 or all(a == eps for a in ah)):
            stop = StopReason.TOLERANCE
        # min of every updated stepsize and the old pivot one (the sweep skips j)
        new_ah[j] = max(min(new_ah), eps)

    return DfSimplexState(
        y=z,
        f=f_z,
        alpha_hat=np.array(new_ah),
        iterations=state.iterations + 1,
        samples=samples,
        stop=stop,
    )


def df_simplex_solve(
    phi: Callable[[np.ndarray], float],
    y0: np.ndarray,
    cfg: DfSimplexConfig,
    f0: Optional[float] = None,
) -> DfSimplexState:
    """Run the direct search from y0 until the tolerance or the budget stops it.

    ``f0`` is an optional cached value of phi(y0); when omitted, one
    evaluation is spent up front. Every probe costs exactly one evaluation.
    """
    y0 = np.asarray(y0, dtype=float).copy()
    if not is_simplex_point(y0):
        raise ValueError(f"starting point {y0!r} is not in the unit simplex")
    if f0 is None:
        f0 = phi(y0)

    state = DfSimplexState(
        y=y0,
        f=float(f0),
        alpha_hat=np.full(len(y0), float(cfg.alpha0)),
    )
    while state.stop is None:
        state = df_simplex_iterate(state, phi, cfg)
    return state
