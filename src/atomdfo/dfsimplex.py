"""Direct search over the unit simplex with exchange directions +/-(e_i - e_j).

Each outer iteration picks the max-weight pivot coordinate, line-searches
every other coordinate against it in index order from the running point,
and maintains per-coordinate starting stepsizes floored at the
stopping tolerance epsilon. The solver stops at the first iteration that
starts with every stepsize at the floor and accepts no step, which certifies
an approximate-stationarity bound for gradient-Lipschitz objectives.

The probe rule lives here whole: ``line_search`` probes +/-(e_i - e_j), and
``df_simplex_iterate`` skips a search with both feasibility bounds zero. A
probe of value f at step alpha is accepted only on a strict sufficient
decrease, f < phi(z) and f <= phi(z) - gamma*alpha**2: against a large
|phi(z)| the margin rounds away, and a zero-decrease step could then repeat
until the budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import BudgetExhausted, exchange_point, is_simplex_point

# The paper's step parameters; only the tolerance epsilon is an argument.
GAMMA = 1e-6  # sufficient-decrease coefficient
DELTA = 0.5  # an accepted step expands by 1/DELTA
THETA = 0.5  # a failed search shrinks its stepsize by THETA
ALPHA0 = 1.0  # every coordinate's initial stepsize


class StopReason(Enum):
    TOLERANCE = "tolerance"
    BUDGET = "budget"


def choose_pivot(y: np.ndarray) -> int:
    """The max-weight coordinate, lowest index on ties."""
    return int(y.argmax())


@dataclass
class DfSimplexState:
    """The running state; df_simplex_solve returns the one that stopped."""

    y: np.ndarray
    f: float
    alpha_hat: np.ndarray
    iterations: int = 0
    # set by the iteration that ends the run, None while it goes on
    stop: Optional[StopReason] = None


@dataclass
class LineSearchOutcome:
    """Result of one search along +/-(e_i - e_j).

    ``sign`` records whether the direction was kept (+1) or flipped (-1);
    a failed search returns alpha == 0 with sign == +1 by convention and the
    caller ignores the direction. ``f_new`` and ``z`` are the objective value
    and the point the accepted probe evaluated (the caller's cached value and
    its own z when alpha == 0).
    """

    alpha: float
    sign: int
    f_new: float
    z: np.ndarray


def line_search(
    phi: Callable[[np.ndarray], float],
    z: np.ndarray,
    f_z: float,
    i: int,
    j: int,
    alpha_hat: float,
    gamma: float,
    delta: float,
) -> LineSearchOutcome:
    """Search along d = e_i - e_j and its reverse from z, where phi(z) = f_z.

    A direction's first probe is at min(bound, alpha_hat), with the
    feasibility bound z_j forward and z_i in reverse; a zero bound skips it
    without an evaluation, and the reverse is probed only when the forward
    step is zero or fails. A probe of value f at step a is accepted when
    f < f_z and f <= f_z - gamma*a**2, so neither a tie with f_z nor a NaN
    is, and an accepted step expands by 1/delta until the bound or the first
    rejected probe. ``z`` is an ndarray (the solvers pass float64 simplex
    points). phi(z) is never re-evaluated here: each probe costs exactly one
    evaluation, and a :class:`~atomdfo.core.BudgetExhausted` raised by ``phi``
    propagates to the caller.
    """
    # written as `not >` so that a NaN alpha_hat fails the guard
    if not alpha_hat > 0.0:
        raise ValueError(f"alpha_hat must be positive, got {alpha_hat}")
    for sign, bound in ((+1, z.item(j)), (-1, z.item(i))):
        alpha = min(bound, alpha_hat)
        if alpha <= 0.0:
            continue
        z_new = exchange_point(z, sign, i, j, alpha)
        f_new = phi(z_new)
        # both comparisons are False for a NaN value
        if not (f_new < f_z and f_new <= f_z - gamma * alpha * alpha):
            continue
        while alpha < bound:
            beta = min(bound, alpha / delta)
            z_beta = exchange_point(z, sign, i, j, beta)
            f_beta = phi(z_beta)
            if not (f_beta < f_z and f_beta <= f_z - gamma * beta * beta):
                break
            alpha, z_new, f_new = beta, z_beta, f_beta
        return LineSearchOutcome(alpha, sign, f_new, z_new)
    return LineSearchOutcome(0.0, +1, f_z, z)


def df_simplex_iterate(
    state: DfSimplexState,
    phi: Callable[[np.ndarray], float],
    epsilon: float,
) -> DfSimplexState:
    """One outer iteration: pivot, sweep of line searches, stepsize updates.

    epsilon is both the stepsize floor and the stopping tolerance. ``stop``
    is BUDGET when a probe is refused, with the partially updated state
    returned so the caller can stop gracefully, and TOLERANCE when no step
    was accepted and every stepsize began at the floor, or there is no
    exchange direction at all (m == 1).
    """
    y = state.y
    m = len(y)
    # stepsizes on Python floats: the same IEEE operations as on float64 entries
    ah = state.alpha_hat.tolist()
    j = choose_pivot(y)

    z = y.copy()
    z_j = z.item(j)  # the forward feasibility bound of every search
    f_z = state.f
    new_ah = list(ah)
    moved = False
    stop = None

    for i in range(m):
        if i == j:
            continue
        if z_j <= 0.0 and z.item(i) <= 0.0:
            # both feasibility bounds are zero: the search would make no probe
            new_ah[i] = max(THETA * ah[i], epsilon)
            continue
        try:
            out = line_search(phi, z, f_z, i, j, ah[i], GAMMA, DELTA)
        except BudgetExhausted:
            stop = StopReason.BUDGET
            break
        if out.alpha > 0.0:
            # Floor the success update too: the feasibility bound can truncate
            # the accepted step below epsilon, and alpha_hat >= epsilon must
            # hold at all times for the stopping condition to stay reachable.
            new_ah[i] = max(out.alpha, epsilon)
            z, f_z = out.z, out.f_new
            z_j = z.item(j)
            moved = True
        else:
            new_ah[i] = max(THETA * ah[i], epsilon)

    if stop is None:
        if not moved and (m == 1 or all(a == epsilon for a in ah)):
            stop = StopReason.TOLERANCE
        # min of every updated stepsize and the old pivot one (the sweep skips j)
        new_ah[j] = max(min(new_ah), epsilon)

    return DfSimplexState(
        y=z,
        f=f_z,
        alpha_hat=np.array(new_ah),
        iterations=state.iterations + 1,
        stop=stop,
    )


def df_simplex_solve(
    phi: Callable[[np.ndarray], float],
    y0: np.ndarray,
    epsilon: float,
    f0: Optional[float] = None,
) -> DfSimplexState:
    """Run the direct search from y0 until the tolerance or the budget stops it.

    epsilon, in (0, inf), is the stepsize floor and the stopping tolerance.
    ``f0`` is an optional cached value of phi(y0); when omitted, one
    evaluation is spent up front, and a BudgetExhausted it raises propagates.
    Every probe costs exactly one evaluation.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be in (0, inf), got {epsilon}")
    y0 = np.asarray(y0, dtype=float).copy()
    if not is_simplex_point(y0):
        raise ValueError(f"starting point {y0!r} is not in the unit simplex")
    if f0 is None:
        f0 = phi(y0)

    state = DfSimplexState(y0, float(f0), np.full(len(y0), ALPHA0))
    while state.stop is None:
        state = df_simplex_iterate(state, phi, epsilon)
    return state
