"""Bidirectional sufficient-decrease line search with stepsize expansion.

The search probes +/-(e_i - e_j) from a simplex point, accepts a step alpha
when phi(z + alpha*d) <= phi(z) - gamma*alpha**2, and expands an accepted step
by 1/delta until the feasibility bound or the first failed probe. Probes whose
feasibility bound is zero are skipped without spending an evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import exchange_point


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

    ``z`` is an ndarray (the solvers pass float64 simplex points).
    The reverse is probed only when the forward step is zero or fails.
    phi(z) is never re-evaluated here: each probe costs exactly one
    evaluation, and a :class:`~atomdfo.core.BudgetExhausted` raised by ``phi``
    propagates to the caller.
    """
    # written as `not >` so that a NaN alpha_hat fails the guard
    if not alpha_hat > 0.0:
        raise ValueError(f"alpha_hat must be positive, got {alpha_hat}")
    # The feasibility bound is z_j along +(e_i - e_j) and z_i along its reverse.
    for sign, bound in ((+1, z.item(j)), (-1, z.item(i))):
        alpha = min(bound, alpha_hat)
        if alpha <= 0.0:
            continue
        z_new = exchange_point(z, sign, i, j, alpha)
        f_new = phi(z_new)
        # written as `not <=` so that a NaN value fails the test
        if not f_new <= f_z - gamma * alpha * alpha:
            continue
        # Expansion: grow alpha by 1/delta while the sufficient decrease holds,
        # never past the feasibility bound.
        while alpha < bound:
            beta = min(bound, alpha / delta)
            z_beta = exchange_point(z, sign, i, j, beta)
            f_beta = phi(z_beta)
            if not f_beta <= f_z - gamma * beta * beta:
                break
            alpha, z_new, f_new = beta, z_beta, f_beta
        return LineSearchOutcome(alpha, sign, f_new, z_new)
    return LineSearchOutcome(0.0, +1, f_z, z)
