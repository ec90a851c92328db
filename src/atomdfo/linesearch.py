"""Bidirectional sufficient-decrease line search with stepsize expansion.

The search probes +/-(e_i - e_j) from a simplex point, accepts a step alpha
when phi(z + alpha*d) <= phi(z) - gamma*alpha**2, and expands an accepted step
by 1/delta until the feasibility bound or the first failed probe. Probes whose
feasibility bound is zero are skipped without spending an evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .core import exchange_point


@dataclass
class LineSearchOutcome:
    """Result of one search along +/-(e_i - e_j).

    ``sign`` records whether the direction was kept (+1) or flipped (-1);
    a failed search returns alpha == 0 with sign == +1 by convention and the
    caller ignores the direction. ``f_new`` is the objective value at the
    accepted point (the caller's cached value when alpha == 0). ``samples``
    holds every point actually evaluated, feasible by construction.
    """

    alpha: float
    sign: int
    f_new: float
    samples: List[Tuple[np.ndarray, float]] = field(default_factory=list)


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

    phi(z) is never re-evaluated here: each probe costs exactly one
    evaluation, and a :class:`~atomdfo.core.BudgetExhausted` raised by ``phi``
    propagates to the caller.
    """
    if alpha_hat <= 0.0:
        raise ValueError(f"alpha_hat must be positive, got {alpha_hat}")
    samples: List[Tuple[np.ndarray, float]] = []

    def probe(sign: int, step: float) -> float:
        point = exchange_point(z, sign, i, j, step)
        value = phi(point)
        samples.append((point, value))
        return value

    sign = 0
    bound = 0.0
    alpha = 0.0
    f_acc = f_z

    # Forward probe: the bound along +(e_i - e_j) is z_j.
    fwd_bound = float(z[j])
    step = min(fwd_bound, alpha_hat)
    if step > 0.0:
        value = probe(+1, step)
        if value <= f_z - gamma * step * step:
            sign, bound, alpha, f_acc = +1, fwd_bound, step, value

    # Backward probe: the bound along -(e_i - e_j) is z_i.
    if sign == 0:
        bwd_bound = float(z[i])
        step = min(bwd_bound, alpha_hat)
        if step > 0.0:
            value = probe(-1, step)
            if value <= f_z - gamma * step * step:
                sign, bound, alpha, f_acc = -1, bwd_bound, step, value

    if sign == 0:
        return LineSearchOutcome(0.0, +1, f_z, samples)

    # Expansion: grow alpha by 1/delta while the sufficient decrease holds,
    # never past the feasibility bound.
    beta = min(bound, alpha / delta)
    while alpha < bound:
        value = probe(sign, beta)
        if value <= f_z - gamma * beta * beta:
            alpha, f_acc = beta, value
            beta = min(bound, alpha / delta)
        else:
            break
    return LineSearchOutcome(alpha, sign, f_acc, samples)
