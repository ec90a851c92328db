"""Moré–Wild quality metrics against a per-run lower bound f_L.

A run is solved at accuracy tau once its best-so-far value reaches
f_L + tau * (f0 - f_L). Unlike atomdfo.profiles, f_L is never the minimum
over the solvers in one workload: it is min(reference value, the run's own
best), so one solver's gain never counts as another solver's loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

KAPPAS = tuple(range(0, 101))


@dataclass(frozen=True)
class RunHistory:
    """Best-so-far value after each evaluation of one run, and its f_L."""

    n: int
    history: np.ndarray
    f_low: float

    @classmethod
    def with_reference(cls, n: int, history, f_ref: float) -> "RunHistory":
        history = np.asarray(history, dtype=float)
        return cls(n, history, min(float(f_ref), float(history.min())))


# Stands in for a run that failed: NaN compares false with every target.
UNSOLVED = RunHistory(1, np.array([np.nan]), np.nan)


def first_hit(run: RunHistory, tau: float) -> Optional[int]:
    """1-based evaluation at which the run reaches the tau target, if it does."""
    f0 = float(run.history[0])
    target = run.f_low + tau * (f0 - run.f_low)
    hits = np.flatnonzero(run.history <= target)
    return int(hits[0]) + 1 if len(hits) else None


def data_profile(runs: Sequence[RunHistory], tau: float,
                 kappas: Sequence[float] = KAPPAS) -> np.ndarray:
    """Share of runs solved within kappa * (n + 1) evaluations, for each kappa."""
    hits = [first_hit(run, tau) for run in runs]
    return np.array([
        sum(1 for hit, run in zip(hits, runs)
            if hit is not None and hit <= kappa * (run.n + 1)) / len(runs)
        for kappa in kappas
    ])


def solved(runs: Sequence[RunHistory], tau: float) -> float:
    """The data profile at kappa = 100: the paper's budget of 100(n+1)."""
    return float(data_profile(runs, tau, kappas=(100,))[0])


def dp_area(runs: Sequence[RunHistory], tau: float) -> float:
    """Mean of the data profile over kappa = 0..100."""
    return float(np.mean(data_profile(runs, tau)))
