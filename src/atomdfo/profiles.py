"""Data and performance profiles over solver evaluation histories.

A problem counts as solved by a solver once its best-so-far value crosses
f_L + tau*(f(x0) - f_L), where f_L is the best value any compared solver
reached on that problem. Data profiles scale the first-hit evaluation count
by n_p + 1; performance profiles compare it against the best solver's.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

DEFAULT_TAUS = (1e-1, 1e-3, 1e-5)
DEFAULT_KAPPAS = tuple(range(0, 101))
DEFAULT_IOTAS = tuple(np.logspace(0.0, 6.0, num=25, base=2.0))


@dataclass(frozen=True)
class RunRecord:
    """One solver's run on one problem: best-so-far value after each evaluation."""

    problem_id: str
    solver_id: str
    n_p: int
    history: np.ndarray
    f0: float

    def __post_init__(self):
        hist = np.asarray(self.history, dtype=float)
        if hist.ndim != 1 or len(hist) == 0:
            raise ValueError("history must be a nonempty 1-d array")
        if not np.all(np.isfinite(hist)):
            raise ValueError("best-so-far history must be finite")
        if np.any(np.diff(hist) > 0.0):
            raise ValueError("best-so-far history must be non-increasing")
        object.__setattr__(self, "history", hist)

    @property
    def best(self) -> float:
        return float(self.history[-1])


def convergence_threshold(f0: float, f_low: float, tau: float) -> float:
    """The accuracy target f_low + tau*(f0 - f_low)."""
    if f_low > f0:
        raise ValueError(f"f_low={f_low} exceeds f0={f0}")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return f_low + tau * (f0 - f_low)


def first_hit_evals(history: np.ndarray, threshold: float) -> Optional[int]:
    """1-based index of the first history entry <= threshold; None when unsolved."""
    hits = np.flatnonzero(np.asarray(history, dtype=float) <= threshold)
    if len(hits) == 0:
        return None
    return int(hits[0]) + 1


def _solve_table(records: Sequence[RunRecord], tau: float):
    """(solvers, t, n_p): t[p, s] is the first-hit evaluation count, inf if unsolved."""
    problems = sorted({r.problem_id for r in records})
    solvers = sorted({r.solver_id for r in records})
    by_key = {(r.problem_id, r.solver_id): r for r in records}
    if len(by_key) != len(records):
        raise ValueError("duplicate (problem, solver) record")
    for p in problems:
        for s in solvers:
            if (p, s) not in by_key:
                raise ValueError(f"missing record for problem {p!r}, solver {s!r}")
    t = np.full((len(problems), len(solvers)), np.inf)
    n_p = np.empty(len(problems))
    for i, p in enumerate(problems):
        runs = [by_key[(p, s)] for s in solvers]
        threshold = convergence_threshold(runs[0].f0, min(r.best for r in runs), tau)
        for j, run in enumerate(runs):
            hit = first_hit_evals(run.history, threshold)
            if hit is not None:
                t[i, j] = hit
        n_p[i] = runs[0].n_p
    return solvers, t, n_p


def data_profile(
    records: Sequence[RunRecord],
    tau: float,
    kappas: Sequence[float] = DEFAULT_KAPPAS,
) -> Dict[str, np.ndarray]:
    """d_s(kappa) = fraction of problems solved within kappa*(n_p+1) evaluations."""
    solvers, t, n_p = _solve_table(records, tau)
    budgets = (n_p + 1)[:, None] * np.asarray(kappas, dtype=float)
    return {s: np.mean(t[:, j, None] <= budgets, axis=0) for j, s in enumerate(solvers)}


def performance_profile(
    records: Sequence[RunRecord],
    tau: float,
    iotas: Sequence[float] = DEFAULT_IOTAS,
) -> Dict[str, np.ndarray]:
    """rho_s(iota) = fraction of problems where t_{p,s} <= iota * best solver's t."""
    solvers, t, _ = _solve_table(records, tau)
    # a problem no solver solved gives inf/inf = nan, which no iota counts
    with np.errstate(invalid="ignore"):
        ratios = t / t.min(axis=1, keepdims=True)
    grid = np.asarray(iotas, dtype=float)
    return {s: np.mean(ratios[:, j, None] <= grid, axis=0) for j, s in enumerate(solvers)}


def write_curves_csv(path, curves: Dict[str, np.ndarray], grid: Sequence[float]) -> None:
    """Per-solver curve dump: (solver_id, grid_value, curve_value) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver_id", "grid_value", "curve_value"])
        for solver in sorted(curves):
            for g_val, c_val in zip(grid, curves[solver]):
                writer.writerow([solver, f"{g_val:.17g}", f"{c_val:.17g}"])
