"""Solver-independent reference values f_ref for the benchmark problems.

Each value is the best point found by away-step Frank-Wolfe (Lacoste-Julien
& Jaggi, NeurIPS 2015) on the catalog function's analytic gradient over the
problem's atoms, with the adaptive step size of Pedregosa et al. (AISTATS
2020). It shares no code with atomdfo's solvers: only the catalog and the
problem generator are used. The benchmark takes f_L = min(f_ref, a run's own
best), so a reference that stops in a worse local minimum never penalises a
run.

Regenerate the frozen table for the default seed with

    python3 perfbench/reference.py
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
FROZEN_SEED = 0
FROZEN_PATH = HERE / f"reference_seed{FROZEN_SEED}.json"
CACHE_DIR = HERE / "_cache"

MAX_ITERS = 400
# Frank-Wolfe also starts from the best of this many evenly spaced atoms.
START_SAMPLE = 64
# Stop once the duality gap, which bounds f - min f for convex f, is below
# this share of the decrease so far: far below the tau = 1e-5 targets.
GAP_TOL = 1e-9


def away_step_fw(value, gradient, atoms_t: np.ndarray, start_id: int) -> float:
    """Best value of ``value`` over the hull of the columns of ``atoms_t``.

    ``atoms_t`` is the (n, m) transposed atom matrix, so that the linear
    minimisation over all atoms is one contiguous ``g @ atoms_t``.
    """
    weights = {start_id: 1.0}
    x = atoms_t[:, start_id].copy()
    fx = value(x)
    f_start = best = fx
    lip = 1.0
    for _ in range(MAX_ITERS):
        g = gradient(x)
        scores = g @ atoms_t
        gx = float(g @ x)
        s = int(np.argmin(scores))
        fw_gap = gx - float(scores[s])
        # With one active atom x is that atom, and there is no away step.
        v = max(weights, key=lambda i: scores[i])
        away_gap = float(scores[v]) - gx if len(weights) > 1 else 0.0
        if max(fw_gap, away_gap) <= GAP_TOL * (f_start - fx):
            break
        toward = fw_gap >= away_gap
        if toward:
            d = atoms_t[:, s] - x
            gamma_max, slope = 1.0, -fw_gap
        else:
            d = x - atoms_t[:, v]
            w_v = weights[v]
            gamma_max, slope = w_v / (1.0 - w_v), -away_gap
        dd = float(d @ d)
        if dd == 0.0:
            break
        # Backtrack on the local Lipschitz estimate until the quadratic model
        # bounds the new value (Pedregosa et al. 2020, Algorithm 1).
        lip *= 0.9
        for _ in range(200):
            gamma = min(-slope / (lip * dd), gamma_max)
            x_new = x + gamma * d
            f_new = value(x_new)
            if f_new <= fx + gamma * slope + 0.5 * lip * gamma * gamma * dd:
                break
            lip *= 2.0
        else:
            break
        if toward:
            weights = {i: w * (1.0 - gamma) for i, w in weights.items()}
            weights[s] = weights.get(s, 0.0) + gamma
        else:
            weights = {i: w * (1.0 + gamma) for i, w in weights.items()}
            if gamma == gamma_max:
                del weights[v]
            else:
                weights[v] -= gamma
        x, fx = x_new, f_new
        best = min(best, fx)
    return float(best)


def reference_value(name: str, n: int, m: int, seed: int) -> float:
    """min over two away-step Frank-Wolfe runs: from the problem's start atom
    and from the best of up to START_SAMPLE evenly spaced atoms."""
    from atomdfo import bench

    problem = bench.make_problem(name, n, m, seed)
    func = bench.make_test_function(name, n)
    atoms = problem.atoms.atoms
    sample = np.unique(np.linspace(0, m - 1, min(m, START_SAMPLE)).astype(int))
    best_sampled = int(sample[np.argmin([func.value(atoms[i]) for i in sample])])
    atoms_t = np.ascontiguousarray(atoms.T)
    return min(away_step_fw(func.value, func.gradient, atoms_t, start)
               for start in sorted({problem.start_id, best_sampled}))


def _path(seed: int) -> Path:
    return FROZEN_PATH if seed == FROZEN_SEED else CACHE_DIR / f"reference_seed{seed}.json"


def load(seed: int) -> Dict[str, float]:
    """The stored table for a workload seed: frozen for the default seed,
    cached (not committed) for any other; empty when nothing is stored."""
    path = _path(seed)
    if not path.is_file():
        return {}
    return {key: float(value) for key, value in json.loads(path.read_text()).items()}


def complete(table: Dict[str, float],
             problems: Iterable[Tuple[str, str, int, int, int]]) -> int:
    """Add the missing (problem id, name, n, m, seed) entries to ``table``;
    return how many were added."""
    missing = [p for p in problems if p[0] not in table]
    for pid, name, n, m, seed in missing:
        table[pid] = reference_value(name, n, m, seed)
    return len(missing)


def store(seed: int, table: Dict[str, float]) -> None:
    """Cache the table of a seed other than the default one."""
    if seed == FROZEN_SEED:
        raise ValueError("the default seed's table is regenerated by main(), not cached")
    stored = load(seed)
    stored.update(table)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = _path(seed).with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=0, sort_keys=True))
    os.replace(tmp, _path(seed))  # concurrent runs never read a partial file


def main() -> int:
    """Regenerate the frozen table; other seeds are computed on demand by run.py."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    table: Dict[str, float] = {}
    for workload in workloads.WORKLOADS.values():
        complete(table, workloads.reference_problems(workload, FROZEN_SEED))
    FROZEN_PATH.write_text(json.dumps(table, indent=0, sort_keys=True))
    print(f"wrote {len(table)} reference values to {FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
