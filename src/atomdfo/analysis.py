"""Verification layer: stationarity measures, tangent-cone oracle, property suite.

Everything here exists to check the solvers, not to run inside them. The cone
projection oracle is exponential in the number of active zero weights and is
capped accordingly; the property suite turns the geometric facts the solvers
rely on into randomized, seeded checks with explicit margins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .core import BudgetedObjective, DfSimplexConfig, ZERO_TOL
from .dfsimplex import df_simplex_solve, line_search

CONE_ORACLE_CAP = 12


class CapExceeded(Exception):
    """The subset-enumeration oracle was asked for more coordinates than it supports."""


def kkt_gap(g: np.ndarray, y: np.ndarray) -> float:
    """max over the simplex of -g^T (w - y), attained at a vertex: g^T y - min_i g_i.

    Zero exactly when y puts all its mass on minimal-gradient coordinates,
    i.e. when y is stationary for the linearized problem.
    """
    g = np.asarray(g, dtype=float)
    return float(g @ np.asarray(y, dtype=float) - g.min())


def tangent_cone_project(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the tangent cone of the simplex at y.

    The cone is {u : sum(u) = 0, u_i >= 0 for i in Z}, Z the zero set of y.
    Every subset of Z is tried as the pinned (equality) set; each
    candidate is the closed-form least-squares point on the corresponding
    affine subset, and the feasible candidate of minimum distance is the exact
    projection. Exponential in |Z|, hence the cap.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(v)
    if m != len(y):
        raise ValueError("vector and cone dimensions differ")
    if m > CONE_ORACLE_CAP:
        raise CapExceeded(f"oracle supports up to {CONE_ORACLE_CAP} coordinates, got {m}")
    zeros = [int(i) for i in np.flatnonzero(y <= ZERO_TOL)]
    best = None
    best_d2 = np.inf
    for bits in range(1 << len(zeros)):
        pinned = [zeros[t] for t in range(len(zeros)) if (bits >> t) & 1]
        free = [h for h in range(m) if h not in pinned]
        if not free:
            continue
        u = np.zeros(m)
        vf = v[free]
        u[free] = vf - vf.mean()
        if any(u[h] < -1e-12 for h in zeros if h not in pinned):
            continue
        d2 = float(np.sum((u - v) ** 2))
        if d2 < best_d2:
            best_d2 = d2
            best = u
    assert best is not None, "simplex point must have a nonempty positive support"
    return best


def feasible_direction_set(y: np.ndarray, j: int) -> List[Tuple[int, int, int]]:
    """The feasible exchange directions at y against pivot j, as (sign, i, j) triples.

    +(e_i - e_j) is feasible for every i (y_j > 0 lets mass leave j);
    -(e_i - e_j) only where y_i > 0.
    """
    y = np.asarray(y, dtype=float)
    if y[j] <= ZERO_TOL:
        raise ValueError(f"pivot weight must be positive, got y[{j}]={y[j]}")
    out: List[Tuple[int, int, int]] = []
    for i in range(len(y)):
        if i == j:
            continue
        out.append((+1, i, j))
        if y[i] > ZERO_TOL:
            out.append((-1, i, j))
    return out


def direction_vector(sign: int, i: int, j: int, m: int) -> np.ndarray:
    d = np.zeros(m)
    d[i] = float(sign)
    d[j] = -float(sign)
    return d


def reference_line_search(
    phi: Callable[[np.ndarray], float],
    z: np.ndarray,
    f_z: float,
    i: int,
    j: int,
    alpha_hat: float,
    gamma: float,
    delta: float,
) -> Tuple[float, int]:
    """Plain re-execution of the line search acceptance tests, for cross-checks.

    Kept deliberately independent of the production implementation: bare
    vector arithmetic, no sample bookkeeping, no budget awareness. A probe of
    value f is accepted on a strict sufficient decrease, f < f_z and
    f <= f_z - gamma*step**2, as in the production search.
    """
    z = np.asarray(z, dtype=float)
    d = np.zeros(len(z))
    d[i], d[j] = 1.0, -1.0

    def accepts(sign, step):
        value = phi(z + (sign * step) * d)
        return value < f_z and value <= f_z - gamma * step * step

    for sign, bound in ((+1, float(z[j])), (-1, float(z[i]))):
        step = min(bound, alpha_hat)
        if step > 0.0 and accepts(sign, step):
            alpha = step
            beta = min(bound, alpha / delta)
            while alpha < bound and accepts(sign, beta):
                alpha = beta
                beta = min(bound, alpha / delta)
            return alpha, sign
    return 0.0, +1


# ---------------------------------------------------------------------------
# Randomized property suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    name: str
    trials: int
    worst_margin: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name:<24s} trials={self.trials:<6d} worst_margin={self.worst_margin:+.3e}  {status}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


def random_simplex_point(rng: np.random.Generator, m: int, n_zeros: int = 0) -> np.ndarray:
    """Uniform-ish simplex point with exactly n_zeros coordinates set to 0."""
    if not (0 <= n_zeros < m):
        raise ValueError("need 0 <= n_zeros < m")
    y = np.zeros(m)
    support = rng.permutation(m)[: m - n_zeros]
    w = rng.exponential(size=m - n_zeros)
    y[support] = w / w.sum()
    return y


def _random_quadratic(rng: np.random.Generator, m: int, scale: float = 1.0):
    """Convex quadratic phi(y) = 0.5 y^T Q y + c^T y with its gradient and sharp L."""
    B = rng.normal(size=(m, m))
    Q = scale * (B.T @ B) / m
    c = rng.normal(size=m)
    L = float(np.linalg.eigvalsh(Q).max())
    return (lambda y: float(0.5 * y @ Q @ y + c @ y)), (lambda y: Q @ y + c), L


def check_cone_measure(
    trials: int,
    rng: np.random.Generator,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] = tangent_cone_project,
) -> PropertyReport:
    """max_{d in D} v^T d >= ||v_T|| / (2(m-1)) on faces with >= 2 positive weights.

    At an exact vertex the inequality can fail for v interior to the normal
    cone (v_T = 0 while every feasible direction ascends); that degenerate
    face is exercised separately by check_cone_polarity.
    """
    worst = np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m - 1))  # keep at least 2 positive coordinates
        y = random_simplex_point(rng, m, n_zeros)
        j = int(np.argmax(y))
        dirs = feasible_direction_set(y, j)
        v = rng.normal(size=m)
        v_t = project(v, y)
        lhs = max(sign * (v[i] - v[jj]) for sign, i, jj in dirs)
        rhs = float(np.linalg.norm(v_t)) / (2.0 * (m - 1))
        worst = min(worst, lhs - rhs)
    return PropertyReport("cone-measure", trials, worst, worst >= -1e-10)


def check_cone_polarity(
    trials: int,
    rng: np.random.Generator,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] = tangent_cone_project,
) -> PropertyReport:
    """Whenever v_T = 0 (v in the normal cone), no feasible direction ascends on v.

    Sampled over all faces including exact vertices; complements
    check_cone_measure on the degenerate case.
    """
    worst = np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m))
        y = random_simplex_point(rng, m, n_zeros)
        j = int(np.argmax(y))
        dirs = feasible_direction_set(y, j)
        v = rng.normal(size=m)
        v_t = project(v, y)
        if np.linalg.norm(v_t) > 1e-12:
            continue
        worst = min(worst, -max(sign * (v[i] - v[jj]) for sign, i, jj in dirs))
    if np.isinf(worst):
        worst = 0.0
    return PropertyReport("cone-polarity", trials, worst, worst >= -1e-10)


def check_generator_property(trials: int, rng: np.random.Generator) -> PropertyReport:
    """Every projected vector is a non-negative combination of the direction set."""
    from scipy.optimize import nnls

    worst = -np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m))
        y = random_simplex_point(rng, m, n_zeros)
        j = int(np.argmax(y))
        dirs = feasible_direction_set(y, j)
        v = rng.normal(size=m)
        v_t = tangent_cone_project(v, y)
        D = np.column_stack([direction_vector(s, i, jj, m) for s, i, jj in dirs])
        _, residual = nnls(D, v_t)
        worst = max(worst, residual)
    return PropertyReport("cone-generators", trials, 1e-8 - worst, worst <= 1e-8)


def check_polar_decomposition(
    trials: int,
    rng: np.random.Generator,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] = tangent_cone_project,
) -> PropertyReport:
    """v = v_T + v_N with v_T orthogonal to v_N and v_N polar to every direction."""
    worst = np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m))
        y = random_simplex_point(rng, m, n_zeros)
        j = int(np.argmax(y))
        v = rng.normal(size=m)
        v_t = project(v, y)
        v_n = v - v_t
        orth = abs(float(v_t @ v_n))
        polar = max(
            s * (v_n[i] - v_n[jj]) for s, i, jj in feasible_direction_set(y, j)
        )
        worst = min(worst, 1e-10 - orth, 1e-10 - polar)
    return PropertyReport("polar-decomposition", trials, worst, worst >= 0.0)


def check_kkt_upper_bound(
    trials: int,
    rng: np.random.Generator,
    gap: Callable[[np.ndarray, np.ndarray], float] = kkt_gap,
) -> PropertyReport:
    """kkt_gap(g, y) <= sqrt(2) * ||(-g)_T(y)|| on random points and gradients."""
    worst = np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m))
        y = random_simplex_point(rng, m, n_zeros)
        g = rng.normal(size=m)
        v_t = tangent_cone_project(-g, y)
        bound = np.sqrt(2.0) * float(np.linalg.norm(v_t))
        worst = min(worst, bound - gap(g, y))
    return PropertyReport("kkt-upper-bound", trials, worst, worst >= -1e-10)


def check_linesearch_oracle(trials: int, rng: np.random.Generator) -> PropertyReport:
    """Production line search agrees with the plain re-execution on (alpha, sign)."""
    mismatches = 0
    for _ in range(trials):
        m = int(rng.integers(2, 7))
        phi, _, _ = _random_quadratic(rng, m, scale=float(rng.uniform(0.5, 20.0)))
        n_zeros = int(rng.integers(0, m))
        z = random_simplex_point(rng, m, n_zeros)
        i, j = rng.permutation(m)[:2]
        alpha_hat = float(10.0 ** rng.uniform(-3, 0))
        gamma = float(10.0 ** rng.uniform(-8, -2))
        delta = float(rng.choice([0.3, 0.5, 0.7]))
        f_z = phi(z)
        out = line_search(phi, z, f_z, int(i), int(j), alpha_hat, gamma, delta)
        ref_alpha, ref_sign = reference_line_search(
            phi, z, f_z, int(i), int(j), alpha_hat, gamma, delta
        )
        if out.alpha != ref_alpha or out.sign != ref_sign:
            mismatches += 1
    return PropertyReport(
        "linesearch-oracle",
        trials,
        0.0 if mismatches == 0 else -float(mismatches),
        mismatches == 0,
        detail=f"{mismatches} mismatches",
    )


def check_simplex_gradient_affine(trials: int, rng: np.random.Generator) -> PropertyReport:
    """The final-poll gradient's tangent part is exact on affine objectives.

    Only g - c with its mean removed is compared: the fit pins the component
    along the all-ones vector to zero, which the drop test cancels anyway.
    """
    from .ord import poll_gradient

    worst = -np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 11))
        c = rng.normal(size=m)
        b = float(rng.normal())
        phi = BudgetedObjective(lambda y, c=c, b=b: float(c @ y + b))
        y0 = random_simplex_point(rng, m, int(rng.integers(0, m)))
        cfg = DfSimplexConfig(epsilon=1e-3)
        res = df_simplex_solve(phi, y0, cfg)
        d = poll_gradient(phi, res.y, res.f, cfg.epsilon) - c
        worst = max(worst, float(np.max(np.abs(d - d.mean()))))
    return PropertyReport("simplex-grad-affine", trials, 1e-8 - worst, worst <= 1e-8)


def check_stationarity_bound(
    trials: int,
    rng: np.random.Generator,
    gap: Callable[[np.ndarray, np.ndarray], float] = kkt_gap,
) -> PropertyReport:
    """Solver output satisfies kkt_gap <= 2*sqrt(2)*(m-1)*(2L+gamma)*epsilon."""
    cfg = DfSimplexConfig(epsilon=1e-4)
    worst = np.inf
    for _ in range(trials):
        m = int(rng.integers(3, 9))
        phi, grad, L = _random_quadratic(rng, m, scale=float(rng.uniform(0.5, 10.0)))
        y0 = random_simplex_point(rng, m, 0)
        res = df_simplex_solve(phi, y0, cfg)
        bound = 2.0 * np.sqrt(2.0) * (m - 1) * (2.0 * L + cfg.gamma) * cfg.epsilon
        worst = min(worst, bound - gap(grad(res.y), res.y))
    return PropertyReport("stationarity-bound", trials, worst, worst >= 0.0)


SUITE_LEVELS = {
    "quick": {"geometry": 100, "oracle": 100, "gradient": 20, "solver": 5},
    "full": {"geometry": 1000, "oracle": 500, "gradient": 100, "solver": 20},
}


def run_property_suite(level: str = "quick", seed: int = 0) -> List[PropertyReport]:
    """Run every randomized property at the given trial level, seeded."""
    if level not in SUITE_LEVELS:
        raise ValueError(f"unknown level {level!r}, expected one of {sorted(SUITE_LEVELS)}")
    counts = SUITE_LEVELS[level]
    rng = np.random.default_rng(seed)
    return [
        check_cone_measure(counts["geometry"], rng),
        check_cone_polarity(counts["geometry"], rng),
        check_generator_property(counts["geometry"], rng),
        check_polar_decomposition(counts["geometry"], rng),
        check_kkt_upper_bound(counts["geometry"], rng),
        check_linesearch_oracle(counts["oracle"], rng),
        check_simplex_gradient_affine(counts["gradient"], rng),
        check_stationarity_bound(counts["solver"], rng),
    ]
