"""Verification layer: stationarity measures, tangent-cone oracle, property suite.

Everything here exists to check the solvers, not to run inside them. The
property suite turns the geometric facts the solvers rely on into randomized,
seeded checks with explicit margins. The five cone checks draw every random
face from one sampler, _random_faces.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .core import ZERO_TOL
from .dfsimplex import GAMMA, df_simplex_solve, line_search


def kkt_gap(g: np.ndarray, y: np.ndarray) -> float:
    """max over the simplex of -g^T (w - y), attained at a vertex: g^T y - min_i g_i.

    Zero exactly when y puts all its mass on minimal-gradient coordinates,
    i.e. when y is stationary for the linearized problem.
    """
    g = np.asarray(g, dtype=float)
    return float(g @ np.asarray(y, dtype=float) - g.min())


def tangent_cone_project(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the tangent cone of the simplex at y.

    The cone is {u : sum(u) = 0, u_i >= 0 for i in Z}, Z the zero set of y. By
    its KKT conditions u = v - lam off Z and u = max(v - lam, 0) on Z, where lam
    is the mean of v over the free coordinates and the entries of v on Z above
    lam. Those join in decreasing order while each lies above the running mean,
    as in the sort-and-threshold projection onto the simplex: exact, any length.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(v) != len(y):
        raise ValueError("vector and cone dimensions differ")
    free = y > ZERO_TOL
    if not free.any():
        raise ValueError("simplex point must have a nonempty positive support")
    order = np.flatnonzero(~free)[np.argsort(-v[~free])]
    running = (v[free].sum() + np.cumsum(np.r_[0.0, v[order]])) / np.arange(free.sum(), len(v) + 1)
    joins = np.argmin(np.append(v[order] > running[:-1], False))  # they stop at the first not above
    free[order[:joins]] = True
    return np.where(free, v - v[free].mean(), 0.0)


def feasible_direction_set(y: np.ndarray, j: int) -> np.ndarray:
    """The feasible exchange directions at y against pivot j, as the columns of an (m, k) matrix.

    For each i != j in order: +(e_i - e_j), feasible for every i (y_j > 0 lets
    mass leave j), then -(e_i - e_j) where y_i > 0.
    """
    y = np.asarray(y, dtype=float)
    if y[j] <= ZERO_TOL:
        raise ValueError(f"pivot weight must be positive, got y[{j}]={y[j]}")
    i = np.flatnonzero(np.arange(len(y)) != j).repeat(2)
    sign = np.tile([1.0, -1.0], len(y) - 1)
    keep = (sign > 0) | (y[i] > ZERO_TOL)
    D = np.zeros((len(y), int(keep.sum())))
    D[i[keep], np.arange(D.shape[1])] = sign[keep]
    D[j] = -sign[keep]
    return D


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


def _verdict(name: str, trials: int, margins, tol: float = 0.0, detail: str = "") -> PropertyReport:
    """The smallest per-trial margin is worst_margin, and the property passes when it is >= -tol.
    A NaN margin, or no margin at all (nothing was tested), makes worst_margin NaN: a fail."""
    margins = list(margins)
    worst = min(margins) if margins and not np.isnan(margins).any() else np.nan
    return PropertyReport(name, trials, worst, bool(worst >= -tol), detail)


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


def _random_faces(rng: np.random.Generator, trials: int, keep_two: bool = False):
    """Per trial: y on a random face of the m-simplex, m in 2..8 (with keep_two, at least two
    positive weights), its feasible-direction matrix against argmax y, then v ~ N(0, I)."""
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        y = random_simplex_point(rng, m, int(rng.integers(0, m - 1 if keep_two else m)))
        yield y, feasible_direction_set(y, int(np.argmax(y))), rng.normal(size=m)


def _best_ascent(v: np.ndarray, D: np.ndarray) -> float:
    """max v^T d over the columns d of D."""
    return float((v @ D).max())


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
    margins = (
        _best_ascent(v, D) - float(np.linalg.norm(project(v, y))) / (2.0 * (len(y) - 1))
        for y, D, v in _random_faces(rng, trials, keep_two=True)
    )
    return _verdict("cone-measure", trials, margins, tol=1e-10)


def check_cone_polarity(
    trials: int,
    rng: np.random.Generator,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] = tangent_cone_project,
) -> PropertyReport:
    """v_T = 0 exactly on the normal cone N(y) = {lam*1 - mu : mu >= 0, mu_i = 0 where y_i > 0}.

    Each trial maps its draw g into N(y) (lam = g at the pivot, mu_i = |g_i| on the zero set)
    and checks v_T = 0 and no ascent on v, and no ascent on g if g_T = 0; vertices included.
    """
    margins = []
    for y, D, g in _random_faces(rng, trials):
        v = np.where(y > ZERO_TOL, 0.0, -np.abs(g)) + g[np.argmax(y)]
        margins += [-_best_ascent(v, D), -float(np.linalg.norm(project(v, y)))]
        if np.linalg.norm(project(g, y)) <= 1e-12:
            margins.append(-_best_ascent(g, D))
    detail = f"{trials} of {trials} trials in the normal cone"
    return _verdict("cone-polarity", trials, margins, tol=1e-10, detail=detail)


def check_generator_property(trials: int, rng: np.random.Generator) -> PropertyReport:
    """Every projected vector is a non-negative combination of the direction set."""
    from scipy.optimize import nnls

    margins = []
    for y, D, v in _random_faces(rng, trials):
        margins.append(1e-8 - nnls(D, tangent_cone_project(v, y))[1])
    return _verdict("cone-generators", trials, margins)


def check_polar_decomposition(
    trials: int,
    rng: np.random.Generator,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] = tangent_cone_project,
) -> PropertyReport:
    """v = v_T + v_N with v_T in T(y), v_T orthogonal to v_N and v_N polar to every direction.

    v_T in T(y) is sum(v_T) = 0 and v_T >= 0 where y is zero; without it a
    projector onto the hyperplane sum(u) = 0 would pass.
    """
    margins = []
    for y, D, v in _random_faces(rng, trials):
        v_t = project(v, y)
        v_n = v - v_t
        cone = max(abs(float(v_t.sum())), float(np.max(-v_t[y <= ZERO_TOL], initial=0.0)))
        margins += [1e-10 - abs(float(v_t @ v_n)), 1e-10 - _best_ascent(v_n, D), 1e-10 - cone]
    return _verdict("polar-decomposition", trials, margins)


def check_kkt_upper_bound(
    trials: int,
    rng: np.random.Generator,
    gap: Callable[[np.ndarray, np.ndarray], float] = kkt_gap,
) -> PropertyReport:
    """kkt_gap(g, y) <= sqrt(2) * ||(-g)_T(y)|| on random points and gradients."""
    margins = (
        np.sqrt(2.0) * float(np.linalg.norm(tangent_cone_project(-g, y))) - gap(g, y)
        for y, _, g in _random_faces(rng, trials)
    )
    return _verdict("kkt-upper-bound", trials, margins, tol=1e-10)


def check_linesearch_oracle(trials: int, rng: np.random.Generator) -> PropertyReport:
    """Production line search agrees with the plain re-execution on (alpha, sign)."""
    mismatches = 0
    for _ in range(trials):
        m = int(rng.integers(2, 7))
        i, j = (int(v) for v in rng.permutation(m)[:2])
        B, c = rng.normal(size=(m, m)), rng.normal(size=m)
        # ties with f_z test strictness: phi linear (half the time flat) along e_i - e_j,
        # plus an offset that rounds gamma*alpha**2 away
        if rng.random() < 0.5:
            B[:, j], c[j] = B[:, i], (c[i] if rng.random() < 0.5 else c[j])
        Q = float(rng.uniform(0.5, 20.0)) * (B.T @ B) / m
        offset = float(rng.choice([0.0, 1e6, 1e12]))
        phi = lambda y: float(0.5 * y @ Q @ y + c @ y) + offset  # noqa: E731
        z = random_simplex_point(rng, m, int(rng.integers(0, m)))
        alpha_hat = float(10.0 ** rng.uniform(-3, 0))
        gamma = float(10.0 ** rng.uniform(-8, -2))
        delta = float(rng.choice([0.3, 0.5, 0.7]))
        f_z = phi(z)
        out = line_search(phi, z, f_z, i, j, alpha_hat, gamma, delta)
        ref_alpha, ref_sign = reference_line_search(phi, z, f_z, i, j, alpha_hat, gamma, delta)
        if out.alpha != ref_alpha or out.sign != ref_sign:
            mismatches += 1
    return _verdict("linesearch-oracle", trials, [float(-mismatches)], detail=f"{mismatches} mismatches")


def check_simplex_gradient_affine(trials: int, rng: np.random.Generator) -> PropertyReport:
    """Refine's sweep fit, ord.simplex_gradient, is exact on affine objectives.

    Each trial draws f = c^T x + b, n + 1 atoms in R^n, x_bar in their hull
    and a step mu_hat, and fits the n + 1 trial points x_bar + mu_hat*(a -
    x_bar) as a sweep does once its n + 1 seeded probes fail. A fit below
    rank n (None) fails its trial.
    """
    from .ord import simplex_gradient

    margins = []
    for _ in range(trials):
        n = int(rng.integers(1, 11))
        c = rng.normal(size=n)
        b = float(rng.normal())
        atoms = rng.uniform(-5.0, 5.0, (n + 1, n))
        x_bar = random_simplex_point(rng, n + 1) @ atoms
        mu_hat = float(10.0 ** rng.uniform(-3, 0))
        points = x_bar + mu_hat * (atoms - x_bar)
        diffs = np.array([float(c @ p + b) for p in points]) - float(c @ x_bar + b)
        g = simplex_gradient(points - x_bar, diffs)
        margins.append(-np.inf if g is None else 1e-8 - float(np.max(np.abs(g - c))))
    return _verdict("simplex-grad-affine", trials, margins)


def check_stationarity_bound(
    trials: int,
    rng: np.random.Generator,
    gap: Callable[[np.ndarray, np.ndarray], float] = kkt_gap,
) -> PropertyReport:
    """Solver output satisfies kkt_gap <= 2*sqrt(2)*(m-1)*(2L+GAMMA)*epsilon at epsilon = 1e-4."""
    epsilon = 1e-4
    margins = []
    for _ in range(trials):
        m = int(rng.integers(3, 9))
        phi, grad, L = _random_quadratic(rng, m, scale=float(rng.uniform(0.5, 10.0)))
        y0 = random_simplex_point(rng, m, 0)
        res = df_simplex_solve(phi, y0, epsilon)
        bound = 2.0 * np.sqrt(2.0) * (m - 1) * (2.0 * L + GAMMA) * epsilon
        margins.append(bound - gap(grad(res.y), res.y))
    return _verdict("stationarity-bound", trials, margins)


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
