"""Problem generators: the 25-function catalog, uniform atom clouds, l1-ball atoms.

Function formulas follow the standard unconstrained-collection definitions
(Andrei's collection and CUTEst), each with fewer numpy calls than its textbook
form and bit-identical to it, as the oracle in tests/test_bench.py checks; index
vectors 1..n are cached read-only per n. Each gradient comes by complex step from
its value function (Squire & Trapp, SIAM Review 40(1), 1998), exact to rounding.
The solvers never read a gradient: its consumers are the benchmark's Frank-Wolfe
reference values and the tests, which check it against central finite differences.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .core import AtomSet, require_integer


@dataclass(frozen=True)
class BenchFunction:
    name: str
    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> float:
        return self.value(x)


@functools.lru_cache(maxsize=None)
def _index(n):
    i = np.arange(1.0, n + 1.0)  # shared by every call at n: a write must fail, not leak
    i.flags.writeable = False
    return i


# --- separable / chained entries -------------------------------------------


def _arwhead(x):
    # ARWHEAD (CUTEst): sum (x_i^2 + x_n^2)^2 - 4 x_i + 3 over i < n
    head, tail = x[:-1], x[-1]
    t = head**2 + tail**2
    return np.add.reduce(t**2 - 4.0 * head + 3.0)


def _cosine(x):
    # COSINE (CUTEst): sum cos(x_i^2 - 0.5 x_{i+1})
    return np.add.reduce(np.cos(x[:-1] ** 2 - 0.5 * x[1:]))


def _sine(x):
    # SINE: sine analogue of COSINE, sum sin(x_i^2 - 0.5 x_{i+1})
    return np.add.reduce(np.sin(x[:-1] ** 2 - 0.5 * x[1:]))


def _cube(x):
    # CUBE: (x_1 - 1)^2 + 100 sum (x_i - x_{i-1}^3)^2
    r = x[1:] - x[:-1] ** 3
    return (x[0] - 1.0) ** 2 + 100.0 * np.add.reduce(r**2)


def _diagonal8(x):
    # Diagonal 8 (Andrei): sum x_i exp(x_i) - 2 x_i - x_i^2
    return np.add.reduce(x * np.exp(x) - 2.0 * x - x**2)


def _ext_penalty(x):
    # Extended penalty (Andrei): sum_{i<n} (x_i - 1)^2 + (sum x_j^2 - 0.25)^2
    t = np.add.reduce(x**2) - 0.25
    return np.add.reduce((x[:-1] - 1.0) ** 2) + t**2


def _ext_trigonometric(x):
    # Extended trigonometric (Andrei): residuals over the full cosine sum
    n = len(x)
    c = np.cos(x)
    r = (n - np.add.reduce(c)) + _index(n) * (1.0 - c) - np.sin(x)
    return np.add.reduce(r**2)


def _fletchcr(x):
    # FLETCHCR (CUTEst): 100 sum (x_{i+1} - x_i + 1 - x_i^2)^2
    head = x[:-1]
    r = x[1:] - head + 1.0 - head**2
    return 100.0 * np.add.reduce(r**2)


def _genhumps(x):
    # GENHUMPS (CUTEst): sum sin(2x_i)^2 sin(2x_{i+1})^2 + 0.05 (x_i^2 + x_{i+1}^2)
    s = np.sin(2.0 * x)
    return np.add.reduce(s[:-1] ** 2 * s[1:] ** 2 + 0.05 * (x[:-1] ** 2 + x[1:] ** 2))


def _mccormck(x):
    # MCCORMCK (CUTEst): sum -1.5 x_i + 2.5 x_{i+1} + 1 + (x_i - x_{i+1})^2 + sin(x_i + x_{i+1})
    u, v = x[:-1], x[1:]
    return np.add.reduce(-1.5 * u + 2.5 * v + 1.0 + (u - v) ** 2 + np.sin(u + v))


def _power(x):
    # Power (Andrei): sum (i x_i)^2
    return np.add.reduce((_index(len(x)) * x) ** 2)


def _quartc(x):
    # QUARTC (CUTEst): sum (x_i - i)^4
    return np.add.reduce((x - _index(len(x))) ** 4)


def _staircase1(x):
    # Staircase S1 (Andrei): sum (s_i - i)^2 with s_i the cumulative sum
    return np.add.reduce((np.add.accumulate(x) - _index(len(x))) ** 2)


def _staircase2(x):
    # Staircase S2 (Andrei): sum (s_i - 2i)^2 with s_i the cumulative sum
    return np.add.reduce((np.add.accumulate(x) - 2.0 * _index(len(x))) ** 2)


# --- pairwise "Extended" entries (even n): u = x_1, x_3, ..., v = x_2, x_4, ...


def _ext_beale(x):
    u, v = x[0::2], x[1::2]
    r1 = 1.5 - u * (1.0 - v)
    r2 = 2.25 - u * (1.0 - v**2)
    r3 = 2.625 - u * (1.0 - v**3)
    return np.add.reduce(r1**2 + r2**2 + r3**2)


def _ext_cliff(x):
    # Extended Cliff: ((u-3)/100)^2 - (u-v) + exp(20(u-v)) per pair
    u, v = x[0::2], x[1::2]
    d = u - v
    return np.add.reduce(((u - 3.0) / 100.0) ** 2 - d + np.exp(20.0 * d))


def _ext_denschnb(x):
    a, v = (x[0::2] - 2.0) ** 2, x[1::2]
    return np.add.reduce(a + a * v**2 + (v + 1.0) ** 2)


def _ext_denschnf(x):
    u, v = x[0::2], x[1::2]
    r1 = 2.0 * (u + v) ** 2 + (u - v) ** 2 - 8.0
    r2 = 5.0 * u**2 + (v - 3.0) ** 2 - 9.0
    return np.add.reduce(r1**2 + r2**2)


def _ext_freudenstein_roth(x):
    u, v = x[0::2], x[1::2]
    r1 = -13.0 + u + ((5.0 - v) * v - 2.0) * v
    r2 = -29.0 + u + ((v + 1.0) * v - 14.0) * v
    return np.add.reduce(r1**2 + r2**2)


def _ext_hiebert(x):
    u, v = x[0::2], x[1::2]
    return np.add.reduce((u - 10.0) ** 2 + (u * v - 50000.0) ** 2)


def _ext_himmelblau(x):
    u, v = x[0::2], x[1::2]
    r1 = u**2 + v - 11.0
    r2 = u + v**2 - 7.0
    return np.add.reduce(r1**2 + r2**2)


def _ext_maratos(x):
    u, v = x[0::2], x[1::2]
    t = u**2 + v**2 - 1.0
    return np.add.reduce(u + 100.0 * t**2)


def _ext_psc1(x):
    u, v = x[0::2], x[1::2]
    t = u**2 + v**2 + u * v
    return np.add.reduce(t**2 + np.sin(u) ** 2 + np.cos(v) ** 2)


def _ext_rosenbrock(x):
    u, v = x[0::2], x[1::2]
    return np.add.reduce(100.0 * (v - u**2) ** 2 + (1.0 - u) ** 2)


def _ext_white_holst(x):
    u, v = x[0::2], x[1::2]
    return np.add.reduce(100.0 * (v - u**3) ** 2 + (1.0 - u) ** 2)


# name -> (value, requires_even_n, min_n). Each value is a real-analytic numpy
# expression, so it also takes complex input and the complex step gives its
# gradient: no float(), abs, min/max or comparison on the point.
_CATALOG: Dict[str, Tuple[Callable, bool, int]] = {
    "arwhead": (_arwhead, False, 2),
    "cosine": (_cosine, False, 2),
    "cube": (_cube, False, 2),
    "diagonal8": (_diagonal8, False, 1),
    "ext_beale": (_ext_beale, True, 2),
    "ext_cliff": (_ext_cliff, True, 2),
    "ext_denschnb": (_ext_denschnb, True, 2),
    "ext_denschnf": (_ext_denschnf, True, 2),
    "ext_freudenstein_roth": (_ext_freudenstein_roth, True, 2),
    "ext_hiebert": (_ext_hiebert, True, 2),
    "ext_himmelblau": (_ext_himmelblau, True, 2),
    "ext_maratos": (_ext_maratos, True, 2),
    "ext_penalty": (_ext_penalty, False, 2),
    "ext_psc1": (_ext_psc1, True, 2),
    "ext_rosenbrock": (_ext_rosenbrock, True, 2),
    "ext_trigonometric": (_ext_trigonometric, False, 1),
    "ext_white_holst": (_ext_white_holst, True, 2),
    "fletchcr": (_fletchcr, False, 2),
    "genhumps": (_genhumps, False, 2),
    "mccormck": (_mccormck, False, 2),
    "power": (_power, False, 1),
    "quartc": (_quartc, False, 1),
    "sine": (_sine, False, 2),
    "staircase1": (_staircase1, False, 1),
    "staircase2": (_staircase2, False, 1),
}

FUNCTION_NAMES = tuple(sorted(_CATALOG))

# Im f(x + ih e_i) / h = df/dx_i + O(h^2) takes no difference of nearby values,
# so h sits far below rounding and the O(h^2) term vanishes in float64.
_COMPLEX_STEP = 1e-100


def valid_dimension(name: str, n: int) -> bool:
    require_integer("n", n, 1)
    if name not in _CATALOG:
        raise ValueError(f"unknown function {name!r}")
    _, even, min_n = _CATALOG[name]
    return n >= min_n and (not even or n % 2 == 0)


def make_test_function(name: str, n: int) -> BenchFunction:
    """Instantiate a catalog function at dimension n, with its complex-step gradient."""
    if name not in _CATALOG:
        raise KeyError(f"unknown function {name!r}; known: {', '.join(FUNCTION_NAMES)}")
    if not valid_dimension(name, n):
        raise ValueError(f"function {name!r} does not accept dimension n={n}")
    value = _CATALOG[name][0]

    def f(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"expected point of shape ({n},), got {x.shape}")
        return float(value(x))

    def g(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"expected point of shape ({n},), got {x.shape}")
        z = x.astype(complex)
        grad = np.empty(n)
        for i in range(n):
            z[i] += _COMPLEX_STEP * 1j
            grad[i] = value(z).imag / _COMPLEX_STEP
            z[i] = x[i]
        return grad

    return BenchFunction(name=name, n=n, value=f, gradient=g)


def generate_uniform_atoms(n: int, m: int, seed=None) -> AtomSet:
    """m i.i.d. uniform atoms in [0, 10]^n, deterministic under the seed."""
    size = (require_integer("m", m, 1), require_integer("n", n, 1))
    return AtomSet(np.random.default_rng(seed).uniform(0.0, 10.0, size=size))


def l1_ball_atoms(n: int, radius: float) -> AtomSet:
    """The 2n signed scaled basis vectors; their hull is the l1 ball of that radius."""
    n = require_integer("n", n, 1)
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    atoms = np.zeros((2 * n, n))
    for i in range(n):
        atoms[2 * i, i] = radius
        atoms[2 * i + 1, i] = -radius
    return AtomSet(atoms)


def random_vertex_start(m: int, seed=None) -> int:
    """Uniformly random atom id, deterministic under the seed."""
    return int(np.random.default_rng(seed).integers(0, require_integer("m", m, 1)))


def problem_id(name: str, n: int, m: int, seed: int) -> str:
    """The id of the problem make_problem(name, n, m, seed) builds."""
    return f"{name}_n{n}_m{m}_seed{seed}"


@dataclass(frozen=True)
class ProblemInstance:
    """One benchmark problem: a catalog function over a random atom cloud.

    The budget convention is 100(n+1) evaluations. Construction is a pure
    function of (function_name, n, m, seed). Every function at the same
    (n, m, seed) shares one read-only atom array: copy it before modifying it.
    """

    function_name: str
    n: int
    m: int
    atoms: AtomSet
    start_id: int
    seed: int
    budget: int

    @property
    def problem_id(self) -> str:
        return problem_id(self.function_name, self.n, self.m, self.seed)


# Callers ask for one cloud's problems back to back (every catalog function
# at one (n, m, seed)), so one entry makes each cloud once and keeps no
# large-m cloud alive after its problems are gone.
@functools.lru_cache(maxsize=1)
def _cloud(n: int, m: int, seed: int) -> Tuple[AtomSet, int]:
    """The atom set and start atom id of every problem at (n, m, seed)."""
    atoms_ss, start_ss = np.random.SeedSequence(seed).spawn(2)
    atoms = generate_uniform_atoms(n, m, seed=atoms_ss)
    # shared by every caller, so a write must fail instead of leaking across
    atoms.atoms.flags.writeable = False
    return atoms, random_vertex_start(m, seed=start_ss)


def make_problem(
    name: str, n: int, m: int, seed: int, budget_factor: int = 100
) -> ProblemInstance:
    if not valid_dimension(name, n):
        raise ValueError(f"function {name!r} does not accept dimension n={n}")
    # before the cloud cache, which would take m=10.0 for 10
    for label, value, low in (("m", m, 1), ("seed", seed, 0), ("budget_factor", budget_factor, 1)):
        require_integer(label, value, low)
    atoms, start = _cloud(n, m, seed)
    return ProblemInstance(
        function_name=name,
        n=n,
        m=m,
        atoms=atoms,
        start_id=start,
        seed=seed,
        budget=budget_factor * (n + 1),
    )
