import numpy as np
import pytest

from atomdfo import bench
from atomdfo.bench import (
    FUNCTION_NAMES,
    generate_uniform_atoms,
    l1_ball_atoms,
    make_problem,
    make_test_function,
    random_vertex_start,
    valid_dimension,
)
from atomdfo.core import BudgetedObjective, OrdConfig
from atomdfo.ord import ord_solve

EVEN_ONLY = {
    name for name in FUNCTION_NAMES if not valid_dimension(name, 3) and valid_dimension(name, 4)
}


def central_difference_gradient(f, x, rel_step=1e-6):
    """Independent finite-difference oracle for the catalog's gradients."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        h = rel_step * max(abs(x[i]), 1.0)
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_catalog_has_25_functions():
    assert len(FUNCTION_NAMES) == 25


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_gradient_matches_central_differences(name):
    import zlib

    func = make_test_function(name, 10)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0, 10, 10)
        fd = central_difference_gradient(func.value, x)
        analytic = func.gradient(x)
        err = np.max(np.abs(fd - analytic)) / max(1.0, np.max(np.abs(analytic)))
        worst = max(worst, err)
    assert worst <= 1e-5, f"{name}: relative gradient error {worst:.2e}"


# f(sqrt(1..10)) at n = 10, then f(linspace(0.5, 4.5, 5)) at n = 5 where the
# entry accepts odd n. The tolerance only forgives a last-ulp libm difference
# on another platform; bit identity with the textbook expressions is pinned on
# every platform by test_values_and_gradients_match_textbook_bit_for_bit below.
PINNED_VALUES = {
    "arwhead": (2034.7759978958579, 2665),
    "cosine": (1.3213424559043785, 0.36801753925128045),
    "cube": (146597.68699753072, 162231.5),
    "diagonal8": (202.56588018490899, 492.73430185038706),
    "ext_beale": (15527.487220023264,),
    "ext_cliff": (1.3249784014588606,),
    "ext_denschnb": (77.210849460444763,),
    "ext_denschnf": (11317.886770771074,),
    "ext_freudenstein_roth": (7491.6194981296749,),
    "ext_hiebert": (12497267933.871937,),
    "ext_himmelblau": (193.47238602221327,),
    "ext_maratos": (66010.613870096146,),
    "ext_penalty": (3012.9504989479287, 1690),
    "ext_psc1": (1722.7232214650624,),
    "ext_rosenbrock": (5924.542041602188,),
    "ext_trigonometric": (6305.0630628961535, 564.20657445824327),
    "ext_white_holst": (90117.302955322521,),
    "fletchcr": (19058.888593528798, 12625),
    "genhumps": (7.4908013960179538, 3.6026230904670244),
    "mccormck": (30.289131821083192, 26.862437679942211),
    "power": (3025.0000000000005, 767.75),
    "quartc": (4792.7201295854857, 0.3125),
    "sine": (1.2490761824583516, -1.1595057823507733),
    "staircase1": (413.49883212569216, 74.75),
    "staircase2": (22.533478912545309, 14.75),
}


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_values_at_fixed_points(name):
    points = [np.sqrt(np.arange(1.0, 11.0)), np.linspace(0.5, 4.5, 5)]
    for x, expected in zip(points, PINNED_VALUES[name]):
        func = make_test_function(name, len(x))
        value = func.value(x)
        assert type(value) is float
        assert value == pytest.approx(expected, rel=1e-15)
        grad = func.gradient(x)
        assert grad.dtype == np.float64 and grad.shape == x.shape


# --- the textbook expressions, kept as the oracle for the catalog -----------
# Each catalog entry is one of these with fewer numpy calls: the same ufuncs on
# the same operands in the same order, so values and complex-step gradients
# must match them bit for bit.


def _pairs(x):
    return x[0::2], x[1::2]


def _tb_arwhead(x):
    head, tail = x[:-1], x[-1]
    t = head**2 + tail**2
    return (t**2 - 4.0 * head + 3.0).sum()


def _tb_cosine(x):
    u = x[:-1] ** 2 - 0.5 * x[1:]
    return np.cos(u).sum()


def _tb_sine(x):
    u = x[:-1] ** 2 - 0.5 * x[1:]
    return np.sin(u).sum()


def _tb_cube(x):
    r = x[1:] - x[:-1] ** 3
    return (x[0] - 1.0) ** 2 + 100.0 * (r**2).sum()


def _tb_diagonal8(x):
    return (x * np.exp(x) - 2.0 * x - x**2).sum()


def _tb_ext_penalty(x):
    t = (x**2).sum() - 0.25
    return ((x[:-1] - 1.0) ** 2).sum() + t**2


def _tb_ext_trigonometric(x):
    n = len(x)
    i = np.arange(1, n + 1)
    r = (n - np.cos(x).sum()) + i * (1.0 - np.cos(x)) - np.sin(x)
    return (r**2).sum()


def _tb_fletchcr(x):
    r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
    return 100.0 * (r**2).sum()


def _tb_genhumps(x):
    s = np.sin(2.0 * x)
    return (s[:-1] ** 2 * s[1:] ** 2 + 0.05 * (x[:-1] ** 2 + x[1:] ** 2)).sum()


def _tb_mccormck(x):
    u, v = x[:-1], x[1:]
    return (-1.5 * u + 2.5 * v + 1.0 + (u - v) ** 2 + np.sin(u + v)).sum()


def _tb_power(x):
    i = np.arange(1, len(x) + 1)
    return ((i * x) ** 2).sum()


def _tb_quartc(x):
    i = np.arange(1, len(x) + 1)
    return ((x - i) ** 4).sum()


def _tb_staircase1(x):
    s = np.cumsum(x)
    i = np.arange(1, len(x) + 1)
    return ((s - i) ** 2).sum()


def _tb_staircase2(x):
    s = np.cumsum(x)
    i = np.arange(1, len(x) + 1)
    return ((s - 2.0 * i) ** 2).sum()


def _tb_ext_beale(x):
    u, v = _pairs(x)
    r1 = 1.5 - u * (1.0 - v)
    r2 = 2.25 - u * (1.0 - v**2)
    r3 = 2.625 - u * (1.0 - v**3)
    return (r1**2 + r2**2 + r3**2).sum()


def _tb_ext_cliff(x):
    u, v = _pairs(x)
    return (((u - 3.0) / 100.0) ** 2 - (u - v) + np.exp(20.0 * (u - v))).sum()


def _tb_ext_denschnb(x):
    u, v = _pairs(x)
    return ((u - 2.0) ** 2 + ((u - 2.0) ** 2) * v**2 + (v + 1.0) ** 2).sum()


def _tb_ext_denschnf(x):
    u, v = _pairs(x)
    r1 = 2.0 * (u + v) ** 2 + (u - v) ** 2 - 8.0
    r2 = 5.0 * u**2 + (v - 3.0) ** 2 - 9.0
    return (r1**2 + r2**2).sum()


def _tb_ext_freudenstein_roth(x):
    u, v = _pairs(x)
    r1 = -13.0 + u + ((5.0 - v) * v - 2.0) * v
    r2 = -29.0 + u + ((v + 1.0) * v - 14.0) * v
    return (r1**2 + r2**2).sum()


def _tb_ext_hiebert(x):
    u, v = _pairs(x)
    return ((u - 10.0) ** 2 + (u * v - 50000.0) ** 2).sum()


def _tb_ext_himmelblau(x):
    u, v = _pairs(x)
    r1 = u**2 + v - 11.0
    r2 = u + v**2 - 7.0
    return (r1**2 + r2**2).sum()


def _tb_ext_maratos(x):
    u, v = _pairs(x)
    t = u**2 + v**2 - 1.0
    return (u + 100.0 * t**2).sum()


def _tb_ext_psc1(x):
    u, v = _pairs(x)
    t = u**2 + v**2 + u * v
    return (t**2 + np.sin(u) ** 2 + np.cos(v) ** 2).sum()


def _tb_ext_rosenbrock(x):
    u, v = _pairs(x)
    return (100.0 * (v - u**2) ** 2 + (1.0 - u) ** 2).sum()


def _tb_ext_white_holst(x):
    u, v = _pairs(x)
    return (100.0 * (v - u**3) ** 2 + (1.0 - u) ** 2).sum()


TEXTBOOK = {name: globals()["_tb_" + name] for name in FUNCTION_NAMES}


def _textbook_gradient(value, x):
    """The complex-step gradient of a textbook expression, step for step as bench computes it."""
    z = x.astype(complex)
    grad = np.empty(len(x))
    for i in range(len(x)):
        z[i] += bench._COMPLEX_STEP * 1j
        grad[i] = value(z).imag / bench._COMPLEX_STEP
        z[i] = x[i]
    return grad


def _oracle_points(n, seed):
    """Seeded points from [0, 10]^n, [-10, 0]^n and of magnitude about 1e3, either sign."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        yield rng.uniform(0.0, 10.0, n)
        yield rng.uniform(-10.0, 0.0, n)
        yield rng.uniform(500.0, 2000.0, n) * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_values_and_gradients_match_textbook_bit_for_bit(name):
    # bytes, not ==: NaN (an overflow at |x| ~ 1e3) and the sign of zero count too
    for n in (10, 1, 5):
        if not valid_dimension(name, n):
            continue
        func = make_test_function(name, n)
        with np.errstate(all="ignore"):
            for x in _oracle_points(n, seed=n):
                expected = np.float64(TEXTBOOK[name](x)).tobytes()
                assert np.float64(func.value(x)).tobytes() == expected, (name, n, x)
                grad = _textbook_gradient(TEXTBOOK[name], x).tobytes()
                assert func.gradient(x).tobytes() == grad, (name, n, x)


def test_catalog_calls_are_pure():
    """Repeated calls and any call order give the same bits, and nothing is written."""
    rng = np.random.default_rng(7)
    points = {n: rng.uniform(-10.0, 10.0, n) for n in (5, 10)}
    funcs = [make_test_function(name, n) for name in FUNCTION_NAMES for n in points
             if valid_dimension(name, n)]
    for x in points.values():
        x.flags.writeable = False  # an in-place op on the point raises

    def values(order):
        return {i: np.float64(funcs[i].value(points[funcs[i].n])).tobytes() for i in order}

    first = values(range(len(funcs)))
    assert values(range(len(funcs))) == first
    assert values(rng.permutation(len(funcs))) == first
    assert values(reversed(range(len(funcs)))) == first
    for n in points:
        index = bench._index(n)
        assert index is bench._index(n)
        assert index.dtype == np.float64 and np.array_equal(index, np.arange(1, n + 1))
        with pytest.raises(ValueError):
            index[0] = 0.0
        with pytest.raises(ValueError):
            index += 1.0


@pytest.mark.parametrize("n", [2.5, 4.0, True, "4", None])
def test_non_integer_dimension_rejected(n):
    # a float n passed every check and built a function whose every call raised
    with pytest.raises(ValueError, match="integer"):
        valid_dimension("power", n)
    with pytest.raises(ValueError, match="integer"):
        make_test_function("power", n)
    with pytest.raises(ValueError, match="integer"):
        make_problem("power", n, 10, seed=0)


def test_numpy_integer_dimension_accepted():
    assert valid_dimension("power", np.int64(4))
    assert make_test_function("power", np.int64(4))(np.ones(4)) == 30.0


@pytest.mark.parametrize("name", sorted(set(FUNCTION_NAMES) - EVEN_ONLY))
def test_odd_dimension_accepted_when_not_paired(name):
    func = make_test_function(name, 5)
    x = np.linspace(0.5, 4.5, 5)
    fd = central_difference_gradient(func.value, x)
    err = np.max(np.abs(fd - func.gradient(x))) / max(1.0, np.max(np.abs(func.gradient(x))))
    assert err <= 1e-5


def test_values_are_finite_on_the_box():
    rng = np.random.default_rng(0)
    for name in FUNCTION_NAMES:
        func = make_test_function(name, 10)
        for _ in range(5):
            assert np.isfinite(func(rng.uniform(0, 10, 10)))


def test_power_zero_at_origin():
    func = make_test_function("power", 4)
    assert func(np.zeros(4)) == 0.0
    x = np.array([1.0, 2.0, 0.5, -1.0])
    expected = sum((i * xi) ** 2 for i, xi in enumerate(x, start=1))
    assert func(x) == pytest.approx(expected, rel=1e-15)


def test_arwhead_value_and_gradient():
    func = make_test_function("arwhead", 2)
    assert func(np.zeros(2)) == 3.0  # single block: 0 - 0 + 3
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 10, 2)
    fd = central_difference_gradient(func.value, x)
    assert np.max(np.abs(fd - func.gradient(x))) / max(1.0, np.max(np.abs(fd))) <= 1e-6


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        make_test_function("nope", 10)


def test_paired_functions_require_even_dimension():
    assert "ext_rosenbrock" in EVEN_ONLY
    with pytest.raises(ValueError):
        make_test_function("ext_rosenbrock", 7)
    assert not valid_dimension("ext_beale", 9)
    assert valid_dimension("ext_penalty", 9)


def test_chained_functions_require_two_variables():
    with pytest.raises(ValueError):
        make_test_function("cosine", 1)
    assert valid_dimension("power", 1)


def test_wrong_shape_rejected():
    func = make_test_function("power", 4)
    with pytest.raises(ValueError):
        func(np.zeros(5))
    with pytest.raises(ValueError):
        func.gradient(np.zeros(5))


class TestUniformAtoms:
    def test_deterministic_under_seed(self):
        a = generate_uniform_atoms(2, 3, seed=7)
        b = generate_uniform_atoms(2, 3, seed=7)
        assert np.array_equal(a.atoms, b.atoms)

    def test_range(self):
        atoms = generate_uniform_atoms(4, 50, seed=0)
        assert atoms.atoms.min() >= 0.0 and atoms.atoms.max() <= 10.0

    def test_mean_near_center(self):
        atoms = generate_uniform_atoms(10, 200, seed=3)
        means = atoms.atoms.mean(axis=0)
        assert np.all(means >= 4.5) and np.all(means <= 5.5)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            generate_uniform_atoms(0, 3)
        with pytest.raises(ValueError):
            generate_uniform_atoms(2, 0)

    @pytest.mark.parametrize("n, m", [(2.5, 3), (2, True), (2.0, 3), (2, "3")])
    def test_counts_must_be_integers(self, n, m):
        # numpy raised TypeError on 2.5 and True
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            generate_uniform_atoms(n, m, seed=0)

    def test_numpy_integer_counts(self):
        a = generate_uniform_atoms(np.int64(2), np.uint8(3), seed=7)
        assert np.array_equal(a.atoms, generate_uniform_atoms(2, 3, seed=7).atoms)


class TestL1BallAtoms:
    def test_one_dimensional(self):
        atoms = l1_ball_atoms(1, 2.0)
        assert np.array_equal(atoms.atoms, [[2.0], [-2.0]])

    def test_two_dimensional(self):
        atoms = l1_ball_atoms(2, 1.0)
        assert np.array_equal(
            atoms.atoms, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )

    def test_count_is_2n(self):
        assert l1_ball_atoms(3, 0.5).m == 6

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            l1_ball_atoms(2, 0.0)

    @pytest.mark.parametrize("n", [2.5, True, 2.0, 0])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            l1_ball_atoms(n, 1.0)

    def test_numpy_integer_n(self):
        assert np.array_equal(l1_ball_atoms(np.int64(2), 1.0).atoms, l1_ball_atoms(2, 1.0).atoms)


class TestRandomVertexStart:
    def test_single_atom(self):
        assert random_vertex_start(1, seed=123) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            random_vertex_start(0)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3"])
    def test_m_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="integer"):
            random_vertex_start(m, seed=0)

    def test_numpy_integer_m(self):
        assert random_vertex_start(np.int64(3), seed=5) == random_vertex_start(3, seed=5)

    def test_deterministic(self):
        assert random_vertex_start(50, seed=5) == random_vertex_start(50, seed=5)

    def test_roughly_uniform(self):
        rng_seeds = range(10_000)
        counts = np.zeros(10)
        for s in rng_seeds:
            counts[random_vertex_start(10, seed=s)] += 1
        freq = counts / counts.sum()
        assert np.all(freq >= 0.08) and np.all(freq <= 0.12)


class TestMakeProblem:
    def test_pure_function_of_inputs(self):
        a = make_problem("power", 10, 20, seed=4)
        b = make_problem("power", 10, 20, seed=4)
        assert np.array_equal(a.atoms.atoms, b.atoms.atoms)
        assert a.start_id == b.start_id
        assert a.problem_id == b.problem_id

    def test_budget_convention(self):
        assert make_problem("power", 10, 20, seed=0).budget == 1100

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValueError):
            make_problem("ext_beale", 9, 20, seed=0)

    def test_unknown_function_named(self):
        # it said "function 'nope' does not accept dimension n=10"
        with pytest.raises(ValueError, match="unknown function 'nope'"):
            make_problem("nope", 10, 10, 0)
        with pytest.raises(ValueError, match="unknown function 'nope'"):
            valid_dimension("nope", 10)

    @pytest.mark.parametrize(
        "m, seed, budget_factor",
        [
            (10.0, 0, 100), (True, 0, 100), (0, 0, 100), ("10", 0, 100),
            (10, 1.5, 100), (10, True, 100), (10, -1, 100), (10, None, 100),
            (10, 0, 2.5), (10, 0, True), (10, 0, 0), (10, 0, 100.0),
        ],
    )
    def test_bad_count_rejected_before_the_cloud_cache(self, m, seed, budget_factor):
        bench._cloud.cache_clear()
        with pytest.raises(ValueError, match="must be an integer >="):
            make_problem("power", 10, m, seed, budget_factor)
        assert bench._cloud.cache_info().misses == 0

    def test_numpy_integer_counts_accepted(self):
        problem = make_problem("power", 10, np.int64(20), np.int64(0), np.int64(100))
        assert problem.problem_id == make_problem("power", 10, 20, 0).problem_id
        assert problem.budget == 1100


class TestSharedClouds:
    def test_functions_share_one_atom_set(self):
        a = make_problem("power", 10, 30, seed=5)
        b = make_problem("quartc", 10, 30, seed=5)
        assert a.atoms is b.atoms
        assert a.start_id == b.start_id

    def test_cloud_matches_its_seed_stream(self):
        atoms_ss, start_ss = np.random.SeedSequence(5).spawn(2)
        problem = make_problem("power", 10, 30, seed=5)
        assert np.array_equal(problem.atoms.atoms,
                              generate_uniform_atoms(10, 30, seed=atoms_ss).atoms)
        assert problem.start_id == random_vertex_start(30, seed=start_ss)

    @pytest.mark.parametrize("m, seed", [(30, 6), (31, 5)])
    def test_other_seed_or_m_gets_another_cloud(self, m, seed):
        base = make_problem("power", 10, 30, seed=5)
        other = make_problem("power", 10, m, seed=seed)
        assert other.atoms is not base.atoms
        assert not np.array_equal(other.atoms.atoms, base.atoms.atoms)

    def test_shared_atoms_are_read_only(self):
        problem = make_problem("power", 10, 30, seed=5)
        with pytest.raises(ValueError):
            problem.atoms.atoms[0, 0] = 1.0
        assert make_problem("quartc", 10, 30, seed=5).atoms.atoms[0, 0] != 1.0

    def test_cache_keeps_one_cloud(self):
        assert bench._cloud.cache_info().maxsize == 1
        for seed in range(4):
            make_problem("power", 2, 4, seed=seed)
        assert bench._cloud.cache_info().currsize == 1

    def test_ord_solves_on_read_only_atoms(self):
        problem = make_problem("power", 10, 50, seed=1)
        func = make_test_function("power", 10)
        objective = BudgetedObjective(func.value, budget=problem.budget)
        res = ord_solve(objective, problem.atoms, OrdConfig(rng_seed=1), problem.start_id)
        assert res.evals == objective.eval_count > 0
