import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import atomdfo.dfsimplex
import atomdfo.ord
from atomdfo.core import (
    AtomSet,
    BudgetedObjective,
    BudgetExhausted,
    NEG_CLAMP,
    NonFiniteValue,
    OrdConfig,
    SimplexWeights,
    exchange_point,
    is_simplex_point,
    require_integer,
    weights_point,
)
from atomdfo.dfsimplex import df_simplex_solve
from atomdfo.ord import OrdStop


@pytest.mark.parametrize(
    "value, low, high, ok",
    [
        (True, 0, math.inf, False),
        (2.0, 0, math.inf, False),
        (float("nan"), 0, math.inf, False),
        ("3", 0, math.inf, False),
        (None, 0, math.inf, False),
        (np.int64(3), 0, math.inf, True),
        (np.uint8(3), 0, math.inf, True),
        (2, 2, 5, True),
        (4, 2, 5, True),
        (1, 2, 5, False),
        (5, 2, 5, False),
        (-1, 0, math.inf, False),
    ],
)
def test_require_integer(value, low, high, ok):
    # low is inclusive, high exclusive; a bool, float or string never passes
    if ok:
        out = require_integer("v", value, low, high)
        assert type(out) is int and out == value
    else:
        with pytest.raises(ValueError, match="v must be an integer"):
            require_integer("v", value, low, high)


def test_require_integer_names_its_range():
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got 0$"):
        require_integer("m", 0, 1)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 3\), got 3$"):
        require_integer("id", 3, 0, 3)


class TestCombine:
    """``weights_point`` over a SimplexWeights' atoms is the convex combination sum_i w_i a_i."""

    def test_vertex_weight(self):
        atoms = AtomSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        w = SimplexWeights(np.array([1.0, 0.0]), (0, 1))
        assert np.array_equal(weights_point(w.w, atoms.subset(w.ids)), [0.0, 0.0])

    def test_midpoint(self):
        atoms = AtomSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
        w = SimplexWeights(np.array([0.5, 0.5]), (0, 1))
        assert np.array_equal(weights_point(w.w, atoms.subset(w.ids)), [1.0, 0.0])

    def test_three_atom_combination(self):
        # hand dot product: 0.25*(1,1) + 0.25*(3,1) + 0.5*(1,5) = (1.5, 3.0)
        atoms = AtomSet(np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 5.0]]))
        w = SimplexWeights(np.array([0.25, 0.25, 0.5]), (0, 1, 2))
        assert np.allclose(weights_point(w.w, atoms.subset(w.ids)), [1.5, 3.0], atol=1e-15)

    def test_shape_mismatch(self):
        # weights naming an atom the set does not have
        w = SimplexWeights(np.array([0.5, 0.5]), (0, 3))
        with pytest.raises(ValueError, match="got 3"):
            weights_point(w.w, AtomSet(np.eye(3)).subset(w.ids))

    @given(st.integers(0, 10**9))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        atoms = AtomSet(rng.uniform(-5, 5, (m, n)))

        def point(w):
            sw = SimplexWeights(w, tuple(range(m)))
            return weights_point(sw.w, atoms.subset(sw.ids))

        u = rng.dirichlet(np.ones(m))
        v = rng.dirichlet(np.ones(m))
        lam = float(rng.uniform())
        lhs = point(lam * u + (1 - lam) * v)
        rhs = lam * point(u) + (1 - lam) * point(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestFeasibleStepBound:
    """The largest feasible step along e_i - e_j is z_j: it empties coordinate j."""

    def test_bound_is_z_j(self):
        assert np.array_equal(exchange_point(np.array([0.5, 0.5]), +1, 0, 1, 0.5), [1.0, 0.0])

    def test_full_transfer(self):
        assert np.array_equal(exchange_point(np.array([1.0, 0.0]), +1, 1, 0, 1.0), [0.0, 1.0])

    def test_three_coordinates(self):
        z = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(exchange_point(z, +1, 0, 2, z[2]), [0.5, 0.5, 0.0])

    def test_exchange_beyond_bound_is_structural_error(self):
        with pytest.raises(ValueError):
            exchange_point(np.array([0.5, 0.5]), +1, 0, 1, 0.5 + 1e-9)

    @given(st.integers(0, 10**9))
    def test_boundary_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        z = rng.dirichlet(np.ones(m))
        i, j = rng.permutation(m)[:2]
        bound = z[j]
        at_bound = exchange_point(z, +1, int(i), int(j), bound)
        assert is_simplex_point(at_bound)
        beyond = z.copy()
        beyond[i] += bound + 1e-9
        beyond[j] -= bound + 1e-9
        assert not is_simplex_point(beyond)

    @given(st.integers(0, 10**9))
    def test_bitwise_equal_to_the_vector_update(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        z = rng.dirichlet(np.ones(m))
        i, j = (int(h) for h in rng.permutation(m)[:2])
        sign = int(rng.choice([-1, 1]))
        # a feasible step: at most the coordinate that the direction empties
        step = float(rng.uniform(0.0, 1.0) * z[j if sign > 0 else i])
        d = np.zeros(m)
        d[i], d[j] = 1.0, -1.0
        expected = z + sign * step * d
        assert exchange_point(z, sign, i, j, step).tobytes() == expected.tobytes()

    @staticmethod
    def _reference_exchange(z, sign, i, j, step):
        # every input converted to a fresh float64 array, then the two-entry update
        out = np.array(z, dtype=float)
        out[i] = out.item(i) + sign * step
        out[j] = out.item(j) - sign * step
        return out

    @pytest.mark.parametrize("kind", ["float64", "float32", "strided", "read-only"])
    def test_equal_to_the_converted_reference(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            y = rng.dirichlet(np.ones(m))
            z = {
                "float64": lambda: y,
                "float32": lambda: y.astype(np.float32),
                "strided": lambda: np.repeat(y, 2)[::2],
                "read-only": lambda: np.frombuffer(y.tobytes()),
            }[kind]()
            before = z.tobytes()
            i, j = (int(h) for h in rng.permutation(m)[:2])
            sign = int(rng.choice([-1, 1]))
            # a step strictly inside the bound, so no coordinate reaches the clamp
            step = float(rng.uniform(0.0, 0.5) * z.item(j if sign > 0 else i))
            out = exchange_point(z, sign, i, j, step)
            expected = self._reference_exchange(z, sign, i, j, step)
            assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
            assert not np.shares_memory(out, z)
            assert z.tobytes() == before

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_rounding_noise_clamped_to_zero(self, sign):
        z = np.array([0.2, 0.1, 0.7])
        i, j = 2, 1
        emptied = j if sign > 0 else i
        step = float(np.nextafter(z[emptied], 1.0))  # one ulp past the bound
        assert NEG_CLAMP < z[emptied] - step < 0.0
        out = exchange_point(z, sign, i, j, step)
        assert out[emptied] == 0.0 and math.copysign(1.0, out[emptied]) == 1.0
        assert out[0] == z[0]

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("excess", [-NEG_CLAMP, 1e-9])
    def test_infeasible_below_the_clamp_raises(self, sign, excess):
        z = np.array([0.0, 0.0, 1.0])
        i, j = 0, 1  # the emptied coordinate is 0.0, so it lands at -excess
        with pytest.raises(ValueError, match="infeasible exchange step"):
            exchange_point(z, sign, i, j, excess)


class TestBudgetedObjective:
    def test_counts_and_zero(self):
        obj = BudgetedObjective(lambda x: float(np.sum(x**2)))
        assert obj.eval_count == 0
        assert obj(np.zeros(2)) == 0.0
        assert obj.eval_count == 1

    def test_budget_enforced_without_calling(self):
        calls = []

        def f(x):
            calls.append(1)
            return 1.0

        obj = BudgetedObjective(f, budget=1)
        obj(np.zeros(2))
        with pytest.raises(BudgetExhausted):
            obj(np.zeros(2))
        assert len(calls) == 1
        assert obj.eval_count == 1

    def test_trace_best_monotone(self):
        obj = BudgetedObjective(lambda x: float(np.sum(x**2)))
        obj(np.array([1.0, 0.0]))
        obj(np.array([0.0, 0.0]))
        assert [row[2] for row in obj.trace] == [1.0, 0.0]

    def test_nonfinite_raises(self):
        obj = BudgetedObjective(lambda x: float("nan"))
        with pytest.raises(NonFiniteValue):
            obj(np.zeros(1))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            BudgetedObjective(lambda x: 0.0, budget=0)

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, 3.0, True, False])
    def test_budget_must_be_an_integer(self, budget):
        # a NaN budget never compared as reached, and 2.5 allowed 3 evaluations
        with pytest.raises(ValueError, match="integer"):
            BudgetedObjective(lambda x: 0.0, budget=budget)

    @pytest.mark.parametrize("budget", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_budget(self, budget):
        obj = BudgetedObjective(lambda x: 0.0, budget=budget)
        obj(np.zeros(1))
        obj(np.zeros(1))
        with pytest.raises(BudgetExhausted):
            obj(np.zeros(1))
        assert obj.eval_count == 2

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_trace_length_and_monotonicity(self, values):
        it = iter(values)
        obj = BudgetedObjective(lambda x: next(it))
        for _ in values:
            obj(np.zeros(1))
        assert len(obj.trace) == obj.eval_count == len(values)
        best = [row[2] for row in obj.trace]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert best == list(np.minimum.accumulate(values))


class TestBudgetedObjectiveLedger:
    """``trace`` is derived from ``values``: (k, v, running min) rows."""

    @staticmethod
    def _strict_min_rows(values):
        # the row builder the ledger replaces: a strict < update from +inf
        rows, best = [], np.inf
        for k, v in enumerate(values, start=1):
            if v < best:
                best = v
            rows.append((k, v, best))
        return rows

    @staticmethod
    def _run(values, budget=None):
        it = iter(values)
        obj = BudgetedObjective(lambda x: next(it), budget=budget)
        for _ in values:
            obj(np.zeros(1))
        return obj

    def test_rows_with_ties_and_signed_zeros(self):
        values = [3.0, 0.0, -0.0, 0.0, 2.0, -1.0, -1.0, -0.0]
        obj = self._run(values)
        assert obj.values.tolist() == values
        rows = obj.trace
        assert rows == self._strict_min_rows(values)
        # a tie keeps the earlier value: +0.0 stays the best over the -0.0 after it
        assert [math.copysign(1.0, best) for _, _, best in rows[1:5]] == [1.0] * 4
        assert [math.copysign(1.0, v) for _, v, _ in rows] == [
            math.copysign(1.0, v) for v in values
        ]

    def test_refused_call_leaves_values_unchanged(self):
        obj = self._run([2.0, 1.0], budget=2)
        with pytest.raises(BudgetExhausted):
            obj(np.zeros(1))
        assert obj.values.tolist() == [2.0, 1.0]
        assert obj.eval_count == 2
        assert obj.trace == [(1, 2.0, 2.0), (2, 1.0, 1.0)]

    def test_trace_is_read_only(self):
        obj = self._run([1.0])
        with pytest.raises(AttributeError):
            obj.trace = []


class TestAtomSet:
    def test_subset_keeps_ids(self):
        atoms = AtomSet(np.arange(12.0).reshape(4, 3))
        sub = atoms.subset([3, 1])
        assert np.array_equal(sub, [[9.0, 10.0, 11.0], [3.0, 4.0, 5.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomSet(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            AtomSet(np.array([[np.inf, 0.0]]))
        for ids in ([2], [-1]):
            with pytest.raises(ValueError, match=r"in \[0, 2\), got"):
                AtomSet(np.eye(2)).subset(ids)

    @pytest.mark.parametrize(
        "ids",
        [[True, False, True], [True], [0.9, 1.7], [1.0], np.array([0.0, 1.0]), ["0"], [None],
         [1, True], [0, np.True_], [1, 2.0]],
        ids=["bools", "bool", "fractions", "float", "float_array", "str", "none",
             "int_and_bool", "int_and_numpy_bool", "int_and_float"],
    )
    def test_subset_refuses_non_integer_ids(self, ids):
        # bools were read as ids 1 and 0, and floats were truncated; numpy built
        # an integer array from [1, True] before each id was checked
        with pytest.raises(ValueError, match="must be an integer"):
            AtomSet(np.arange(6.0).reshape(3, 2)).subset(ids)

    def test_subset_takes_numpy_and_empty_ids(self):
        atoms = AtomSet(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(atoms.subset(np.array([2, 0], dtype=np.uint8)), [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(atoms.subset([np.int64(1)]), [[2.0, 3.0]])
        assert np.array_equal(atoms.subset([np.int64(1), 2]), [[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(atoms.subset(range(3)), atoms.atoms)
        assert atoms.subset([]).shape == (0, 2)

    def test_dimensions(self):
        atoms = AtomSet(np.zeros((5, 3)))
        assert atoms.m == 5 and atoms.n == 3


class TestSimplexWeights:
    def test_accepts_and_clamps(self):
        w = SimplexWeights(np.array([1.0 + 5e-16, -5e-16]), (4, 7))
        assert w.w[1] == 0.0
        assert w.ids == (4, 7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([1.1, -0.1]), (0, 1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.6, 0.6]), (0, 1))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.5]), (2, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([1.0]), (0, 1))

    @pytest.mark.parametrize(
        "ids", [(0.5, 1.5), (True, 2), (0, 1.0), (0, "1"), (-1, 2)],
        ids=["fractions", "bool", "float", "str", "negative"],
    )
    def test_rejects_non_integer_ids(self, ids):
        # (0.5, 1.5) became (0, 1), and True became atom 1
        with pytest.raises(ValueError, match="atom id must be an integer"):
            SimplexWeights(np.array([0.5, 0.5]), ids)

    def test_numpy_integer_ids_become_ints(self):
        w = SimplexWeights(np.array([0.5, 0.5]), (np.int64(3), np.uint8(1)))
        assert w.ids == (3, 1) and all(type(i) is int for i in w.ids)

    def test_point(self):
        atoms = AtomSet(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]))
        w = SimplexWeights(np.array([0.5, 0.5]), (1, 2))
        assert np.allclose(weights_point(w.w, atoms.subset(w.ids)), [2.0, 2.0])


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        # with f0 cached and without: a bad tolerance is refused before any evaluation
        [
            {"epsilon": epsilon, **f0}
            for f0 in ({}, {"f0": 1.0})
            # NaN fails every comparison, and no tolerance is infinite
            for epsilon in (0.0, -0.0, 0, -1.0, math.nan, np.float64(math.nan), math.inf, -math.inf)
        ],
    )
    def test_dfsimplex_config_ranges(self, kwargs):
        calls = []
        with pytest.raises(ValueError, match="epsilon"):
            df_simplex_solve(lambda y: calls.append(y) or 0.0, np.array([0.5, 0.5]), **kwargs)
        assert calls == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            # the tolerance schedule is atomdfo.ord's constants, not fields,
            # so even the values it has are refused
            {"eps0": 0.1},
            {"eps_decay": 0.85},
            {"epsilon": 1e-4},
            {"eps0": 0.1, "eps_decay": 0.85, "epsilon": 1e-4, "rng_seed": 0},
            # the seed follows require_integer: None or an integer >= 0
            {"rng_seed": 2.0},
            {"rng_seed": np.float64(3.0)},
            {"rng_seed": np.bool_(True)},
            {"rng_seed": False},
            {"rng_seed": math.nan},
            {"rng_seed": math.inf},
            {"rng_seed": -math.inf},
            {"rng_seed": np.int64(-1)},
            {"rng_seed": "0"},
            {"rng_seed": b"3"},
            {"rng_seed": [3]},
            {"rng_seed": 3 + 0j},
            {"rng_seed": Fraction(3)},
            {"rng_seed": 1.5},
            {"rng_seed": -1},
            {"rng_seed": True},
            {"rng_seed": "3"},
        ],
    )
    def test_ord_config_ranges(self, kwargs):
        # a schedule name is an unknown field; a bad seed is a bad value
        with pytest.raises(TypeError if set(kwargs) - {"rng_seed"} else ValueError):
            OrdConfig(**kwargs)

    @pytest.mark.parametrize("rule", ["bogus", "zero_weight", "gradient_filtered"])
    def test_drop_rule_is_not_an_option(self, rule):
        # ORD has one drop rule, so naming one is a mistake, not a choice
        with pytest.raises(TypeError):
            OrdConfig(drop_rule=rule)

    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(3)])
    def test_ord_config_seeds(self, seed):
        assert OrdConfig(rng_seed=seed).rng_seed == seed

    def test_eps_schedule_decreasing_to_floor(self, monkeypatch):
        # record the tolerance of every inner solve, as the tracer wraps it
        outer, solve, tolerances = atomdfo.ord, atomdfo.ord.df_simplex_solve, []

        def recording(phi, y, epsilon, f0=None):
            tolerances.append(epsilon)
            return solve(phi, y, epsilon, f0=f0)

        monkeypatch.setattr(outer, "df_simplex_solve", recording)
        # runs of 95 and 44 outer iterations; 0.1 * 0.85**k first reaches 1e-4 at k = 43
        for n, m in [(2, 6), (4, 10)]:
            tolerances.clear()
            atoms = AtomSet(np.random.default_rng(0).uniform(0.0, 1.0, (m, n)))
            center = np.full(n, 0.5)
            res = outer.ord_solve(lambda x: float((x - center) @ (x - center)), atoms, OrdConfig(rng_seed=0), 0)
            assert len(tolerances) == res.iterations >= 44
            expected = [max(outer.EPSILON, outer.EPS0 * outer.EPS_DECAY**k) for k in range(res.iterations)]
            assert [t.hex() for t in tolerances] == [e.hex() for e in expected]
            assert tolerances[42] > outer.EPSILON == tolerances[43]
            # the converged verdict carries the floor tolerance's certificate
            assert res.stop is OrdStop.CONVERGED and tolerances[-1] == outer.EPSILON

    def test_benchmark_protocol_defaults(self):
        # the acceptance results depend on these; change them deliberately
        inner, outer = atomdfo.dfsimplex, atomdfo.ord
        assert (inner.GAMMA, inner.DELTA, inner.THETA, inner.ALPHA0) == (1e-6, 0.5, 0.5, 1.0)
        # refine's sufficient-decrease coefficient and mu_hat shrink, then ORD's own
        assert (outer.GAMMA, outer.THETA, outer.MU0, outer.STOP_FACTOR) == (1e-6, 0.5, 0.5, 1e-4)
        # ORD's tolerance schedule; DF-SIMPLEX runs in `atomdfo run` at its floor
        assert (outer.EPS0, outer.EPS_DECAY, outer.EPSILON) == (0.1, 0.85, 1e-4)
        assert [f.name for f in fields(OrdConfig)] == ["rng_seed"]
        assert OrdConfig().rng_seed is None
