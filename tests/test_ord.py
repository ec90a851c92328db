import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atomdfo.dfsimplex
import atomdfo.ord
from atomdfo.bench import FUNCTION_NAMES, generate_uniform_atoms, make_problem, make_test_function
from atomdfo.core import (
    AtomSet,
    BudgetExhausted,
    BudgetedObjective,
    NonFiniteValue,
    OrdConfig,
    ZERO_TOL,
    is_simplex_point,
    weights_point,
)
from atomdfo.dfsimplex import GAMMA, StopReason, df_simplex_solve, final_poll
from atomdfo.ord import (
    OrdStop,
    RefineOutcome,
    drop_phase,
    farthest_distance,
    ord_solve,
    poll_gradient,
    reexpress_weights,
    refine_phase,
    simplex_gradient,
)


class TestRefinePhase:
    def test_zero_decrease_rejected(self):
        # at f_bar = 1e10, gamma*mu_hat**2 = 1e-8 is below half an ulp, so the
        # margin test alone would accept an equal value
        atoms = AtomSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        rng = np.random.default_rng(0)
        out = refine_phase(lambda x: 1e10, np.zeros(2), 1e10, atoms, [1], 0.1, rng)
        assert not out.found
        assert out.candidates_tried == 1

    def test_no_candidates(self):
        atoms = AtomSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        rng = np.random.default_rng(0)
        out = refine_phase(lambda x: 0.0, np.zeros(2), 0.0, atoms, [], 0.5, rng)
        assert not out.found
        assert out.candidates_tried == 0

    def test_midpoint_candidate_accepted(self):
        # f = |x|^2 from x_bar=(1,0): stepping halfway to the origin atom gives
        # f = 0.25 <= 1 - 1e-6 * 0.25
        atoms = AtomSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
        rng = np.random.default_rng(0)
        f = lambda x: float(np.sum(x**2))
        out = refine_phase(f, np.array([1.0, 0.0]), 1.0, atoms, [1], 0.5, rng)
        assert out.found
        assert out.atom_id == 1
        assert np.allclose(out.x_next, [0.5, 0.0])
        assert out.f_next == 0.25

    def test_global_minimizer_rejects_everything(self):
        atoms = AtomSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        rng = np.random.default_rng(0)
        f = lambda x: float(np.sum(x**2))
        out = refine_phase(f, np.zeros(2), 0.0, atoms, [1, 2], 0.5, rng)
        assert not out.found
        assert out.candidates_tried == 2

    def test_budget_exhaustion_flagged(self):
        atoms = AtomSet(np.array([[0.0], [1.0], [2.0]]))
        obj = BudgetedObjective(lambda x: float(x[0] ** 2), budget=1)
        rng = np.random.default_rng(0)
        obj(np.zeros(1))
        out = refine_phase(obj, np.zeros(1), 0.0, atoms, [1, 2], 0.5, rng)
        assert not out.found
        assert out.budget_exhausted

    def test_permutation_is_seeded(self):
        atoms = AtomSet(np.arange(20.0).reshape(10, 2))
        f = lambda x: float(np.sum(x**2))
        tried = []
        for _ in range(2):
            rng = np.random.default_rng(13)
            out = refine_phase(f, np.full(2, 100.0), 2e4, atoms, range(9), 0.99, rng)
            tried.append(out.atom_id)
        assert tried[0] == tried[1]


def _refine_reference(f, x_bar, f_bar, atoms, candidates, mu_hat, rng,
                      draw=lambda rng, count: rng.permutation(count)):
    """refine_phase one candidate at a time, in the order ``draw`` gives: one trial
    point per evaluation."""
    order = draw(rng, len(candidates))
    tried = 0
    for idx in order:
        atom_id = int(candidates[idx])
        trial = x_bar + mu_hat * (atoms.atoms[atom_id] - x_bar)
        try:
            f_trial = f(trial)
        except BudgetExhausted:
            return RefineOutcome(None, None, f_bar, tried, budget_exhausted=True)
        tried += 1
        if f_trial < f_bar and f_trial <= f_bar - GAMMA * mu_hat * mu_hat:
            return RefineOutcome(atom_id, trial, f_trial, tried)
    return RefineOutcome(None, None, f_bar, tried)


# (candidates, evaluation that succeeds or None, evaluations left or None);
# blocks of REFINE_BLOCK = 64 rows cover 0-63, 64-127 and so on: rows 63, 64,
# 127 and 128 sit on their boundaries, the rest inside a block or at a sweep's
# ends. An objective with evaluations left has a budget of the candidate count
# and has spent the rest, so the sweep fits the whole budget (a full
# permutation) and still stops on it
REFINE_CASES = [
    (1, 0, None), (1, None, None),
    (7, 3, None), (7, 6, None), (7, None, None),
    (8, 0, None), (8, 7, None), (8, None, None),
    (9, 8, None), (9, None, None), (9, None, 8),
    (100, 0, None), (100, 8, None), (100, 15, None), (100, 23, None),
    (100, 24, None), (100, 63, None), (100, 64, None),
    (100, 99, None), (100, None, None), (100, None, 12),
    (3000, 127, None), (3000, 128, None),
    (3000, 248, None), (3000, 400, None), (3000, 503, None), (3000, 504, None),
    (3000, 2999, None), (3000, None, None), (3000, None, 600),
]


@pytest.mark.parametrize("count, success_at, left", REFINE_CASES)
def test_refine_matches_per_candidate_reference(count, success_at, left):
    data = np.random.default_rng(count)
    n = 5
    atoms = AtomSet(data.normal(size=(count + 40, n)))
    candidates = np.sort(data.choice(count + 40, size=count, replace=False))
    x_bar = data.normal(size=n)
    f_bar, mu_hat = 1.0, 0.3

    def run(refine):
        points = []

        def f(x):
            points.append(x.tobytes())
            # only the chosen evaluation decreases, by a value that depends on x
            return 0.5 - 1e-3 * float(x @ x) if len(points) - 1 == success_at else 2.0

        objective = BudgetedObjective(f, budget=None if left is None else max(count, left))
        for _ in range(0 if left is None else objective.budget - left):
            objective(x_bar)
        points.clear()
        rng = np.random.default_rng(7)
        out = refine(objective, x_bar, f_bar, atoms, candidates, mu_hat, rng)
        return out, points, rng.bit_generator.state

    out, points, state = run(refine_phase)
    ref, ref_points, ref_state = run(_refine_reference)
    assert points == ref_points
    assert state == ref_state
    assert out.atom_id == ref.atom_id
    assert out.candidates_tried == ref.candidates_tried
    assert out.f_next == ref.f_next
    assert out.budget_exhausted == ref.budget_exhausted
    assert out.found == (success_at is not None)
    if out.found:
        assert out.x_next.tobytes() == ref.x_next.tobytes()
        # a copy, not a view that keeps the whole block of trial points alive
        assert out.x_next.base is None and out.x_next.flags.owndata
    else:
        assert out.x_next is None


# (candidates, evaluation that succeeds or None, budget): more candidates
# than the objective's budget, so the sweep draws budget + 1 positions by
# rng.choice; success early, late and at the budget's last evaluation, and
# budget stops, one of them with the success on the extra position, one
# evaluation past the budget
LAZY_REFINE_CASES = [
    (9, 0, 8), (9, 7, 8), (9, 8, 8), (9, None, 8),
    (100, 0, 12), (100, 7, 12), (100, 8, 12), (100, 11, 12), (100, None, 12),
    (3000, 0, 600), (3000, 7, 600), (3000, 8, 600), (3000, 23, 600), (3000, 24, 600),
    (3000, 55, 600), (3000, 56, 600), (3000, 119, 600), (3000, 120, 600),
    (3000, 247, 600), (3000, 248, 600), (3000, 503, 600), (3000, 504, 600),
    (3000, 599, 600), (3000, None, 600),
    (20000, 759, 1100), (20000, 760, 1100), (20000, 1015, 1100), (20000, 1016, 1100),
    (20000, 1099, 1100), (20000, None, 1100),
]


@pytest.mark.parametrize("count, success_at, budget", LAZY_REFINE_CASES)
def test_lazy_refine_matches_per_candidate_reference(count, success_at, budget):
    data = np.random.default_rng(count)
    n = 5
    atoms = AtomSet(data.normal(size=(count + 40, n)))
    candidates = np.sort(data.choice(count + 40, size=count, replace=False))
    x_bar = data.normal(size=n)
    f_bar, mu_hat = 1.0, 0.3

    def run(refine):
        points = []

        def f(x):
            points.append(x.tobytes())
            return 0.5 - 1e-3 * float(x @ x) if len(points) - 1 == success_at else 2.0

        objective = BudgetedObjective(f, budget=budget)
        rng = np.random.default_rng(7)
        out = refine(objective, x_bar, f_bar, atoms, candidates, mu_hat, rng)
        return out, points, rng.bit_generator.state

    def draw(rng, count):
        return rng.choice(count, budget + 1, replace=False)

    out, points, state = run(refine_phase)
    ref, ref_points, ref_state = run(functools.partial(_refine_reference, draw=draw))
    assert points == ref_points
    assert state == ref_state
    assert out.atom_id == ref.atom_id
    assert out.candidates_tried == ref.candidates_tried == len(points)
    assert out.f_next == ref.f_next
    assert out.budget_exhausted == ref.budget_exhausted == (success_at in (None, budget))
    assert out.found == (success_at is not None and success_at < budget)
    if out.found:
        assert out.x_next.tobytes() == ref.x_next.tobytes()


def _id_atoms(m):
    """Atoms at x = (i,), so a trial point at mu_hat = 1 from x_bar = 0 is its id."""
    return AtomSet(np.arange(float(m)).reshape(m, 1))


@pytest.mark.parametrize("position", [0, 1])
def test_lazy_order_positions_are_uniform(position):
    from scipy.stats import chisquare

    m, reps = 20, 4000
    atoms = _id_atoms(m)
    rng = np.random.default_rng(11)
    counts = np.zeros(m)
    for _ in range(reps):
        tried = []

        def f(x):
            tried.append(int(x[0]))
            return 1.0

        objective = BudgetedObjective(f, budget=2)
        out = refine_phase(objective, np.zeros(1), 1.0, atoms, range(m), 1.0, rng)
        assert out.budget_exhausted and len(set(tried)) == 2
        counts[tried[position]] += 1
    assert chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("m, budget", [(2, 1), (9, 8), (20, 2), (20000, 1100)])
def test_long_sweep_spends_the_whole_budget_on_distinct_atoms(m, budget):
    # on an objective that has spent nothing, a sweep longer than its budget
    # pays for budget distinct atoms, and the refused call on the extra drawn
    # position reports the exhausted budget
    rng = np.random.default_rng(m)
    tried = []

    def f(x):
        tried.append(int(x[0]))
        return 1.0

    objective = BudgetedObjective(f, budget=budget)
    out = refine_phase(objective, np.zeros(1), 1.0, _id_atoms(m), range(m), 1.0, rng)
    assert out.budget_exhausted and not out.found
    assert out.candidates_tried == len(set(tried)) == len(tried) == budget
    expected = np.random.default_rng(m)
    assert tried == expected.choice(m, budget + 1, replace=False)[:budget].tolist()
    assert rng.bit_generator.state == expected.bit_generator.state


def test_refine_called_through_the_module_global(monkeypatch):
    # ord_solve looks refine_phase up in atomdfo.ord at each call, so a
    # wrapper set there (as a tracer does) sees every sweep
    calls = []

    def counting(*args):
        out = refine_phase(*args)
        calls.append(out.candidates_tried)
        return out

    monkeypatch.setattr(atomdfo.ord, "refine_phase", counting)
    atoms = AtomSet(np.random.default_rng(2).uniform(0, 1, (12, 3)))
    objective = BudgetedObjective(lambda x: float(np.sum((x - 0.5) ** 2)), budget=200)
    res = ord_solve(objective, atoms, OrdConfig(rng_seed=0), 0)
    assert calls and sum(calls) <= res.evals


def _tangent(v):
    """v without its component along the all-ones vector."""
    return v - np.mean(v)


class TestSimplexGradient:
    def test_exact_on_affine(self):
        rng = np.random.default_rng(5)
        for m in range(2, 7):
            c = rng.normal(size=m)
            phi = lambda y, c=c: float(c @ y + 3.0)
            y_bar = rng.dirichlet(np.ones(m))
            f_bar = phi(y_bar)
            points = np.tile(y_bar, (m - 1, 1))
            for i in range(1, m):
                points[i - 1, i] += 1e-3
                points[i - 1, 0] -= 1e-3
            g = simplex_gradient(points, [phi(p) for p in points], y_bar, f_bar)
            assert np.max(np.abs(_tangent(g - c))) <= 1e-8

    def test_quadratic_error_order_epsilon(self):
        # phi(y) = y_1^2 + 2 y_2^2 at the vertex (1, 0): only the backward
        # exchange probe is feasible; the estimate's tangent part must match
        # that of (2, 0) within the finite-difference error bound 10 * eps * L
        # with L = 4.
        eps = 1e-2
        phi = lambda y: float(y[0] ** 2 + 2.0 * y[1] ** 2)
        y_bar = np.array([1.0, 0.0])
        probe = np.array([1.0 - eps, eps])
        g = simplex_gradient(probe[None, :], [phi(probe)], y_bar, phi(y_bar))
        assert np.max(np.abs(_tangent(g - np.array([2.0, 0.0])))) <= 10 * eps * 4.0

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 0.1, 1.0])
    def test_final_poll_is_poised(self, epsilon):
        # a TOLERANCE stop's poll holds the forward probe y + a(e_i - e_j) of
        # every i != pivot j, at one step a = min(y_j, epsilon) > 0, so with
        # the fit's normal row its rows have full rank whatever the zero
        # weights, and ORD's drop fit is always determined
        rng = np.random.default_rng(17)
        cases = [np.eye(m)[m - 1] for m in (2, 3, 300)] + [np.full(7, 1 / 7)]
        for _ in range(30):
            m = int(rng.integers(2, 301))
            y = rng.dirichlet(np.ones(m))
            y[rng.choice(m, int(rng.integers(0, m)), replace=False)] = 0.0
            cases.append(y / y.sum())
        for y in cases:
            rows = final_poll(y, epsilon) - y
            scale = np.linalg.norm(rows, axis=1).max()
            S_t = np.vstack([rows, np.full(len(y), scale / np.sqrt(len(y)))])
            rank = np.linalg.lstsq(S_t, np.zeros(len(S_t)), rcond=None)[2]
            assert rank == len(y), f"m={len(y)}, {int((y == 0.0).sum())} zero weights"


class TestPollGradient:
    def test_fits_the_ledger_tail(self):
        # the fit reads as many ledger values as the poll has points, the
        # last ones; values a later evaluation appends would shift it
        rng = np.random.default_rng(3)
        for m in range(2, 7):
            c = rng.normal(size=m)
            objective = BudgetedObjective(lambda y, c=c: float(c @ y - 1.0))
            res = df_simplex_solve(objective, np.eye(m)[0], 1e-3)
            g = poll_gradient(objective, res.y, res.f, 1e-3)
            assert np.max(np.abs(_tangent(g - c))) <= 1e-8

    def test_empty_poll_reads_no_value(self):
        # m = 1: the poll is empty, and values[-0:] would be the whole ledger
        objective = BudgetedObjective(lambda y: 5.0)
        res = df_simplex_solve(objective, np.array([1.0]), 1e-3)
        assert objective.eval_count > 0
        assert poll_gradient(objective, res.y, res.f, 1e-3).tolist() == [0.0]

    def test_ord_and_the_affine_check_fit_through_it(self, monkeypatch):
        from atomdfo.analysis import check_simplex_gradient_affine

        callers = []

        def recording(objective, y_bar, f_bar, epsilon):
            callers.append(objective)
            return poll_gradient(objective, y_bar, f_bar, epsilon)

        monkeypatch.setattr(atomdfo.ord, "poll_gradient", recording)
        rng = np.random.default_rng(4)
        atoms = AtomSet(rng.uniform(0, 10, (30, 4)))
        c = atoms.atoms[:6].mean(axis=0)
        objective = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2)))
        ord_solve(objective, atoms, OrdConfig(rng_seed=1), 0)
        assert callers and all(o is objective for o in callers)
        callers.clear()
        assert check_simplex_gradient_affine(3, np.random.default_rng(9)).passed
        assert len(callers) == 3


class TestDropPhase:
    def test_zero_weight_rule(self):
        got = drop_phase([7, 8, 9], np.array([0.5, 0.5, 0.0]))
        assert got == {9}

    def test_gradient_filter_keeps_descent_candidate(self):
        # g^T (e_3 - y) = -1 < 0: the estimate still points at atom 9, keep it
        got = drop_phase([7, 8, 9], np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, -1.0]))
        assert got == set()

    def test_gradient_filter_drops_ascent_candidate(self):
        got = drop_phase([7, 8, 9], np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert got == {9}

    def test_positive_weights_never_dropped(self):
        got = drop_phase([0, 1], np.array([0.7, 0.3]))
        assert got == set()

    def test_filtered_is_subset_of_zero_weight(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            y = np.where(rng.uniform(size=m) < 0.4, 0.0, rng.uniform(size=m))
            if y.sum() == 0:
                continue
            y = y / y.sum()
            ids = list(range(m))
            g = rng.normal(size=m)
            assert drop_phase(ids, y, g) <= drop_phase(ids, y)

    def test_gradient_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            drop_phase([0, 1], np.array([1.0, 0.0]), np.zeros(3))


class TestReexpressWeights:
    def test_plain_drop(self):
        ids, w = reexpress_weights(np.array([0.5, 0.5, 0.0]), [1, 2, 3], None, {3})
        assert ids == [1, 2]
        assert np.allclose(w, [0.5, 0.5])

    def test_drop_plus_refine(self):
        ids, w = reexpress_weights(np.array([1.0, 0.0]), [4, 5], (6, 0.5), {5})
        assert ids == [4, 6]
        assert np.allclose(w, [0.5, 0.5])

    def test_full_step_onto_new_atom(self):
        ids, w = reexpress_weights(np.array([1.0]), [0], (3, 1.0), set())
        assert ids == [0, 3]
        assert np.allclose(w, [0.0, 1.0])

    def test_positive_weight_drop_is_structural_error(self):
        with pytest.raises(ValueError):
            reexpress_weights(np.array([0.5, 0.5]), [0, 1], None, {1})

    def test_refine_atom_must_be_new(self):
        with pytest.raises(ValueError):
            reexpress_weights(np.array([1.0]), [0], (0, 0.5), set())

    def test_combination_is_preserved(self):
        rng = np.random.default_rng(8)
        atoms = AtomSet(rng.uniform(0, 10, (6, 3)))
        y = np.array([0.25, 0.75, 0.0])
        ids = [0, 2, 4]
        x_bar = y @ atoms.atoms[list(ids)]
        mu = 0.3
        new_ids, w = reexpress_weights(y, ids, (5, mu), {4})
        expected = x_bar + mu * (atoms.atoms[5] - x_bar)
        assert np.max(np.abs(w @ atoms.atoms[list(new_ids)] - expected)) <= 1e-10


def test_farthest_distance_matches_per_atom_norms():
    # exact equality: the stop test compares mu_hat against STOP_FACTOR / max_dist,
    # so the value must not move by an ulp from the per-atom formula
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = int(rng.integers(1, 300)), int(rng.integers(1, 25))
        atoms = AtomSet(rng.uniform(-10.0, 10.0, (m, n)))
        ids = np.flatnonzero(rng.random(m) < 0.7)
        if ids.size == 0:
            ids = np.array([0])
        x = rng.uniform(-10.0, 10.0, n)
        expected = max(float(np.linalg.norm(atoms.atoms[i] - x)) for i in ids)
        assert farthest_distance(atoms, ids, x) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50, 200])
def test_weights_point_is_bitwise_the_matmul(m):
    # ORD and the CLI map weights to points with weights_point; the catalog
    # values it feeds must not move by an ulp from the y @ A it replaced
    rng = np.random.default_rng(m)
    A = rng.uniform(-10.0, 10.0, (m, 10))
    for _ in range(300):
        y = rng.dirichlet(np.ones(m))
        y[rng.random(m) < 0.3] = 0.0  # sparse weights, as inner solves leave them
        y /= y.sum() or 1.0
        assert weights_point(y, A).tobytes() == (y @ A).tobytes()


@pytest.mark.parametrize("m", [10, 50])
def test_result_x_reevaluates_to_result_f(m):
    # x_bar must be the very point phi evaluated at y_bar: a product that only
    # reorders the sum (einsum, reversed rows) misses on about half these runs
    for name in FUNCTION_NAMES:
        problem = make_problem(name, 10, m, seed=0)
        func = make_test_function(name, 10)
        objective = BudgetedObjective(func.value, budget=problem.budget)
        res = ord_solve(objective, problem.atoms, OrdConfig(rng_seed=0), problem.start_id)
        assert float(func.value(res.x)) == res.f, name


class TestOrdSolve:
    def test_linear_objective_stays_at_best_vertex(self):
        rng = np.random.default_rng(0)
        atoms = AtomSet(rng.uniform(0, 10, (6, 2)))
        g = np.array([1.0, 2.0])
        best = int(np.argmin(atoms.atoms @ g))
        f = lambda x: float(g @ x)
        res = ord_solve(f, atoms, OrdConfig(rng_seed=0), start_atom_id=best)
        assert res.stop is OrdStop.CONVERGED
        assert np.allclose(res.x, atoms.atoms[best])
        assert res.weights.ids == (best,)

    def test_duplicate_atom_stops(self):
        # gamma*mu_hat**2 soon rounds away against f = 5: a zero-decrease refine
        # would re-add the twin that the drop rule removes, round after round
        atoms = AtomSet(np.array([[1.0, 2.0], [1.0, 2.0]]))
        obj = BudgetedObjective(lambda x: float(np.sum((x - 3.0) ** 2)), budget=5000)
        res = ord_solve(obj, atoms, OrdConfig(rng_seed=0))
        assert res.stop is OrdStop.CONVERGED
        assert res.weights.ids == (0,)
        assert res.evals == 45

    def test_equal_atoms_converge(self):
        atoms = AtomSet(np.repeat(np.array([[1.0, -2.0, 0.5]]), 5, axis=0))
        c = np.array([0.5, -1.0, 2.0])
        obj = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2)), budget=5000)
        res = ord_solve(obj, atoms, OrdConfig(rng_seed=0))
        assert res.stop is OrdStop.CONVERGED
        assert res.weights.ids == (0,)

    def test_interior_quadratic_recovered(self):
        # 3 atoms in the plane, target at their centroid: the solver must beat
        # every single atom and land within 1e-2 of the target
        atoms = AtomSet(np.array([[0.0, 0.0], [8.0, 1.0], [3.0, 9.0]]))
        c = atoms.atoms.mean(axis=0)
        f = lambda x: float(np.sum((x - c) ** 2))
        for start in range(3):
            res = ord_solve(f, atoms, OrdConfig(rng_seed=1), start)
            assert np.linalg.norm(res.x - c) <= 1e-2
            assert res.f <= min(f(a) for a in atoms.atoms)

    def test_interior_quadratic_many_atoms(self):
        rng = np.random.default_rng(4)
        atoms = AtomSet(rng.uniform(0, 10, (8, 2)))
        w = rng.dirichlet(np.ones(8) * 5.0)
        c = w @ atoms.atoms
        f = lambda x: float(np.sum((x - c) ** 2))
        res = ord_solve(f, atoms, OrdConfig(rng_seed=1), 0)
        assert np.linalg.norm(res.x - c) <= 1e-2
        assert res.f <= f(atoms.atoms[0])

    def test_single_atom_trivial(self):
        atoms = AtomSet(np.array([[2.0, 3.0]]))
        f = lambda x: float(np.sum(x**2))
        res = ord_solve(f, atoms, OrdConfig(rng_seed=0), 0)
        assert res.stop in (OrdStop.CONVERGED, OrdStop.STALLED)
        assert np.array_equal(res.x, [2.0, 3.0])
        assert res.weights.ids == (0,)

    def test_budget_stop_returns_best_so_far(self):
        rng = np.random.default_rng(9)
        atoms = AtomSet(rng.uniform(0, 10, (20, 4)))
        c = atoms.atoms[:5].mean(axis=0)
        obj = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2)), budget=60)
        res = ord_solve(obj, atoms, OrdConfig(rng_seed=0), 0)
        assert res.stop is OrdStop.BUDGET
        assert obj.eval_count == 60
        assert res.f <= obj.trace[0][1]

    def test_weight_conservation_along_the_run(self):
        rng = np.random.default_rng(11)
        atoms = AtomSet(rng.uniform(0, 10, (12, 3)))
        c = atoms.atoms[:4].mean(axis=0)
        f = lambda x: float(np.sum((x - c) ** 2))
        records = []
        res = ord_solve(f, atoms, OrdConfig(rng_seed=2), 0, sink=records.append)
        for rec in records:
            assert rec.active_size == len(rec.active_ids) == len(rec.y_bar)
            assert abs(rec.y_bar.sum() - 1.0) <= 1e-12
            assert np.all(rec.y_bar >= 0.0)
            recombined = rec.y_bar @ atoms.atoms[list(rec.active_ids)]
            assert np.max(np.abs(recombined - rec.x_bar)) <= 1e-10
        final = weights_point(res.weights.w, atoms.atoms[list(res.weights.ids)])
        assert np.max(np.abs(final - res.x)) <= 1e-10

    def test_monotone_objective_and_mu_hat(self):
        rng = np.random.default_rng(12)
        atoms = AtomSet(rng.uniform(0, 10, (15, 3)))
        c = atoms.atoms[:3].mean(axis=0)
        f = lambda x: float(np.sum((x - c) ** 2))
        cfg = OrdConfig(rng_seed=3)
        records = []
        ord_solve(f, atoms, cfg, 0, sink=records.append)
        f_bars = [rec.f_bar for rec in records]
        assert all(b <= a + 1e-15 for a, b in zip(f_bars, f_bars[1:]))
        mu = [rec.mu_hat for rec in records]
        assert all(b <= a for a, b in zip(mu, mu[1:]))
        for prev, rec in zip(records, records[1:]):
            if prev.refined:
                assert rec.mu_hat == prev.mu_hat
            else:
                assert rec.mu_hat == pytest.approx(atomdfo.ord.THETA * prev.mu_hat)

    def test_plain_callable_nan_raises(self):
        # NaN everywhere but at the atoms: the first refine probe gets NaN,
        # and a plain callable is counted by a BudgetedObjective too
        atoms = AtomSet(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]]))

        def f(x):
            if not any(np.array_equal(x, a) for a in atoms.atoms):
                return float("nan")
            return float(np.sum((x - 1.3) ** 2))

        with pytest.raises(NonFiniteValue):
            ord_solve(f, atoms, OrdConfig(rng_seed=0), 0)

    @pytest.mark.parametrize("solver", ["ord", "dfsimplex"])
    def test_no_off_hull_query(self, solver):
        # the corners of [1, 2]^2 span the box itself, and the black box is
        # undefined outside it: every query must stay in the hull
        atoms = AtomSet(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]]))
        c = np.array([1.3, 1.6])

        def f(x):
            if np.any(x < 1.0 - 1e-12) or np.any(x > 2.0 + 1e-12):
                raise AssertionError(f"query {x!r} leaves the atoms' hull")
            return float(np.sum((x - c) ** 2))

        if solver == "ord":
            x = ord_solve(f, atoms, OrdConfig(rng_seed=0), 0).x
        else:
            phi = lambda y: f(y @ atoms.atoms)
            y = df_simplex_solve(phi, np.array([1.0, 0.0, 0.0, 0.0]), 1e-4).y
            x = y @ atoms.atoms
        assert np.linalg.norm(x - c) <= 1e-2

    def test_gradient_fitted_only_when_a_weight_is_zero(self, monkeypatch):
        # without a zero weight drop_phase drops nothing whatever g is, so
        # the fit is skipped; with one, it is fitted exactly once
        calls = []

        def counting(points, values, y_bar, f_bar):
            calls.append(y_bar)
            return simplex_gradient(points, values, y_bar, f_bar)

        monkeypatch.setattr(atomdfo.ord, "simplex_gradient", counting)
        rng = np.random.default_rng(4)
        atoms = AtomSet(rng.uniform(0, 10, (30, 4)))
        c = atoms.atoms[:6].mean(axis=0)
        f = lambda x: float(np.sum((x - c) ** 2))
        records = []
        ord_solve(f, atoms, OrdConfig(rng_seed=1), 0, sink=records.append)
        with_zero = [rec for rec in records if (rec.y_bar <= ZERO_TOL).any()]
        assert 0 < len(with_zero) < len(records)
        assert len(calls) == len(with_zero)
        assert all(a is rec.y_bar for a, rec in zip(calls, with_zero))

    def test_gradient_fits_the_stopping_iteration_probes(self, monkeypatch):
        # the fit reads the final poll and the ledger's tail: both must be
        # what phi saw in the inner solve's stopping iteration, in order,
        # and none of refine's evaluations, which follow the fit
        last_sweep = []
        fits = []
        iterate = atomdfo.dfsimplex.df_simplex_iterate

        def recording_iterate(state, phi, epsilon):
            calls = []

            def recorded(y):
                value = phi(y)
                calls.append((y.copy(), value))
                return value

            out = iterate(state, recorded, epsilon)
            if out.stop is StopReason.TOLERANCE:
                last_sweep[:] = calls
            return out

        def checked(points, values, y_bar, f_bar):
            assert [p.tobytes() for p in points] == [p.tobytes() for p, _ in last_sweep]
            assert list(values) == [v for _, v in last_sweep]
            fits.append(objective.eval_count)
            return simplex_gradient(points, values, y_bar, f_bar)

        monkeypatch.setattr(atomdfo.dfsimplex, "df_simplex_iterate", recording_iterate)
        monkeypatch.setattr(atomdfo.ord, "simplex_gradient", checked)
        rng = np.random.default_rng(4)
        atoms = AtomSet(rng.uniform(0, 10, (30, 4)))
        c = atoms.atoms[:6].mean(axis=0)
        objective = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2)))
        ord_solve(objective, atoms, OrdConfig(rng_seed=1), 0)
        assert fits and fits[-1] < objective.eval_count

    def test_zero_weight_rule_drops_what_the_filter_keeps(self, zero_weight_drop):
        # the gradient filter keeps a zero-weight atom on this run, so the
        # weight-only rule must drop every zero-weight atom, and change the run
        atoms = generate_uniform_atoms(4, 40, seed=1)
        func = make_test_function("fletchcr", 4)

        def run():
            obj = BudgetedObjective(func.value, budget=500)
            records = []
            res = ord_solve(obj, atoms, OrdConfig(rng_seed=0), 0, sink=records.append)
            return (obj.values.tobytes(), res.weights.w.tobytes(), res.weights.ids, res.stop), records

        def zeros(rec):
            return int((rec.y_bar <= ZERO_TOL).sum())

        fitted, fitted_records = run()
        assert any(rec.dropped < zeros(rec) for rec in fitted_records)
        with zero_weight_drop():
            forced, records = run()
        assert [rec.dropped for rec in records] == [zeros(rec) for rec in records]
        assert forced != fitted

    @pytest.mark.parametrize("solver", ["ord", "dfsimplex"])
    def test_spent_budget_raises_from_the_first_evaluation(self, solver):
        # the start value is evaluated outside any budget handling, so a budget
        # that cannot pay for it raises rather than returning a result
        atoms = AtomSet(np.array([[0.0, 1.0], [1.0, 0.0]]))
        obj = BudgetedObjective(lambda x: float(np.sum(x**2)), budget=1)
        obj(np.zeros(2))
        with pytest.raises(BudgetExhausted):
            if solver == "ord":
                ord_solve(obj, atoms, OrdConfig(rng_seed=0), 0)
            else:
                df_simplex_solve(lambda y: obj(y @ atoms.atoms), np.array([1.0, 0.0]), 1e-3)
        assert obj.values.tolist() == [0.0]

    def test_large_offset_runs_end_without_a_budget_stop(self):
        # against |f| = 1e12 the margins gamma*alpha**2 and gamma*mu_hat**2
        # round away; only strict decrease tests keep zero-decrease steps
        # from repeating until the budget
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            atoms = AtomSet(rng.uniform(-5, 5, (m, n)))
            c = rng.uniform(-5, 5, n)
            obj = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2) + 1e12), budget=20000)
            res = ord_solve(obj, atoms, OrdConfig(rng_seed=seed), 0)
            assert res.stop is not OrdStop.BUDGET, f"seed {seed}"

    def test_lazy_refine_run_is_seeded_and_within_budget(self):
        # m = 3000 atoms against a budget of 300: every refine sweep is longer
        # than the budget, so each one draws 301 positions by rng.choice
        problem = make_problem("ext_rosenbrock", 2, 3000, seed=1, budget_factor=100)
        func = make_test_function("ext_rosenbrock", 2)
        runs = []
        for seed in (4, 4, 5):
            objective = BudgetedObjective(func.value, budget=problem.budget)
            res = ord_solve(objective, problem.atoms, OrdConfig(rng_seed=seed), problem.start_id)
            assert res.evals == objective.eval_count <= problem.budget == 300
            assert float(func.value(res.x)) == res.f
            runs.append(objective.values.tolist())
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]

    def test_start_id_validated(self):
        atoms = AtomSet(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            ord_solve(lambda x: 0.0, atoms, OrdConfig(), start_atom_id=5)

    @pytest.mark.parametrize(
        "start", [True, False, 1.0, 1.5, np.float64(1.0), "1"],
        ids=["True", "False", "float", "fraction", "float64", "str"],
    )
    def test_start_id_must_be_an_integer(self, start):
        # True and False compare in range, but index the atom stack as a mask
        atoms = AtomSet(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="integer"):
            ord_solve(lambda x: 0.0, atoms, OrdConfig(), start_atom_id=start)

    def test_numpy_integer_start_id_runs(self):
        atoms = AtomSet(np.array([[0.0], [1.0]]))
        res = ord_solve(lambda x: float(x[0]), atoms, OrdConfig(rng_seed=0), start_atom_id=np.int64(1))
        assert res.x[0] <= 1e-8


def test_l1_ball_recovers_sparse_signal():
    # minimizing |x - t|^2 over an l1 ball with t on a scaled axis: the
    # dominant weight lands on the matching signed basis atom (the remaining
    # mass may sit on canceling +/- pairs, which is a valid representation)
    atoms = AtomSet(np.kron(np.eye(6), [[2.0], [-2.0]]))  # +2e_i, -2e_i for each i: the l1 ball
    target = np.zeros(6)
    target[3] = -1.5  # reachable: |t|_1 < radius
    f = lambda x: float(np.sum((x - target) ** 2))
    res = ord_solve(f, atoms, OrdConfig(rng_seed=0), start_atom_id=0)
    assert np.linalg.norm(res.x - target) <= 1e-2
    by_weight = dict(zip(res.weights.ids, res.weights.w))
    # atom 7 is -2*e_4 in the interleaved +/- ordering; exact share is 0.75
    assert by_weight.get(7, 0.0) == max(res.weights.w)
    assert by_weight[7] >= 0.7


@pytest.mark.usefixtures("drop_rule")
def test_identification_on_face_minimizer():
    # The target sits below a triangular bottom face, so the hull minimizer
    # lies on that face with gradient (0, 0, 2): every atom strictly above
    # has a positive gap and must leave the working set for good.
    bottom = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [0.0, 4.0, 1.0]])
    c = np.array([1.0, 1.0, 0.0])
    x_star = np.array([1.0, 1.0, 1.0])
    grad_star = 2.0 * (x_star - c)
    f = lambda x: float(np.sum((x - c) ** 2))
    for trial in range(4):
        rng = np.random.default_rng(100 + trial)
        upper = np.column_stack(
            [rng.uniform(0, 4, (5, 2)), rng.uniform(2.0, 3.0, 5)]
        )
        atoms = AtomSet(np.vstack([bottom, upper]))
        scale = float(np.max(np.linalg.norm(atoms.atoms - x_star, axis=1)))
        margin_atoms = {
            i
            for i in range(atoms.m)
            if grad_star @ (atoms.atoms[i] - x_star) > 1e-3 * scale
        }
        assert margin_atoms == {3, 4, 5, 6, 7}
        cfg = OrdConfig(rng_seed=trial)
        records = []
        # start on an upper atom
        res = ord_solve(f, atoms, cfg, start_atom_id=3, sink=records.append)
        assert np.linalg.norm(res.x - x_star) <= 1e-2
        near = (rec.k for rec in records if np.linalg.norm(rec.x_bar - x_star) <= 1e-2)
        entered = next(near, None)
        assert entered is not None
        for rec in records:
            if rec.k > entered:
                assert not (set(rec.active_ids) & margin_atoms)
        assert set(res.weights.ids) <= {0, 1, 2}


def _identification_case(seed):
    rng = np.random.default_rng(seed)
    atoms = AtomSet(rng.uniform(0, 10, (8, 2)))
    g = rng.normal(size=2)
    best = int(np.argmin(atoms.atoms @ g))
    return atoms, g, best


@pytest.mark.usefixtures("drop_rule")
def test_identification_on_linear_objective():
    # Linear objectives give active-set identification teeth: the minimizer
    # is the best vertex and every other atom has a strictly positive gap, so
    # all of them must leave the working set once the iterates are close.
    for seed in range(8):
        atoms, g, best = _identification_case(seed)
        x_star = atoms.atoms[best]
        scale = float(np.max(np.linalg.norm(atoms.atoms - x_star, axis=1)))
        margin_atoms = {
            i
            for i in range(atoms.m)
            if g @ (atoms.atoms[i] - x_star) > 1e-3 * scale
        }
        f = lambda x: float(g @ x)
        cfg = OrdConfig(rng_seed=seed)
        records = []
        start = (best + 1) % atoms.m
        res = ord_solve(f, atoms, cfg, start_atom_id=start, sink=records.append)
        near = (rec.k for rec in records if np.linalg.norm(rec.x_bar - x_star) <= 1e-2)
        entered = next(near, None)
        assert entered is not None, "solver never entered the identification ball"
        for rec in records:
            if rec.k > entered:
                assert not (set(rec.active_ids) & margin_atoms)
        assert not (set(res.weights.ids) & margin_atoms)



@st.composite
def _ord_problems(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "duplicates", "all_equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.uniform(-5, 5, (m, n))
    if kind == "duplicates":
        atoms = atoms[rng.integers(0, max(1, m // 2), m)]
    elif kind == "all_equal":
        atoms = np.repeat(atoms[:1], m, axis=0)
    budget = draw(st.none() | st.integers(1, 60))
    # a large |f| rounds the sufficient-decrease margins away
    offset = draw(st.sampled_from([0.0, 1e6, 1e12]))
    return AtomSet(atoms), rng.uniform(-5, 5, n), offset, budget, draw(st.integers(0, m - 1))


@settings(max_examples=60, deadline=None)
@given(_ord_problems(), st.integers(0, 2**16))
def test_ord_solve_invariants(problem, seed):
    # the stop reason is left unchecked: equal atoms can end STALLED
    atoms, c, offset, budget, start = problem

    def run():
        obj = BudgetedObjective(lambda x: float(np.sum((x - c) ** 2) + offset), budget=budget)
        records = []
        res = ord_solve(obj, atoms, OrdConfig(rng_seed=seed), start, sink=records.append)
        assert res.evals == obj.eval_count <= (budget or res.evals)
        assert obj.func(res.x) == res.f  # x is the point f was evaluated at
        outcome = (res.x.tobytes(), res.f, res.weights.w.tobytes(), res.weights.ids, res.stop)
        return res, [(rec.k, rec.evals) for rec in records], outcome

    res, records, outcome = run()
    assert is_simplex_point(res.weights.w)
    assert [k for k, _ in records] == list(range(res.iterations))
    assert all(a[1] <= b[1] for a, b in zip(records, records[1:]))
    assert run()[1:] == (records, outcome)  # the same seed replays the same run
