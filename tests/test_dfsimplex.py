import numpy as np
import pytest

import atomdfo.dfsimplex
from atomdfo.core import BudgetExhausted, BudgetedObjective, DfSimplexConfig, is_simplex_point
from atomdfo.dfsimplex import (
    DfSimplexState,
    StopReason,
    choose_pivot,
    df_simplex_iterate,
    df_simplex_solve,
    final_poll,
    line_search,
)
from atomdfo.analysis import kkt_gap


class TestChoosePivot:
    def test_unique_argmax(self):
        assert choose_pivot(np.array([0.2, 0.5, 0.3])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert choose_pivot(np.array([0.5, 0.5])) == 0

    def test_vertex(self):
        assert choose_pivot(np.array([1.0, 0.0, 0.0])) == 0


def _linear_phi(c):
    return lambda y: float(np.asarray(c) @ y)


class TestIterate:
    def test_singleton_simplex_is_a_no_op(self):
        calls = []

        def phi(y):
            calls.append(1)
            return 0.0

        # no exchange direction exists, so the iteration ends the run at once
        state = DfSimplexState(y=np.array([1.0]), f=0.0, alpha_hat=np.array([1.0]))
        nxt = df_simplex_iterate(state, phi, DfSimplexConfig())
        assert calls == []
        assert np.array_equal(nxt.y, [1.0])
        assert nxt.stop is StopReason.TOLERANCE

    def test_hand_trace_linear_objective(self):
        # phi(y) = y_2, y0 = (0.5, 0.5), alpha_hat = (0.25, 0.25): the pivot is
        # coordinate 0 (tie-break); the single search flips to move mass onto
        # it and expands to the boundary, giving y1 = (1, 0) and alpha = 0.5.
        # The pivot stepsize is min{old pivot 0.25, updated 0.5} = 0.25.
        cfg = DfSimplexConfig(theta=0.5, gamma=1e-6, delta=0.5, epsilon=1e-4)
        state = DfSimplexState(
            y=np.array([0.5, 0.5]), f=0.5, alpha_hat=np.array([0.25, 0.25])
        )
        nxt = df_simplex_iterate(state, _linear_phi([0.0, 1.0]), cfg)
        assert np.array_equal(nxt.y, [1.0, 0.0])
        assert nxt.f == 0.0
        assert np.array_equal(nxt.alpha_hat, [0.25, 0.5])
        assert nxt.iterations == 1
        assert nxt.stop is None

    def test_hand_trace_continuation_shrinks(self):
        # From the vertex (1, 0) the forward probe increases phi and the
        # backward bound is zero, so the search fails and alpha_hat shrinks.
        cfg = DfSimplexConfig(theta=0.5, gamma=1e-6, delta=0.5, epsilon=1e-4)
        state = DfSimplexState(
            y=np.array([1.0, 0.0]), f=0.0, alpha_hat=np.array([0.25, 0.5])
        )
        nxt = df_simplex_iterate(state, _linear_phi([0.0, 1.0]), cfg)
        assert np.array_equal(nxt.y, [1.0, 0.0])
        assert nxt.alpha_hat[1] == 0.25  # theta * 0.5
        assert nxt.alpha_hat[0] == 0.25  # min{old pivot 0.25, 0.25}

    def test_budget_exhaustion_flags_state(self):
        obj = BudgetedObjective(lambda y: float(y[1]), budget=1)
        state = DfSimplexState(
            y=np.array([0.5, 0.5]), f=0.5, alpha_hat=np.array([0.25, 0.25])
        )
        nxt = df_simplex_iterate(state, obj, DfSimplexConfig())
        assert nxt.stop is StopReason.BUDGET

    def test_tolerance_stop_only_from_the_floor(self):
        # At the best vertex of a linear phi no step is accepted; the
        # iteration stops the run only when every stepsize began at the floor.
        cfg = DfSimplexConfig(epsilon=1e-3)
        phi = _linear_phi([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.0, 0.0])
        at_floor = DfSimplexState(y=y, f=0.0, alpha_hat=np.full(3, cfg.epsilon))
        nxt = df_simplex_iterate(at_floor, phi, cfg)
        assert np.array_equal(nxt.y, y)
        assert nxt.stop is StopReason.TOLERANCE
        above = DfSimplexState(y=y, f=0.0, alpha_hat=np.array([cfg.epsilon, 0.5, cfg.epsilon]))
        assert df_simplex_iterate(above, phi, cfg).stop is None


def _iterate_reference(state, phi, cfg):
    """df_simplex_iterate with a line search on every coordinate."""
    y = state.y
    m = len(y)
    ah = state.alpha_hat.tolist()
    j = choose_pivot(y)
    z, f_z = y.copy(), state.f
    new_ah = list(ah)
    moved = False
    stop = None
    for i in range(m):
        if i == j:
            continue
        try:
            out = line_search(phi, z, f_z, i, j, ah[i], cfg.gamma, cfg.delta)
        except BudgetExhausted:
            stop = StopReason.BUDGET
            break
        if out.alpha > 0.0:
            new_ah[i] = max(out.alpha, cfg.epsilon)
            z, f_z = out.z, out.f_new
            moved = True
        else:
            new_ah[i] = max(cfg.theta * ah[i], cfg.epsilon)
    if stop is None:
        if not moved and (m == 1 or all(a == cfg.epsilon for a in ah)):
            stop = StopReason.TOLERANCE
        new_ah[j] = max(min(new_ah), cfg.epsilon)
    return DfSimplexState(z, f_z, np.array(new_ah), state.iterations + 1, stop)


def _assert_same_state(a, b):
    assert a.y.tobytes() == b.y.tobytes()
    assert a.f == b.f
    assert a.alpha_hat.tobytes() == b.alpha_hat.tobytes()
    assert a.iterations == b.iterations
    assert a.stop is b.stop


def _assert_same_points(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p.tobytes() == q.tobytes()


class TestZeroBoundSkip:
    def test_drained_pivot_matches_the_reference_sweep(self):
        # pivot 1 holds 0.6; the search along e_0 - e_1 moves all of it onto
        # coordinate 0, so coordinate 2 has both bounds at zero; the reverse
        # search at 3 refills the pivot before 4 and 5
        c = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        cfg = DfSimplexConfig()
        y = np.array([0.0, 0.6, 0.0, 0.4, 0.0, 0.0])
        state = DfSimplexState(y=y, f=float(np.dot(c, y)), alpha_hat=np.full(6, 1.0))
        seen = []

        def phi(v):
            seen.append(v.copy())
            return float(np.dot(c, v))

        out = df_simplex_iterate(state, phi, cfg)
        n_probes = len(seen)
        ref = _iterate_reference(state, phi, cfg)
        _assert_same_state(out, ref)
        _assert_same_points(seen[:n_probes], seen[n_probes:])
        assert out.y[1] > 0.0 and out.alpha_hat[2] == 0.5  # coordinate 2 failed

    def test_random_sparse_runs_match_the_reference_sweep(self):
        rng = np.random.default_rng(11)
        cfg = DfSimplexConfig(epsilon=1e-3)
        for trial in range(40):
            m = int(rng.integers(2, 12))
            B = rng.normal(size=(m, m))
            Q = B.T @ B / m
            c = rng.normal(size=m) * 3
            phi = lambda v, Q=Q, c=c: float(0.5 * v @ Q @ v + c @ v)  # noqa: E731
            y = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.4)
            y[int(rng.integers(m))] += 1.0
            y /= y.sum()
            alpha_hat = rng.choice([1.0, 0.3], m)
            budget = int(rng.integers(5, 80)) if trial % 2 else None
            states = []
            for iterate in (df_simplex_iterate, _iterate_reference):
                seen = []

                def probe(v, phi=phi, seen=seen):
                    seen.append(v.copy())
                    return phi(v)

                objective = BudgetedObjective(probe, budget=budget)
                state = DfSimplexState(y=y, f=phi(y), alpha_hat=alpha_hat)
                run = [state]
                while state.stop is None and state.iterations < 200:
                    state = iterate(state, objective, cfg)
                    run.append(state)
                states.append((run, objective.values, seen))
            (run, values, seen), (ref_run, ref_values, ref_seen) = states
            assert values == ref_values
            _assert_same_points(seen, ref_seen)
            assert len(run) == len(ref_run)
            for a, b in zip(run[1:], ref_run[1:]):
                _assert_same_state(a, b)

    def test_no_search_with_both_bounds_zero(self, monkeypatch):
        # df_simplex_iterate looks line_search up in atomdfo.dfsimplex at each
        # call, so a wrapper set there (as a tracer does) sees every search
        calls = []

        def checked(phi, z, f_z, i, j, *rest):
            assert z[i] > 0.0 or z[j] > 0.0, f"search at {i} with both bounds zero"
            calls.append(i)
            return line_search(phi, z, f_z, i, j, *rest)

        monkeypatch.setattr(atomdfo.dfsimplex, "line_search", checked)
        c = np.linspace(0.0, 1.0, 30)
        y0 = np.zeros(30)
        y0[7] = 1.0
        res = df_simplex_solve(lambda v: float((c - 0.2) ** 2 @ v), y0, DfSimplexConfig())
        assert res.stop is StopReason.TOLERANCE
        assert 0 < len(calls) < 29 * res.iterations


class TestSolve:
    def test_singleton_returns_immediately(self):
        obj = BudgetedObjective(lambda y: 3.0)
        res = df_simplex_solve(obj, np.array([1.0]), DfSimplexConfig())
        assert res.stop is StopReason.TOLERANCE
        assert res.iterations == 1
        assert np.array_equal(res.y, [1.0])
        assert res.f == 3.0
        assert obj.eval_count == 1  # f0 only

    def test_linear_objective_finds_best_vertex(self):
        res = df_simplex_solve(_linear_phi([0.0, 1.0]), np.array([0.5, 0.5]), DfSimplexConfig())
        assert res.stop is StopReason.TOLERANCE
        assert np.array_equal(res.y, [1.0, 0.0])
        assert res.f == 0.0

    def test_quadratic_reaches_barycenter(self):
        center = np.full(3, 1.0 / 3.0)
        phi = lambda y: float(np.sum((y - center) ** 2))
        res = df_simplex_solve(phi, np.array([1.0, 0.0, 0.0]), DfSimplexConfig())
        assert res.stop is StopReason.TOLERANCE
        assert np.max(np.abs(res.y - center)) <= 1e-2
        # KKT gap within the guaranteed constant: L = 2 for this quadratic
        cfg = DfSimplexConfig()
        bound = 2 * np.sqrt(2) * 2 * (2 * 2.0 + cfg.gamma) * cfg.epsilon
        assert kkt_gap(2 * (res.y - center), res.y) <= bound

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            df_simplex_solve(lambda y: 0.0, np.array([0.5, 0.4]), DfSimplexConfig())

    def test_cached_f0_spends_no_evaluation(self):
        calls = []

        def phi(y):
            calls.append(1)
            return float(y[0])

        df_simplex_solve(phi, np.array([1.0]), DfSimplexConfig(), f0=1.0)
        assert calls == []

    def test_stopping_leaves_every_stepsize_at_the_floor(self):
        cfg = DfSimplexConfig(epsilon=1e-3)
        phi = lambda y: float(np.sum((y - np.array([0.7, 0.2, 0.1])) ** 2))
        res = df_simplex_solve(phi, np.array([0.2, 0.3, 0.5]), cfg)
        assert res.stop is StopReason.TOLERANCE
        assert np.all(res.alpha_hat == cfg.epsilon)

    def test_budget_stop_is_graceful(self):
        obj = BudgetedObjective(lambda x: float(np.sum(x**2)), budget=7)
        phi = lambda y: obj(y)  # noqa: E731 - identity embedding for the test
        res = df_simplex_solve(phi, np.full(4, 0.25), DfSimplexConfig())
        assert res.stop is StopReason.BUDGET
        assert obj.eval_count == 7

    @pytest.mark.parametrize("c", [1e6, 1e9, 1e12])
    def test_large_offset_ends_on_tolerance(self, c):
        # moving mass between y_0 and y_1 leaves phi unchanged, and against c
        # the margin gamma*alpha**2 rounds away: only a strict decrease test
        # keeps the search from taking such steps until the budget
        obj = BudgetedObjective(lambda y: float((y[0] + y[1] - 1.0) ** 2 + y[2] + c), budget=20000)
        res = df_simplex_solve(obj, np.array([0.5, 0.5, 0.0]), DfSimplexConfig())
        assert res.stop is StopReason.TOLERANCE
        assert obj.eval_count < 100

    def test_monotone_and_feasible_all_probes(self):
        rng = np.random.default_rng(3)
        cfg = DfSimplexConfig(epsilon=1e-3)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            B = rng.normal(size=(m, m))
            Q = B.T @ B / m
            c = rng.normal(size=m)
            seen = []

            def phi(y, Q=Q, c=c):
                seen.append(y.copy())
                return float(0.5 * y @ Q @ y + c @ y)

            y0 = rng.dirichlet(np.ones(m))
            state = DfSimplexState(y=y0, f=phi(y0), alpha_hat=np.full(m, cfg.alpha0))
            for _ in range(10_000):
                nxt = df_simplex_iterate(state, phi, cfg)
                assert nxt.f <= state.f + 1e-15
                state = nxt
                if state.stop is not None:
                    break
            else:
                pytest.fail("no tolerance stop within 10000 iterations")
            assert all(is_simplex_point(pt) for pt in seen)
            assert np.all(state.alpha_hat >= cfg.epsilon)

    def test_floor_invariant_along_the_run(self):
        cfg = DfSimplexConfig(epsilon=1e-2)
        phi = lambda y: float(np.sum(y**2))
        y0 = np.full(4, 0.25)
        state = DfSimplexState(y=y0, f=phi(y0), alpha_hat=np.full(4, cfg.alpha0))
        while state.stop is None:
            state = df_simplex_iterate(state, phi, cfg)
            assert np.all(state.alpha_hat >= cfg.epsilon)

    def test_final_poll_covers_every_direction(self):
        # at the stopping iteration every non-pivot coordinate got a forward
        # probe, so the final poll holds >= m-1 distinct points, and their
        # values are the ledger's last entries
        phi = lambda y: float(np.sum((y - np.array([0.5, 0.3, 0.2])) ** 2))
        objective = BudgetedObjective(phi)
        cfg = DfSimplexConfig(epsilon=1e-3)
        res = df_simplex_solve(objective, np.full(3, 1 / 3), cfg)
        points = final_poll(res.y, cfg.epsilon)
        assert len({point.tobytes() for point in points}) >= 2
        assert objective.values[-len(points):].tolist() == [phi(point) for point in points]


def _run_to_stop(phi, y0, cfg):
    """Iterate from y0 to the stop; the last state and the (point, value)
    pairs phi was called with during the stopping iteration."""
    state = DfSimplexState(y=y0, f=phi(y0), alpha_hat=np.full(len(y0), cfg.alpha0))
    while state.stop is None:
        calls = []

        def recorded(v):
            value = phi(v)
            calls.append((v.copy(), value))
            return value

        start = state
        state = df_simplex_iterate(state, recorded, cfg)
    assert state.y.tobytes() == start.y.tobytes()
    return state, calls


class TestFinalPoll:
    def _assert_poll_is_last_sweep(self, phi, y0, cfg):
        state, calls = _run_to_stop(phi, y0, cfg)
        assert state.stop is StopReason.TOLERANCE
        points = final_poll(state.y, cfg.epsilon)
        assert points.shape == (len(calls), len(y0))
        _assert_same_points(list(points), [p for p, _ in calls])
        return state

    def test_random_runs_with_zero_weights(self):
        rng = np.random.default_rng(21)
        cfg = DfSimplexConfig(epsilon=1e-3)
        with_zero = 0
        for _ in range(40):
            m = int(rng.integers(2, 12))
            B = rng.normal(size=(m, m))
            Q = B.T @ B / m
            c = rng.normal(size=m) * 3
            phi = lambda v, Q=Q, c=c: float(0.5 * v @ Q @ v + c @ v)  # noqa: E731
            y = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.4)
            y[int(rng.integers(m))] += 1.0
            y /= y.sum()
            state = self._assert_poll_is_last_sweep(phi, y, cfg)
            with_zero += bool((state.y <= 0.0).any())
        assert with_zero > 10

    def test_drained_pivot(self):
        # the first sweep drains pivot 1 onto coordinate 0 and skips
        # coordinate 2 with both bounds at zero
        c = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([0.0, 0.6, 0.0, 0.4, 0.0, 0.0])
        state = self._assert_poll_is_last_sweep(lambda v: float(c @ v), y, DfSimplexConfig())
        assert np.array_equal(state.y, [1.0, 0, 0, 0, 0, 0])

    def test_steps_truncated_by_small_weights(self):
        # weights below epsilon cap the reverse probes at the weight itself
        target = np.array([0.9, 0.07, 0.03])
        phi = lambda v: float(np.sum((v - target) ** 2))  # noqa: E731
        cfg = DfSimplexConfig(epsilon=0.03)
        state = self._assert_poll_is_last_sweep(phi, np.full(3, 1 / 3), cfg)
        assert 0.0 < state.y.min() < cfg.epsilon

    def test_singleton_poll_is_empty(self):
        state = self._assert_poll_is_last_sweep(lambda v: 2.0, np.array([1.0]), DfSimplexConfig())
        assert state.iterations == 1
        assert final_poll(state.y, 1e-4).shape == (0, 1)
