import numpy as np
import pytest
from hypothesis import given, strategies as st

from atomdfo.analysis import (
    PropertyReport,
    _best_ascent,
    _random_faces,
    _verdict,
    check_cone_measure,
    check_cone_polarity,
    check_generator_property,
    check_kkt_upper_bound,
    check_linesearch_oracle,
    check_polar_decomposition,
    check_simplex_gradient_affine,
    check_stationarity_bound,
    feasible_direction_set,
    kkt_gap,
    random_simplex_point,
    run_property_suite,
    tangent_cone_project,
)
from atomdfo.core import ZERO_TOL


class TestKktGap:
    def test_mass_on_minimum_coordinate(self):
        assert kkt_gap(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_mass_on_maximum_coordinate(self):
        # vertices of the simplex give -g^T(e_i - y) = 3 - g_i: max at g_3 = 1
        assert kkt_gap(np.array([3.0, 2.0, 1.0]), np.array([1.0, 0.0, 0.0])) == 2.0

    def test_constant_gradient(self):
        g = np.array([1.0, 1.0, 1.0])
        assert kkt_gap(g, np.array([0.3, 0.3, 0.4])) == pytest.approx(0.0, abs=1e-15)

    @given(st.integers(0, 10**9))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        g = rng.normal(size=m)
        y = rng.dirichlet(np.ones(m))
        by_vertices = max(-g @ (np.eye(m)[i] - y) for i in range(m))
        assert kkt_gap(g, y) == pytest.approx(by_vertices, abs=1e-12)


class TestTangentConeProject:
    def test_interior_sum_zero_vector_unchanged(self):
        v = np.array([1.0, -1.0])
        got = tangent_cone_project(v, np.array([0.5, 0.5]))
        assert np.allclose(got, v, atol=1e-15)

    def test_interior_all_ones_projects_to_zero(self):
        got = tangent_cone_project(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose(got, [0.0, 0.0], atol=1e-15)

    def test_vertex_normal_cone_vector_projects_to_zero(self):
        got = tangent_cone_project(np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        assert np.allclose(got, [0.0, 0.0], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tangent_cone_project(np.ones(3), np.array([0.5, 0.5]))

    def test_point_without_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive support"):
            tangent_cone_project(np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("m", [13, 50, 200])
    def test_kkt_certificate_at_any_length(self, m):
        # about half the weights zero, and several entries of v on Z tied at
        # the multiplier lam: moving an entry that stays out of the mean to
        # lam leaves lam where it was, so the second projection meets the ties
        rng = np.random.default_rng(m)
        y = random_simplex_point(rng, m, m // 2)
        zero = y <= ZERO_TOL
        v = rng.normal(size=m)
        u = tangent_cone_project(v, y)
        lam = float(np.mean((v - u)[~zero]))
        out = np.flatnonzero(zero & (u == 0.0))
        ties = out[: max(2, len(out) // 2)]
        assert len(ties) >= 2
        v[ties] = lam
        u = tangent_cone_project(v, y)
        mu = u - v + float(np.mean((v - u)[~zero]))  # v - u = lam * 1 - mu
        assert abs(u.sum()) <= 1e-12
        assert u[zero].min() >= -1e-12 and mu[zero].min() >= -1e-12
        assert np.max(np.abs(mu[~zero])) <= 1e-12
        assert np.max(np.abs(mu * u)) <= 1e-12

    def test_matches_slsqp_qp(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(21)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            y = random_simplex_point(rng, m, int(rng.integers(0, m)))
            v = rng.normal(size=m)
            got = tangent_cone_project(v, y)
            bounds = [(0.0, None) if y[i] <= ZERO_TOL else (None, None) for i in range(m)]
            qp = minimize(
                lambda u: float(np.sum((u - v) ** 2)),
                x0=np.zeros(m),
                jac=lambda u: 2.0 * (u - v),
                bounds=bounds,
                constraints=[{"type": "eq", "fun": lambda u: float(u.sum())}],
                method="SLSQP",
                options={"maxiter": 200, "ftol": 1e-14},
            )
            assert qp.success
            assert np.max(np.abs(got - qp.x)) <= 1e-6

    def test_polar_decomposition_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            y = random_simplex_point(rng, m, int(rng.integers(0, m)))
            v = rng.normal(size=m)
            v_t = tangent_cone_project(v, y)
            v_n = v - v_t
            assert abs(v_t @ v_n) <= 1e-10
            assert np.linalg.norm(v - v_t - v_n) <= 1e-10


class TestFeasibleDirectionSet:
    def test_both_signs_in_the_interior(self):
        got = feasible_direction_set(np.array([0.5, 0.5]), 0)
        assert np.array_equal(got, [[-1.0, 1.0], [1.0, -1.0]])

    def test_backward_infeasible_at_vertex(self):
        got = feasible_direction_set(np.array([1.0, 0.0]), 0)
        assert np.array_equal(got, [[-1.0], [1.0]])

    def test_mixed_boundary(self):
        # columns +(e_0 - e_1), -(e_0 - e_1), +(e_2 - e_1)
        got = feasible_direction_set(np.array([0.4, 0.6, 0.0]), 1)
        assert np.array_equal(got, [[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])

    def test_single_coordinate_has_no_direction(self):
        got = feasible_direction_set(np.array([1.0]), 0)
        assert got.shape == (1, 0) and got.dtype == np.float64

    def test_zero_pivot_rejected(self):
        with pytest.raises(ValueError):
            feasible_direction_set(np.array([1.0, 0.0]), 1)


def _exchange_triples(y, j):
    """Reference for feasible_direction_set: its columns as (sign, i, j) triples, in order."""
    out = []
    for i in range(len(y)):
        if i != j:
            out.append((+1, i, j))
            if y[i] > ZERO_TOL:
                out.append((-1, i, j))
    return out


class TestBestAscent:
    def _check(self, y, D, v):
        triples = _exchange_triples(y, int(np.argmax(y)))
        want = np.zeros((len(y), len(triples)))
        for col, (sign, i, j) in enumerate(triples):
            want[i, col], want[j, col] = sign, -sign
        assert D.tobytes() == want.tobytes() and D.shape == want.shape
        assert _best_ascent(v, D) == max(sign * (v[i] - v[j]) for sign, i, j in triples)

    @pytest.mark.parametrize("keep_two", [False, True])
    def test_equals_the_triple_formula_on_random_faces(self, keep_two):
        for y, D, v in _random_faces(np.random.default_rng(5), 1000, keep_two=keep_two):
            self._check(y, D, v)

    def test_equals_the_triple_formula_on_tied_normal_cone_draws(self):
        # the polarity check's draw: v equal on the support, so every exchange
        # inside it ascends by exactly 0; integer g adds ties off the support
        rng = np.random.default_rng(6)
        for k, (y, D, g) in enumerate(_random_faces(rng, 1000)):
            if k % 2:
                g = rng.integers(-2, 3, size=len(y)).astype(float)
            v = np.where(y > ZERO_TOL, 0.0, -np.abs(g)) + g[np.argmax(y)]
            self._check(y, D, v)
            self._check(y, D, g)


class TestConeMeasureProperty:
    def test_vertex_counterexample_is_the_known_degenerate_case(self):
        # At y = (1, 0) the only feasible direction is (-1, 1); for
        # v = (1, -1), which lies in the normal cone, v_T = 0 while
        # max_d v^T d = -2: the unconditional inequality fails exactly here,
        # which is why the measure check samples faces with >= 2 positive
        # weights and the vertex case is covered by the polarity property.
        y = np.array([1.0, 0.0])
        v = np.array([1.0, -1.0])
        v_t = tangent_cone_project(v, y)
        assert np.linalg.norm(v_t) == 0.0
        best = _best_ascent(v, feasible_direction_set(y, 0))
        assert best == -2.0  # ascent impossible: v is polar to the cone

    def test_measure_property_holds(self):
        report = check_cone_measure(400, np.random.default_rng(0))
        assert report.passed, report.line()

    def test_polarity_property_holds(self):
        report = check_cone_polarity(400, np.random.default_rng(1))
        assert report.passed, report.line()

    def test_generator_property_holds(self):
        report = check_generator_property(200, np.random.default_rng(2))
        assert report.passed, report.line()

    def test_polar_property_holds(self):
        report = check_polar_decomposition(200, np.random.default_rng(3))
        assert report.passed, report.line()

    def test_kkt_upper_bound_holds(self):
        report = check_kkt_upper_bound(400, np.random.default_rng(4))
        assert report.passed, report.line()


class TestNegativeControls:
    def test_broken_projector_fails_cone_suite(self):
        # doubling the projection inflates the right-hand side
        broken = lambda v, y: 10.0 * tangent_cone_project(v, y)
        report = check_cone_measure(200, np.random.default_rng(5), project=broken)
        assert not report.passed

    def test_broken_gap_fails_kkt_suite(self):
        inflated = lambda g, y: kkt_gap(g, y) + 1.0
        report = check_kkt_upper_bound(200, np.random.default_rng(6), gap=inflated)
        assert not report.passed

    @pytest.mark.parametrize("seed", [11, 12])
    def test_zero_projector_fails_polarity_and_polar_suites(self, seed):
        # v_T = 0 for every v claims every v is in the normal cone
        zero = lambda v, y: np.zeros_like(v)
        for check in (check_cone_polarity, check_polar_decomposition):
            report = check(200, np.random.default_rng(seed), project=zero)
            assert not report.passed and report.worst_margin < -1.0, report.line()

    def test_hyperplane_projector_fails_polar_suite(self):
        # sum(v_T) = 0 but v_T < 0 on zero weights: orthogonal and polar, not in the cone
        hyperplane = lambda v, y: v - v.mean()
        report = check_polar_decomposition(200, np.random.default_rng(12), project=hyperplane)
        assert not report.passed and report.worst_margin < -1.0, report.line()

    def test_flipped_sufficient_decrease_fails_stationarity_suite(self):
        # a gap reported with the wrong sign convention breaks the bound
        flipped = lambda g, y: -kkt_gap(g, y) + 2.0 * abs(kkt_gap(g, y)) + 1e3
        report = check_stationarity_bound(3, np.random.default_rng(7), gap=flipped)
        assert not report.passed

    # a NaN compares false with everything, so a running min or max would skip it
    # and report worst_margin=+inf; each NaN case must fail its check instead
    @pytest.mark.parametrize("check", [check_cone_measure, check_polar_decomposition])
    def test_nan_projector_fails_measure_and_polar_suites(self, check):
        report = check(100, np.random.default_rng(0), project=lambda v, y: np.full_like(v, np.nan))
        assert not report.passed and np.isnan(report.worst_margin), report.line()

    @pytest.mark.parametrize("check, trials", [(check_kkt_upper_bound, 100), (check_stationarity_bound, 3)])
    def test_nan_gap_fails_kkt_and_stationarity_suites(self, check, trials):
        report = check(trials, np.random.default_rng(0), gap=lambda g, y: float("nan"))
        assert not report.passed and np.isnan(report.worst_margin), report.line()

    def test_nan_poll_gradient_fails_affine_suite(self, monkeypatch):
        monkeypatch.setattr("atomdfo.ord.poll_gradient", lambda phi, y, f, eps: np.full(len(y), np.nan))
        report = check_simplex_gradient_affine(5, np.random.default_rng(0))
        assert not report.passed and np.isnan(report.worst_margin), report.line()

    def test_identity_projector_fails_polarity(self):
        # v_T = v is not 0 on the normal-cone draws, which every trial makes
        report = check_cone_polarity(200, np.random.default_rng(0), project=lambda v, y: v)
        assert not report.passed and report.worst_margin < -0.1, report.line()
        assert report.detail == "200 of 200 trials in the normal cone"


class TestVerdict:
    @pytest.mark.parametrize("margins", [[np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan]])
    def test_a_nan_anywhere_fails(self, margins):
        report = _verdict("p", 3, iter(margins), tol=1e-10)
        assert not report.passed and np.isnan(report.worst_margin)

    def test_an_empty_sample_fails(self):
        report = _verdict("p", 10, iter([]), tol=1e-10)
        assert not report.passed and np.isnan(report.worst_margin)

    def test_the_smallest_margin_decides_within_tol(self):
        assert _verdict("p", 3, [1.0, -1e-11, 0.5], tol=1e-10) == PropertyReport("p", 3, -1e-11, True)
        assert not _verdict("p", 3, [1.0, -1e-9, 0.5], tol=1e-10).passed
        assert not _verdict("p", 1, [-1e-300]).passed

    def test_cone_polarity_reports_its_tested_count(self):
        report = check_cone_polarity(100, np.random.default_rng(0))
        assert report.passed and report.detail == "100 of 100 trials in the normal cone"


def _parent_faces(rng, trials, keep_two):
    """Reference for _random_faces: the per-trial draw written out call by call."""
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n_zeros = int(rng.integers(0, m - 1)) if keep_two else int(rng.integers(0, m))
        y = random_simplex_point(rng, m, n_zeros)
        j = int(np.argmax(y))
        D = feasible_direction_set(y, j)
        v = rng.normal(size=m)
        yield y, D, v


class TestRandomFaces:
    @pytest.mark.parametrize("keep_two", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_same_stream_as_the_inline_draw(self, seed, keep_two):
        # the suite shares one generator across its checks, so one extra or
        # reordered draw here would shift every later report
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(_random_faces(got_rng, 300, keep_two=keep_two))
        want = list(_parent_faces(want_rng, 300, keep_two))
        assert len(got) == len(want) == 300
        for (y, D, v), (y0, D0, v0) in zip(got, want):
            assert y.tobytes() == y0.tobytes() and v.tobytes() == v0.tobytes()
            again = feasible_direction_set(y, int(np.argmax(y)))
            assert D.shape == D0.shape == again.shape
            assert D.tobytes() == D0.tobytes() == again.tobytes()
            if keep_two:
                assert np.count_nonzero(y) >= 2
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSuite:
    def test_quick_suite_all_pass_and_lists_enough_properties(self):
        reports = run_property_suite(level="quick", seed=0)
        assert len(reports) >= 6
        for report in reports:
            assert report.passed, report.line()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            run_property_suite(level="huge")

    def test_solver_backed_properties_pass(self):
        assert check_linesearch_oracle(100, np.random.default_rng(8)).passed
        assert check_simplex_gradient_affine(20, np.random.default_rng(9)).passed
        assert check_stationarity_bound(5, np.random.default_rng(10)).passed
