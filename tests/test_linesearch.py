import numpy as np
import pytest

from atomdfo.core import BudgetedObjective, BudgetExhausted, exchange_point, is_simplex_point
from atomdfo import line_search
from atomdfo.analysis import reference_line_search


def recording(phi):
    """phi, and the list of (point, value) pairs it appends every call to."""
    calls = []

    def recorded(y):
        value = phi(y)
        calls.append((y.copy(), value))
        return value

    return recorded, calls


def test_descent_direction_expands_to_boundary():
    # phi(y) = y_2 decreases along +(e_1 - e_2): first probe at 0.25 accepts,
    # expansion reaches the feasibility bound 0.5 and stops there.
    phi, calls = recording(lambda y: float(y[1]))
    z = np.array([0.5, 0.5])
    out = line_search(phi, z, 0.5, 0, 1, alpha_hat=0.25, gamma=1e-6, delta=0.5)
    assert out.alpha == 0.5
    assert out.sign == +1
    assert out.f_new == 0.0
    assert len(calls) == 2  # probe at 0.25, expansion probe at 0.5


def test_constant_function_fails_both_sides():
    phi, calls = recording(lambda y: 7.0)
    z = np.array([0.5, 0.5])
    out = line_search(phi, z, 7.0, 0, 1, alpha_hat=0.25, gamma=1e-6, delta=0.5)
    assert out.alpha == 0.0
    assert out.sign == +1
    assert out.f_new == 7.0
    assert len(calls) == 2  # forward and backward both evaluated


def test_ascent_direction_gets_flipped():
    # phi(y) = y_1 increases along +(e_1 - e_2); the reverse direction accepts
    # at 0.25 and expands to the bound 0.5.
    phi, calls = recording(lambda y: float(y[0]))
    z = np.array([0.5, 0.5])
    out = line_search(phi, z, 0.5, 0, 1, alpha_hat=0.25, gamma=1e-6, delta=0.5)
    assert out.alpha == 0.5
    assert out.sign == -1
    assert out.f_new == 0.0
    assert len(calls) == 3  # failed forward, accepted backward, expansion


def test_tie_with_f_z_rejected_below_half_an_ulp():
    # at f_z = 1e12, gamma*alpha**2 is below half an ulp, so f_z - gamma*alpha**2
    # rounds to f_z and the margin test alone would accept an equal value
    f_z, gamma = 1e12, 1e-6
    assert gamma * 0.5**2 < np.spacing(f_z) / 2
    phi, calls = recording(lambda y: f_z)
    out = line_search(phi, np.array([0.5, 0.5]), f_z, 0, 1, 0.25, gamma, 0.5)
    assert (out.alpha, out.f_new) == (0.0, f_z)
    assert len(calls) == 2  # forward and backward both evaluated and rejected
    # an expansion probe that ties f_z is rejected too: the step stays at 0.25
    phi, calls = recording(lambda y: f_z - 1.0 if y[0] < 0.9 else f_z)
    out = line_search(phi, np.array([0.5, 0.5]), f_z, 0, 1, 0.25, gamma, 0.5)
    assert (out.alpha, out.sign, out.f_new) == (0.25, +1, f_z - 1.0)
    assert len(calls) == 2


def test_zero_bound_probe_skipped_without_evaluation():
    evals = []

    def phi(y):
        evals.append(y.copy())
        return 7.0

    z = np.array([1.0, 0.0])
    # backward bound is z_i = 0 for i=1: only the forward probe runs
    out = line_search(phi, z, 7.0, 1, 0, alpha_hat=0.5, gamma=1e-6, delta=0.5)
    assert out.alpha == 0.0
    assert len(evals) == 1


def test_alpha_hat_must_be_positive():
    with pytest.raises(ValueError):
        line_search(lambda y: 0.0, np.array([1.0, 0.0]), 0.0, 0, 1, 0.0, 1e-6, 0.5)


def test_nan_alpha_hat_rejected():
    evals = []

    def phi(y):
        evals.append(y.copy())
        return -1.0

    with pytest.raises(ValueError, match="alpha_hat"):
        line_search(phi, np.array([0.5, 0.5]), 0.0, 0, 1, float("nan"), 1e-6, 0.5)
    assert evals == []


def test_budget_exhaustion_propagates():
    obj = BudgetedObjective(lambda y: float(y[1]), budget=1)
    z = np.array([0.5, 0.5])
    with pytest.raises(BudgetExhausted):
        # first probe accepted (1 eval), expansion probe exceeds the budget
        line_search(obj, z, 0.5, 0, 1, alpha_hat=0.25, gamma=1e-6, delta=0.5)
    assert obj.eval_count == 1


def _random_case(rng):
    m = int(rng.integers(2, 7))
    B = rng.normal(size=(m, m))
    Q = B.T @ B / m
    c = rng.normal(size=m)
    phi = lambda y: float(0.5 * y @ Q @ y + c @ y)
    n_zeros = int(rng.integers(0, m))
    z = np.zeros(m)
    support = rng.permutation(m)[: m - n_zeros]
    w = rng.exponential(size=m - n_zeros)
    z[support] = w / w.sum()
    i, j = (int(v) for v in rng.permutation(m)[:2])
    alpha_hat = float(10.0 ** rng.uniform(-3, 0))
    gamma = float(10.0 ** rng.uniform(-8, -2))
    delta = float(rng.choice([0.3, 0.5, 0.7]))
    return phi, z, i, j, alpha_hat, gamma, delta


def test_sufficient_decrease_certificate_and_feasibility():
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(300):
        phi, z, i, j, alpha_hat, gamma, delta = _random_case(rng)
        f_z = phi(z)
        probed, calls = recording(phi)
        out = line_search(probed, z, f_z, i, j, alpha_hat, gamma, delta)
        for point, value in calls:
            assert is_simplex_point(point)
            assert value == phi(point)
        if out.alpha > 0:
            accepted += 1
            accepted_point = z.copy()
            accepted_point[i] += out.sign * out.alpha
            accepted_point[j] -= out.sign * out.alpha
            assert out.f_new < f_z and out.f_new <= f_z - gamma * out.alpha**2
            assert abs(phi(np.clip(accepted_point, 0, None)) - out.f_new) <= 1e-12
    assert accepted > 20  # the sweep must exercise the accepting branch


def test_outcome_point_is_the_accepted_probe():
    rng = np.random.default_rng(13)
    accepted = failed = 0
    for _ in range(300):
        phi, z, i, j, alpha_hat, gamma, delta = _random_case(rng)
        probed, calls = recording(phi)
        out = line_search(probed, z, phi(z), i, j, alpha_hat, gamma, delta)
        if out.alpha > 0:
            accepted += 1
            assert (out.z.tobytes(), out.f_new) in [(p.tobytes(), v) for p, v in calls]
            # the point DF-SIMPLEX used to rebuild from (sign, alpha), bit for bit
            assert out.z.tobytes() == exchange_point(z, out.sign, i, j, out.alpha).tobytes()
        else:
            failed += 1
            assert out.z is z
    assert accepted > 20 and failed > 20


def test_probe_count_bounded():
    # at most 2 opening probes plus ceil(log_{1/delta}(bound/alpha_first)) + 1
    # expansion probes; bounds <= 1 keep this small
    rng = np.random.default_rng(11)
    for _ in range(300):
        phi, z, i, j, alpha_hat, gamma, delta = _random_case(rng)
        f_z = phi(z)
        probed, calls = recording(phi)
        out = line_search(probed, z, f_z, i, j, alpha_hat, gamma, delta)
        if out.alpha > 0:
            first = min(max(z[i], z[j]), alpha_hat)
            cap = 2 + int(np.ceil(np.log(1.0 / first) / np.log(1.0 / delta))) + 1
        else:
            cap = 2
        assert len(calls) <= cap


def test_matches_reference_implementation():
    rng = np.random.default_rng(99)
    for _ in range(300):
        phi, z, i, j, alpha_hat, gamma, delta = _random_case(rng)
        f_z = phi(z)
        out = line_search(phi, z, f_z, i, j, alpha_hat, gamma, delta)
        ref_alpha, ref_sign = reference_line_search(
            phi, z, f_z, i, j, alpha_hat, gamma, delta
        )
        assert out.alpha == ref_alpha
        assert out.sign == ref_sign
