import numpy as np
import pytest
from hypothesis import given, strategies as st

from atomdfo.profiles import (
    DEFAULT_IOTAS,
    DEFAULT_KAPPAS,
    RunRecord,
    convergence_threshold,
    data_profile,
    first_hit_evals,
    performance_profile,
    write_curves_csv,
)


def record(problem, solver, n_p, history, f0=None):
    history = np.asarray(history, dtype=float)
    return RunRecord(problem, solver, n_p, history, float(f0 if f0 is not None else history[0]))


def hit_at(t, length, f0=10.0, low=0.0):
    """History that first reaches `low` exactly at evaluation t."""
    hist = np.full(length, f0)
    hist[t - 1 :] = low
    return hist


class TestConvergenceThreshold:
    def test_arithmetic(self):
        assert convergence_threshold(10.0, 0.0, 0.1) == 1.0

    def test_flat_problem(self):
        assert convergence_threshold(5.0, 5.0, 0.3) == 5.0

    def test_negative_floor(self):
        assert convergence_threshold(1.0, -1.0, 0.5) == 0.0

    def test_contract_error(self):
        with pytest.raises(ValueError):
            convergence_threshold(0.0, 1.0, 0.5)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            convergence_threshold(1.0, 0.0, 1.0)


class TestFirstHit:
    def test_scan(self):
        assert first_hit_evals(np.array([5.0, 3.0, 1.0]), 3.0) == 2

    def test_unsolved(self):
        assert first_hit_evals(np.array([5.0, 3.0, 1.0]), 0.0) is None

    def test_immediate(self):
        assert first_hit_evals(np.array([0.0]), 0.0) == 1


class TestRunRecord:
    def test_rejects_increasing_history(self):
        with pytest.raises(ValueError):
            record("p", "s", 3, [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RunRecord("p", "s", 3, np.array([]), 0.0)

    @pytest.mark.parametrize(
        "history", [[2.0, np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]], ids=["nan", "inf", "-inf"]
    )
    def test_rejects_non_finite_history(self, history):
        with pytest.raises(ValueError):
            record("p", "s", 3, history, f0=2.0)


class TestDataProfile:
    def test_single_run_boundary(self):
        # t = 50 on an n_p = 9 problem: solved exactly at kappa = 5
        recs = [record("p1", "s1", 9, hit_at(50, 60))]
        curves = data_profile(recs, tau=0.1, kappas=[4.9, 5.0])
        assert curves["s1"][0] == 0.0
        assert curves["s1"][1] == 1.0

    def test_unsolved_solver_flat_zero(self):
        # s2 never gets near the shared f_L set by s1
        recs = [
            record("p1", "s1", 9, hit_at(10, 50)),
            record("p1", "s2", 9, np.full(50, 9.0)),
        ]
        curves = data_profile(recs, tau=0.1, kappas=[1, 10, 100])
        assert np.all(curves["s2"] == 0.0)
        assert curves["s1"][-1] == 1.0

    def test_missing_pair_is_contract_error(self):
        recs = [
            record("p1", "s1", 9, hit_at(10, 50)),
            record("p2", "s1", 9, hit_at(10, 50)),
            record("p1", "s2", 9, hit_at(20, 50)),
        ]
        with pytest.raises(ValueError):
            data_profile(recs, tau=0.1, kappas=[1])

    def test_duplicate_pair_rejected(self):
        recs = [
            record("p1", "s1", 9, hit_at(10, 50)),
            record("p1", "s1", 9, hit_at(20, 50)),
        ]
        with pytest.raises(ValueError):
            data_profile(recs, tau=0.1, kappas=[1])


class TestPerformanceProfile:
    def test_two_solver_ratio_table(self):
        recs = [
            record("p1", "s1", 5, hit_at(10, 40)),
            record("p1", "s2", 5, hit_at(20, 40)),
        ]
        curves = performance_profile(recs, tau=0.1, iotas=[1.0, 2.0])
        assert curves["s1"][0] == 1.0
        assert curves["s2"][0] == 0.0
        assert curves["s2"][1] == 1.0

    def test_single_solver_solved_fraction_at_one(self):
        recs = [
            record("p1", "s1", 5, hit_at(10, 40)),
            record("p2", "s1", 5, hit_at(30, 40)),
        ]
        curves = performance_profile(recs, tau=0.1, iotas=[1.0])
        assert curves["s1"][0] == 1.0

    def test_unsolved_problem_never_counts(self):
        recs = [
            record("p1", "s1", 5, hit_at(10, 40)),
            record("p1", "s2", 5, np.full(40, 9.0)),
            record("p2", "s1", 5, hit_at(10, 40)),
            record("p2", "s2", 5, hit_at(10, 40)),
        ]
        curves = performance_profile(recs, tau=0.1, iotas=[1.0, 1e9])
        assert curves["s2"][-1] == 0.5  # p1 stays uncounted at any ratio


@given(st.integers(0, 10**9))
def test_curves_monotone_bounded_and_consistent(seed):
    rng = np.random.default_rng(seed)
    n_problems = int(rng.integers(1, 6))
    solvers = ["a", "b"]
    recs = []
    length = 40
    for p in range(n_problems):
        for s in solvers:
            f0 = 10.0
            drops = np.sort(rng.uniform(0, f0, size=length))[::-1]
            hist = np.minimum.accumulate(np.concatenate([[f0], drops]))[1:]
            recs.append(record(f"p{p}", s, int(rng.integers(1, 9)), hist))
    kappas = np.linspace(0, 100, 21)
    iotas = np.logspace(0, 9, 15, base=2.0)
    d = data_profile(recs, tau=0.3, kappas=kappas)
    rho = performance_profile(recs, tau=0.3, iotas=iotas)
    for s in solvers:
        for curve in (d[s], rho[s]):
            assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
            assert np.all(np.diff(curve) >= 0.0)
        # full-range grids agree on the solved fraction
        assert d[s][-1] == rho[s][-1]


def reference_table(records, tau):
    """Per-problem first-hit counts (None if unsolved), computed one run at a time."""
    problems = sorted({r.problem_id for r in records})
    solvers = sorted({r.solver_id for r in records})
    by_key = {(r.problem_id, r.solver_id): r for r in records}
    table, dims = {}, {}
    for p in problems:
        f_low = min(by_key[(p, s)].best for s in solvers)
        threshold = convergence_threshold(by_key[(p, solvers[0])].f0, f_low, tau)
        table[p] = {s: first_hit_evals(by_key[(p, s)].history, threshold) for s in solvers}
        dims[p] = by_key[(p, solvers[0])].n_p
    return problems, solvers, table, dims


def reference_data_profile(records, tau, kappas):
    problems, solvers, table, dims = reference_table(records, tau)
    curves = {}
    for s in solvers:
        curve = np.zeros(len(kappas))
        for gi, kappa in enumerate(kappas):
            solved = sum(
                1
                for p in problems
                if table[p][s] is not None and table[p][s] <= kappa * (dims[p] + 1)
            )
            curve[gi] = solved / len(problems)
        curves[s] = curve
    return curves


def reference_performance_profile(records, tau, iotas):
    problems, solvers, table, _ = reference_table(records, tau)
    curves = {}
    for s in solvers:
        ratios = []
        for p in problems:
            hits = [table[p][s2] for s2 in solvers if table[p][s2] is not None]
            if not hits or table[p][s] is None:
                ratios.append(np.inf)  # unsolved by s (or by everyone): never counted
            else:
                ratios.append(table[p][s] / min(hits))
        ratios = np.array(ratios)
        curves[s] = np.array([np.mean(ratios <= iota) for iota in iotas])
    return curves


def random_records(rng):
    """Problems x solvers runs with random first hits, unsolved runs, and
    problems no solver solves (a NaN start value fails every threshold test)."""
    solvers = [f"s{j}" for j in range(int(rng.integers(1, 4)))]
    recs = []
    for p in range(int(rng.integers(1, 8))):
        n_p = int(rng.integers(1, 12))
        f0 = np.nan if rng.random() < 0.15 else 10.0
        for s in solvers:
            length = int(rng.integers(1, 80))
            hist = np.full(length, 10.0)
            if rng.random() < 0.8:  # otherwise the run never moves off f(x0)
                steps = rng.choice([0.0, 0.0, 1.0], size=length) * rng.uniform(0, 3, size=length)
                hist = np.maximum(10.0 - np.cumsum(steps), rng.uniform(-2, 2))
            recs.append(record(f"p{p}", s, n_p, hist, f0=f0))
    return recs


def test_profiles_match_reference_loops():
    kappas = list(DEFAULT_KAPPAS) + [0.5, 2.25, 7.3]
    iotas = list(DEFAULT_IOTAS) + [1.5, 3.0]
    all_unsolved = partly_unsolved = 0
    for seed in range(150):
        recs = random_records(np.random.default_rng(seed))
        for tau in (1e-1, 1e-3, 0.5):
            d = data_profile(recs, tau, kappas)
            d_ref = reference_data_profile(recs, tau, kappas)
            rho = performance_profile(recs, tau, iotas)
            rho_ref = reference_performance_profile(recs, tau, iotas)
            assert list(d) == list(d_ref) and list(rho) == list(rho_ref)
            for s in d_ref:
                assert np.array_equal(d[s], d_ref[s]), (seed, tau, s)
                assert np.array_equal(rho[s], rho_ref[s]), (seed, tau, s)
            _, solvers, table, _ = reference_table(recs, tau)
            for hits in table.values():
                unsolved = sum(hits[s] is None for s in solvers)
                all_unsolved += unsolved == len(solvers)
                partly_unsolved += 0 < unsolved < len(solvers)
    # the random sets reach both kinds of unsolved problem
    assert all_unsolved > 0 and partly_unsolved > 0


def test_write_curves_format(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(path, {"s1": np.array([0.0, 1.0])}, [1.0, 2.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "solver_id,grid_value,curve_value"
    assert lines[1].startswith("s1,1,")
    assert len(lines) == 3
