"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. The benchmark-backed criteria share
one module-scoped pair of `atomdfo run` suites so the whole module stays fast.
"""
import csv
import json
import os

import numpy as np
import pytest

import atomdfo.ord
from atomdfo import bench, cli, profiles
from atomdfo.analysis import (
    check_cone_measure,
    check_linesearch_oracle,
    check_simplex_gradient_affine,
    kkt_gap,
)
from atomdfo.core import AtomSet, OrdConfig
from atomdfo.dfsimplex import GAMMA, df_simplex_solve
from atomdfo.ord import ord_solve

SEEDS = (0, 1, 2)
M_GRID = (10, 50, 100, 200)
N = 10


def report(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def _run_suite(tmp, solver, ms, jobs=os.cpu_count()):
    """`atomdfo run` over the full catalog: (history, sparsity) by (name, m, seed)."""
    manifest = tmp / f"{solver}.json"
    manifest.write_text(json.dumps({
        "pairs": [[N, m] for m in ms], "seeds": list(SEEDS), "solvers": [solver],
    }))
    out = tmp / solver
    assert cli.cmd_run(manifest, out, jobs=jobs) == 0
    histories = {rec.problem_id: rec.history for rec in cli.load_run_records(out)}
    with open(out / "summary.csv", newline="") as fh:
        sparsity = {row["problem"]: float(row["sparsity"]) for row in csv.DictReader(fh)}
    runs = {}
    for m in ms:
        for seed in SEEDS:
            for name in bench.FUNCTION_NAMES:
                pid = bench.problem_id(name, N, m, seed)
                runs[(name, m, seed)] = (histories[pid], sparsity[pid])
    return runs


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """ORD runs over the m grid plus DF-SIMPLEX runs at m=200, 3 seeds each."""
    tmp = tmp_path_factory.mktemp("acceptance")
    ord_runs = _run_suite(tmp, "ord", M_GRID)
    df_runs = {key: hist for key, (hist, _) in _run_suite(tmp, "dfsimplex", (200,)).items()}
    return ord_runs, df_runs


def test_criterion_1_sparsity_reproduction(suite_runs):
    ord_runs, _ = suite_runs
    averages = {}
    for m in M_GRID:
        values = [ord_runs[(name, m, seed)][1] for seed in SEEDS for name in bench.FUNCTION_NAMES]
        averages[m] = float(np.mean(values))
    monotone = all(averages[a] < averages[b] for a, b in zip(M_GRID, M_GRID[1:]))
    at_200 = averages[200]
    report(
        "criterion-1 sparsity",
        monotone and at_200 >= 0.90,
        "avg zero-weight fraction "
        + ", ".join(f"m={m}: {averages[m]:.4f}" for m in M_GRID)
        + f" (monotone={monotone}, m=200 >= 0.90: {at_200 >= 0.90})",
    )


# ORD's random stream moves criterion 2's gap by as much as the method does,
# so the criterion holds on ORD_STREAMS streams: rng_seed + 1000*k, k < ORD_STREAMS
ORD_STREAMS = 12


def test_criterion_2_ord_dominates_at_high_atom_count(suite_runs, tmp_path, monkeypatch):
    ord_runs, df_runs = suite_runs
    lines, passed = [], True
    for k in range(ORD_STREAMS):
        if k == 0:
            runs = ord_runs
        else:
            monkeypatch.setattr(cli, "OrdConfig", lambda rng_seed, k=k: OrdConfig(rng_seed=rng_seed + 1000 * k))
            (tmp_path / str(k)).mkdir()
            # in this process, where cli.OrdConfig is patched
            runs = _run_suite(tmp_path / str(k), "ord", (200,), jobs=1)
            assert any(not np.array_equal(runs[key][0], ord_runs[key][0]) for key in runs), \
                f"stream {k} repeats stream 0: run_one no longer builds cli.OrdConfig"
        records = []
        for seed in SEEDS:
            for name in bench.FUNCTION_NAMES:
                pid = f"{name}_seed{seed}"
                hist_ord = runs[(name, 200, seed)][0]
                hist_df = df_runs[(name, 200, seed)]
                records.append(profiles.RunRecord(pid, "ord", N, hist_ord, float(hist_ord[0])))
                records.append(profiles.RunRecord(pid, "dfsimplex", N, hist_df, float(hist_df[0])))
        curves = profiles.data_profile(records, tau=1e-3, kappas=[100])
        d_ord = float(curves["ord"][0])
        d_df = float(curves["dfsimplex"][0])
        passed &= d_ord >= d_df and d_ord - d_df >= 0.2
        lines.append(f"k={k}: d_ord(100)={d_ord:.4f}, d_dfsimplex(100)={d_df:.4f}, gap={d_ord - d_df:.4f}")
    report(
        "criterion-2 profile dominance",
        passed,
        "ORD rng_seed + 1000*k, gap >= 0.2 on every stream:\n  " + "\n  ".join(lines),
    )


def test_criterion_3_stationarity_bound():
    rng = np.random.default_rng(2024)
    epsilon = 1e-4
    violations = 0
    worst_ratio = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 9))
        B = rng.normal(size=(m, m))
        Q = B.T @ B / m * float(rng.uniform(0.5, 10.0))
        c = rng.normal(size=m)
        L = float(np.linalg.eigvalsh(Q).max())
        phi = lambda y, Q=Q, c=c: float(0.5 * y @ Q @ y + c @ y)
        y0 = rng.dirichlet(np.ones(m))
        res = df_simplex_solve(phi, y0, epsilon)
        gap = kkt_gap(Q @ res.y + c, res.y)
        bound = 2.0 * np.sqrt(2.0) * (m - 1) * (2.0 * L + GAMMA) * epsilon
        worst_ratio = max(worst_ratio, gap / bound)
        if gap > bound:
            violations += 1
    report(
        "criterion-3 stationarity bound",
        violations == 0,
        f"20 quadratics, violations={violations}, worst gap/bound ratio={worst_ratio:.3e}",
    )


def test_criterion_4_cone_measure():
    rep = check_cone_measure(1000, np.random.default_rng(7))
    report(
        "criterion-4 cone measure",
        rep.passed,
        f"trials={rep.trials}, worst margin={rep.worst_margin:+.3e} (tolerance -1e-10)",
    )


def test_criterion_5_simplex_gradient_exactness():
    rep = check_simplex_gradient_affine(100, np.random.default_rng(17))
    report(
        "criterion-5 simplex gradient",
        rep.passed,
        f"100 affine trials of refine's fit, worst |g - c|_inf slack={rep.worst_margin:+.3e} "
        "(need <= 1e-8)",
    )


def _identification_runs():
    """Criterion 6's 20 instances, one ORD run each.

    On each atom cloud x* is the centroid of a hull facet picked with the
    instance's rng and f = |x - c|^2 with c two units beyond the facet along
    its outward normal, so x* is the minimizer and grad f(x*) = 2 (x* - c).
    Returns the margin-set size of each instance and, per run, whether it
    entered the 1e-2 ball around x* and how many later iterations kept a
    margin atom active.
    """
    from scipy.spatial import ConvexHull

    margins, runs = [], []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        atoms = AtomSet(rng.uniform(0, 10, (10, 3)))
        hull = ConvexHull(atoms.atoms)
        facet = int(rng.integers(len(hull.simplices)))
        x_star = atoms.atoms[hull.simplices[facet]].mean(axis=0)
        c = x_star + 2.0 * hull.equations[facet, :3]  # qhull's normals are unit and outward
        f = lambda x, c=c: float(np.sum((x - c) ** 2))
        grad_star = 2.0 * (x_star - c)
        scale = float(np.max(np.linalg.norm(atoms.atoms - x_star, axis=1)))
        margin_atoms = {
            i
            for i in range(atoms.m)
            if grad_star @ (atoms.atoms[i] - x_star) > 1e-3 * scale
        }
        margins.append(len(margin_atoms))
        records = []
        ord_solve(f, atoms, OrdConfig(rng_seed=trial), start_atom_id=0, sink=records.append)
        near = (rec.k for rec in records if np.linalg.norm(rec.x_bar - x_star) <= 1e-2)
        entered = next(near, None)
        late = [rec for rec in records if entered is not None and rec.k > entered]
        runs.append((entered is not None, sum(bool(set(rec.active_ids) & margin_atoms) for rec in late)))
    return margins, runs


def _identified(runs):
    """Criterion 6's predicate: every run entered the ball and then held no margin atom."""
    return all(entered and violations == 0 for entered, violations in runs)


def test_criterion_6_identification():
    margins, runs = _identification_runs()
    violations = sum(v for _, v in runs)
    entered_all = all(entered for entered, _ in runs)
    report(
        "criterion-6 identification",
        min(margins) > 0 and _identified(runs),
        f"20 face-minimizer instances, {sum(margins)} margin atoms "
        f"(fewest on one instance: {min(margins)}), violations={violations}, "
        f"every run entered the 1e-2 ball: {entered_all}",
    )


def test_criterion_6_fails_when_nothing_is_dropped(monkeypatch):
    # negative control: with drop_phase dropping nothing, margin atoms stay active
    monkeypatch.setattr(atomdfo.ord, "drop_phase", lambda *args: set())
    margins, runs = _identification_runs()
    assert min(margins) > 0
    assert not _identified(runs)
    print(f"never-drop control: {sum(v > 0 for _, v in runs)} of {len(runs)} instances violate")


def test_criterion_7_linesearch_oracle_equivalence():
    rep = check_linesearch_oracle(500, np.random.default_rng(23))
    report(
        "criterion-7 line search oracle",
        rep.passed,
        f"500 randomized cases, {rep.detail}",
    )


def test_criterion_8_profile_formulas():
    ok = True
    notes = []

    # threshold arithmetic
    ok &= profiles.convergence_threshold(10.0, 0.0, 0.1) == 1.0
    ok &= profiles.convergence_threshold(5.0, 5.0, 0.3) == 5.0
    ok &= profiles.convergence_threshold(1.0, -1.0, 0.5) == 0.0
    notes.append("thresholds exact")

    # first-hit scan
    ok &= profiles.first_hit_evals(np.array([5.0, 3.0, 1.0]), 3.0) == 2
    ok &= profiles.first_hit_evals(np.array([5.0, 3.0, 1.0]), 0.0) is None
    ok &= profiles.first_hit_evals(np.array([0.0]), 0.0) == 1
    notes.append("first-hit exact")

    # data profile boundary: t=50, n_p=9 solved at kappa=5, not at 4.9
    hist = np.full(60, 10.0)
    hist[49:] = 0.0
    rec = profiles.RunRecord("p", "s", 9, hist, 10.0)
    d = profiles.data_profile([rec], tau=0.1, kappas=[4.9, 5.0])
    ok &= d["s"][0] == 0.0 and d["s"][1] == 1.0
    notes.append("data profile boundary exact")

    # performance profile ratio table: t = (10, 20)
    h1, h2 = np.full(40, 10.0), np.full(40, 10.0)
    h1[9:] = 0.0
    h2[19:] = 0.0
    recs = [
        profiles.RunRecord("p", "s1", 5, h1, 10.0),
        profiles.RunRecord("p", "s2", 5, h2, 10.0),
    ]
    rho = profiles.performance_profile(recs, tau=0.1, iotas=[1.0, 2.0])
    ok &= rho["s1"][0] == 1.0 and rho["s2"][0] == 0.0 and rho["s2"][1] == 1.0
    notes.append("performance profile table exact")

    report("criterion-8 profile formulas", bool(ok), "; ".join(notes))
