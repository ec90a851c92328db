"""The benchmark's workloads: inputs from a seed, one timed pass, checks, digests.

Every workload uses n = 10 and the paper's budget of 100(n+1) evaluations on
the 25-function catalog. A workload seed s selects the problem seeds
s*k, ..., s*k + k - 1, so seed 0 reproduces the paper's suite seeds 0, 1, 2.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import atomdfo.cli
import atomdfo.profiles
from atomdfo import BudgetedObjective, OrdConfig, bench, ord_solve
from atomdfo.core import ZERO_TOL

import reference
import tracer as tracing

N = 10
BUDGET = 100 * (N + 1)
# Recomputing the catalog function at a returned x must match the returned f
# to this relative tolerance: about 150 times the worst gap measured on these
# workloads (6.8e-15). Exact mismatches are counted in ord.result_f_inexact.
F_REL_TOL = 1e-12
SIMPLEX_TOL = 1e-12
# Steps of the host-speed probe: about 2 ms, under a tenth of a solver run.
PROBE_STEPS = 500
_PROBE_X = np.arange(10.0)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each one exists."""

    name: str
    m: int
    seeds_per_run: int
    solvers: Tuple[str, ...]
    via_cli: bool

    def problem_seeds(self, seed: int) -> List[int]:
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]

    def problem_keys(self, seed: int) -> List[Tuple[str, int]]:
        return [(name, s) for s in self.problem_seeds(seed) for name in bench.FUNCTION_NAMES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-m200", 20 * N, 3, ("ord", "dfsimplex"), True),
        Workload("ord-m10", N, 6, ("ord",), False),
        Workload("ord-m20000", 2000 * N, 6, ("ord",), False),
    )
}


def problem_id(name: str, m: int, seed: int) -> str:
    return f"{name}_n{N}_m{m}_seed{seed}"


def reference_problems(workload: Workload, seed: int):
    """The workload's problems as reference.complete takes them."""
    return [(problem_id(name, workload.m, s), name, N, workload.m, s)
            for name, s in workload.problem_keys(seed)]


@dataclass
class Setup:
    workload: Workload
    seed: int
    work_dir: Path
    reference: Dict[str, float]
    problems: list = field(default_factory=list)
    make_problem_s: float = 0.0
    manifest: Optional[Path] = None


def setup(workload: Workload, seed: int, work_dir: Path) -> Setup:
    """Everything a run needs before its first solver call."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out = Setup(workload, seed, work_dir, reference.load(seed))
    if workload.via_cli:
        out.manifest = work_dir / f"{workload.name}-seed{seed}.json"
        out.manifest.write_text(json.dumps({
            "pairs": [[N, workload.m]],
            "seeds": workload.problem_seeds(seed),
            "solvers": list(workload.solvers),
            "budget_factor": BUDGET // (N + 1),
        }))
    else:
        start = perf_counter()
        out.problems = [bench.make_problem(name, N, workload.m, s)
                        for name, s in workload.problem_keys(seed)]
        out.make_problem_s = perf_counter() - start
    return out


@dataclass
class RunOutput:
    """What one solver run returned, in the form the checks consume."""

    problem_id: str
    function: str
    solver: str
    seconds: float
    values: np.ndarray  # f of each evaluation, in order
    best: np.ndarray  # best-so-far after each evaluation
    f: float
    x: np.ndarray
    weights: np.ndarray  # returned weights, nonzero or not
    error: Optional[str] = None


@dataclass
class Pass:
    wall_s: float  # without the host-speed probes
    runs: List[RunOutput]
    digest: str
    bytes_written: int = 0
    failures: List[str] = field(default_factory=list)  # checks on the pass as a whole
    probe_s: List[float] = field(default_factory=list)  # one host probe before each run


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that shares no code with atomdfo.

    It is the mix a solver run spends its time in: interpreter steps and
    numpy calls on 10-vectors. Plain passes run it before every solver run,
    so its time tracks how fast the shared host runs while the runs are timed.
    """
    start = perf_counter()
    total, seen = 0.0, {}
    for i in range(PROBE_STEPS):
        y = _PROBE_X * 1.0001 + i
        total += float(y @ _PROBE_X)
        seen[i % 7] = total
    return perf_counter() - start


def _failed_run(pid, name, solver, message) -> RunOutput:
    empty = np.zeros(0)
    return RunOutput(pid, name, solver, 0.0, empty, empty, np.nan, empty, empty, message)


# --- library workloads -------------------------------------------------------


def api_pass(s: Setup, solve: Callable = ord_solve, probe: bool = True) -> Pass:
    """Solve every problem with ``solve`` through the public library API,
    with a host probe before each run if ``probe``."""
    raw, probe_s = [], []
    start = perf_counter()
    for problem in s.problems:
        if probe:
            probe_s.append(host_probe())
        func = bench.make_test_function(problem.function_name, problem.n)
        objective = BudgetedObjective(func.value, budget=problem.budget)
        t0 = perf_counter()
        try:
            result = solve(objective, problem.atoms, OrdConfig(rng_seed=problem.seed),
                           problem.start_id)
        except Exception as exc:  # a failed run is counted, the pass goes on
            result = exc
        raw.append((problem, objective, result, perf_counter() - t0))
    wall = perf_counter() - start - sum(probe_s)

    runs = []
    digest = hashlib.sha256()
    for problem, objective, result, seconds in raw:
        pid = problem.problem_id
        if isinstance(result, Exception):
            runs.append(_failed_run(pid, problem.function_name, "ord", repr(result)))
            continue
        trace = np.array(objective.trace, dtype=float).reshape(-1, 3)
        weights = np.asarray(result.weights.w, dtype=float)
        run = RunOutput(pid, problem.function_name, "ord", seconds,
                        trace[:, 1], trace[:, 2], float(result.f),
                        np.asarray(result.x, dtype=float), weights)
        if result.evals != objective.eval_count:
            run.error = (f"result.evals={result.evals} but the objective "
                         f"counted {objective.eval_count}")
        runs.append(run)
        digest.update(pid.encode())
        digest.update(run.values.tobytes())
        digest.update(np.float64(run.f).tobytes())
        digest.update(np.asarray(result.weights.ids, dtype=np.int64).tobytes())
        digest.update(weights.tobytes())
    return Pass(wall, runs, digest.hexdigest(), probe_s=probe_s)


# --- the CLI workload --------------------------------------------------------

TRACE_HEADER = ["eval", "f", "best_f"]


def cli_pass(s: Setup, targets: Optional[list] = None) -> Pass:
    """``atomdfo run --jobs 1`` then ``atomdfo profile``, in this process.

    The solver entry points in ``atomdfo.cli`` are wrapped to keep each
    run's result and time for the checks; ``targets`` adds the tracer's
    wrappers underneath; a traced pass runs no host probes.
    """
    traces = s.work_dir / "traces"
    profiles_dir = s.work_dir / "profiles"
    for d in (traces, profiles_dir):
        shutil.rmtree(d, ignore_errors=True)

    captured: Dict[Tuple[str, str], tuple] = {}
    current: List[Tuple[str, str]] = []
    probe_s: List[float] = []

    def keep_task(run_one):
        def wrapped(name, n, m, seed, solver, *rest):
            if targets is None:
                probe_s.append(host_probe())
            current[:] = [(problem_id(name, m, seed), solver)]
            return run_one(name, n, m, seed, solver, *rest)
        return wrapped

    def keep_result(solve):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            result = solve(*args, **kwargs)
            captured[current[0]] = (result, perf_counter() - t0)
            return result
        return wrapped

    capture = [
        (atomdfo.cli, "run_one", keep_task),
        (atomdfo.cli, "ord_solve", keep_result),
        (atomdfo.cli, "df_simplex_solve", keep_result),
    ]
    with tracing.patched((targets or []) + capture), contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        rc_run = atomdfo.cli.main(["run", "--config", str(s.manifest), "--out", str(traces),
                                   "--jobs", "1"])
        rc_profile = atomdfo.cli.main(["profile", "--traces", str(traces),
                                       "--out", str(profiles_dir)])
        wall = perf_counter() - start - sum(probe_s)

    out = Pass(wall, [], "", probe_s=probe_s)
    if rc_run != 0 or rc_profile != 0:
        out.failures.append(f"atomdfo run exited {rc_run}, atomdfo profile exited {rc_profile}")
    out.bytes_written = sum(p.stat().st_size for d in (traces, profiles_dir)
                            for p in d.iterdir())
    digest = hashlib.sha256()
    summary = _read_summary(traces / "summary.csv", out)
    expected = [(name, seed, solver) for name, seed in s.workload.problem_keys(s.seed)
                for solver in s.workload.solvers]
    if len(summary) != len(expected):
        out.failures.append(f"summary.csv has {len(summary)} rows for {len(expected)} runs")
    for name, seed, solver in expected:
        pid = problem_id(name, s.workload.m, seed)
        row = summary.get((pid, solver))
        path = traces / f"{pid}__{solver}.csv"
        if row is None or not path.is_file() or (pid, solver) not in captured:
            out.runs.append(_failed_run(pid, name, solver,
                                        "no summary row, trace file or result"))
            continue
        data = path.read_bytes()
        digest.update(path.name.encode())
        digest.update(data)
        result, seconds = captured[(pid, solver)]
        out.runs.append(_cli_run(pid, name, seed, solver, seconds, data, row, result))
    for key in sorted(summary):
        digest.update(",".join(summary[key]).encode())
    out.digest = digest.hexdigest()
    return out


def _read_summary(path: Path, out: Pass) -> Dict[Tuple[str, str], List[str]]:
    """Summary rows without the ``seconds`` column, keyed by (problem, solver)."""
    if not path.is_file():
        out.failures.append("no summary.csv")
        return {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][-1:] != ["seconds"]:
        out.failures.append(f"unexpected summary header {rows[:1]}")
        return {}
    body = {}
    for row in rows[1:]:
        if (row[0], row[1]) in body:
            out.failures.append(f"duplicate summary row for {row[0]} ({row[1]})")
        body[(row[0], row[1])] = row[:-1]
    return body


def _cli_run(pid, name, seed, solver, seconds, data: bytes, row, result) -> RunOutput:
    header, _, body = data.partition(b"\n")
    if header.decode().strip().split(",") != TRACE_HEADER or not body.strip():
        return _failed_run(pid, name, solver, f"bad header {header!r} or no rows")
    table = np.array(b",".join(body.split()).split(b","), dtype=float).reshape(-1, 3)
    if solver == "ord":
        weights, x = result.weights.w, result.x
    else:
        weights = result.y
        x = result.y @ bench.make_problem(name, N, int(row[3]), seed).atoms.atoms
    run = RunOutput(pid, name, solver, seconds, table[:, 1], table[:, 2],
                    float(result.f), np.asarray(x, dtype=float),
                    np.asarray(weights, dtype=float))
    if not np.array_equal(table[:, 0], np.arange(1, len(table) + 1)):
        run.error = "trace eval column is not 1..evals"
    elif int(row[6]) != len(table):
        run.error = f"summary says {row[6]} evaluations, trace has {len(table)}"
    elif row[5] != f"{result.f:.17g}":
        run.error = f"summary final_f {row[5]} is not the returned f {result.f!r}"
    return run


# --- checks ------------------------------------------------------------------


def check(run: RunOutput, functions: Dict[str, Callable]) -> Tuple[Optional[str], bool]:
    """(first failed output check or None, whether f(x) != f bitwise)."""
    if run.error is not None:
        return run.error, False
    w = run.weights
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
        return f"weights off the simplex (min {w.min()!r}, sum {w.sum()!r})", False
    if not 1 <= len(run.values) <= BUDGET:
        return f"{len(run.values)} evaluations for a budget of {BUDGET}", False
    if not np.array_equal(run.best, np.minimum.accumulate(run.values)):
        return "best-so-far trace is not the running minimum of the values", False
    f_x = functions[run.function](run.x)
    if abs(f_x - run.f) > F_REL_TOL * max(abs(f_x), abs(run.f)):
        return f"f(x) = {f_x!r} but the run returned f = {run.f!r}", True
    return None, f_x != run.f


def catalog() -> Dict[str, Callable]:
    return {name: bench.make_test_function(name, N).value for name in bench.FUNCTION_NAMES}


def sparsity(run: RunOutput, m: int) -> float:
    """Share of the m atoms that carry zero weight."""
    return 1.0 - int(np.sum(run.weights > ZERO_TOL)) / m


# --- traced passes -----------------------------------------------------------


def traced_pass(s: Setup, t: tracing.Tracer) -> Pass:
    targets = tracing.atomdfo_targets(t)
    if not s.workload.via_cli:
        with tracing.patched(targets):
            return api_pass(s, tracing.ord_solver(t, ord_solve, starts_run=True), probe=False)
    cli_spans = [
        (atomdfo.cli, "cmd_run", lambda f: t.span("cli.cmd_run", f)),
        (atomdfo.cli, "cmd_profile", lambda f: t.span("cli.cmd_profile", f)),
        (atomdfo.cli, "run_one", lambda f: t.span("cli.run_one", f, starts_run=True)),
        (atomdfo.cli, "load_run_records", lambda f: t.span("cli.load_run_records", f)),
        (atomdfo.profiles, "data_profile", lambda f: t.span("profiles.data_profile", f)),
        (atomdfo.profiles, "performance_profile",
         lambda f: t.span("profiles.performance_profile", f)),
        (atomdfo.cli, "ord_solve", lambda f: tracing.ord_solver(t, f, starts_run=False)),
        (atomdfo.cli, "df_simplex_solve",
         lambda f: t.span("dfsimplex.run", f, phase="dfsimplex")),
    ]
    return cli_pass(s, targets + cli_spans)
