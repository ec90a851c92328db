"""Command line entry point: run benchmark suites, compute profiles, verify.

Exit codes: 0 ok, 1 a failed run (`run`) or a failed property (`verify`),
2 usage/config error. `profile` leaves out every problem with a failed run.
Runs are deterministic under the manifest; wall time is the only
non-reproducible output column.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bench, profiles
from .core import (
    BudgetedObjective,
    DfSimplexConfig,
    DropRule,
    OrdConfig,
    ZERO_TOL,
)
from .analysis import run_property_suite
from .dfsimplex import df_simplex_solve
from .ord import ord_solve

SOLVER_NAMES = ("ord", "dfsimplex")
MANIFEST_KEYS = {"pairs", "functions", "seeds", "solvers", "budget_factor", "ord", "dfsimplex"}

TRACE_HEADER = ("eval", "f", "best_f")
SUMMARY_HEADER = (
    "problem",
    "solver",
    "n",
    "m",
    "seed",
    "final_f",
    "evals",
    "sparsity",
    "seconds",
)


class UsageError(Exception):
    """Bad manifest or arguments; maps to exit code 2."""


def _ord_config(options: Dict) -> OrdConfig:
    opts = dict(options)
    if "rng_seed" in opts:
        raise ValueError("ord.rng_seed is not an option: each run uses its manifest seed")
    inner = DfSimplexConfig(**opts.pop("inner", {}))
    if "drop_rule" in opts:
        opts["drop_rule"] = DropRule(opts["drop_rule"])
    return OrdConfig(inner=inner, **opts)


@dataclass(frozen=True)
class SuiteConfig:
    """A benchmark suite: (n, m) grid x functions x seeds x solvers."""

    pairs: Tuple[Tuple[int, int], ...]
    functions: Tuple[str, ...] = bench.FUNCTION_NAMES
    seeds: Tuple[int, ...] = (0,)
    solvers: Tuple[str, ...] = ("ord",)
    budget_factor: int = 100
    ord_config: OrdConfig = field(default_factory=OrdConfig)
    dfsimplex_config: DfSimplexConfig = field(default_factory=DfSimplexConfig)

    def __post_init__(self):
        for key in ("pairs", "functions", "seeds", "solvers"):
            if not getattr(self, key):
                raise UsageError(f"suite needs a nonempty {key!r} list")
        for n, m in self.pairs:
            if n < 1 or m < 1:
                raise UsageError(f"invalid pair (n={n}, m={m})")
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise UsageError(f"unknown solver(s) {unknown}; known: {SOLVER_NAMES}")
        for name in self.functions:
            if name not in bench.FUNCTION_NAMES:
                raise UsageError(f"unknown function {name!r}")
            for n, _ in self.pairs:
                if not bench.valid_dimension(name, n):
                    raise UsageError(f"function {name!r} does not accept n={n}")
        if self.budget_factor < 1:
            raise UsageError("budget_factor must be positive")

    @classmethod
    def from_json(cls, path) -> "SuiteConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
        try:
            unknown = sorted(set(raw) - MANIFEST_KEYS)
            if unknown:
                raise UsageError(f"bad manifest {path}: unknown keys {unknown}")
            return cls(
                pairs=tuple((int(n), int(m)) for n, m in raw["pairs"]),
                functions=tuple(raw.get("functions", bench.FUNCTION_NAMES)),
                seeds=tuple(int(s) for s in raw.get("seeds", [0])),
                solvers=tuple(raw.get("solvers", ["ord"])),
                budget_factor=int(raw.get("budget_factor", 100)),
                ord_config=_ord_config(raw.get("ord", {})),
                dfsimplex_config=DfSimplexConfig(**raw.get("dfsimplex", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad manifest {path}: {exc}") from exc


def run_one(
    name: str,
    n: int,
    m: int,
    seed: int,
    solver: str,
    budget_factor: int = 100,
    ord_config: OrdConfig = OrdConfig(),
    dfsimplex_config: DfSimplexConfig = DfSimplexConfig(),
):
    """One deterministic (problem, solver) run.

    Returns (problem id, solver, trace CSV text, summary row values);
    picklable arguments so suites can fan out to worker processes.
    """
    problem = bench.make_problem(name, n, m, seed, budget_factor)
    func = bench.make_test_function(name, n)
    objective = BudgetedObjective(func.value, budget=problem.budget)
    start = time.perf_counter()
    if solver == "ord":
        cfg = replace(ord_config, rng_seed=seed)
        result = ord_solve(objective, problem.atoms, cfg, problem.start_id)
        final_f = result.f
        weights = np.zeros(m)
        w = result.weights
        weights[list(w.ids)] = w.w
    elif solver == "dfsimplex":
        y0 = np.zeros(m)
        y0[problem.start_id] = 1.0
        phi = lambda yv: objective(yv @ problem.atoms.atoms)  # noqa: E731
        result = df_simplex_solve(phi, y0, dfsimplex_config)
        final_f = result.f
        weights = result.y
    else:
        raise UsageError(f"unknown solver {solver!r}")
    seconds = time.perf_counter() - start
    sparsity = float(np.mean(weights <= ZERO_TOL))
    summary = (
        problem.problem_id,
        solver,
        n,
        m,
        seed,
        f"{final_f:.17g}",
        objective.eval_count,
        f"{sparsity:.17g}",
        f"{seconds:.6f}",
    )
    return problem.problem_id, solver, trace_csv(objective.values), summary


def trace_csv(values: Sequence[float]) -> str:
    """The trace CSV of one run's values: header, then one `eval,f,best_f` row each.

    The bytes csv.writer writes for BudgetedObjective.trace, rows ending in
    CRLF, with each value formatted once: best_f repeats the text of the
    running minimum, which keeps the earlier value on a tie.
    """
    lines = [",".join(TRACE_HEADER)]
    best = best_text = None
    for k, value in enumerate(values, 1):
        text = f"{value:.17g}"
        if best is None or value < best:
            best, best_text = value, text
        lines.append(f"{k},{text},{best_text}")
    lines.append("")
    return "\r\n".join(lines)


def _run_task(task):
    try:
        return ("ok", run_one(*task))
    except Exception as exc:  # recorded per-row by cmd_run; the suite continues
        return ("error", task, repr(exc))


def _outcomes(tasks, workers: int):
    """Each task's outcome, in task order, as soon as it is ready.

    Consumed lazily, so a suite holds the trace rows of the runs not yet
    written, not of every run.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_task, tasks)
    else:
        yield from map(_run_task, tasks)


def cmd_run(manifest_path, out_dir, jobs: int = 1) -> int:
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    suite = SuiteConfig.from_json(manifest_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # seed before function: the runs on one atom cloud are consecutive, so
    # bench's one-entry cloud cache generates each cloud once
    tasks = [
        (name, n, m, seed, solver, suite.budget_factor, suite.ord_config, suite.dfsimplex_config)
        for (n, m) in suite.pairs
        for seed in suite.seeds
        for name in suite.functions
        for solver in suite.solvers
    ]
    # summary.csv is written last, so its presence marks a complete suite
    (out / "summary.csv").unlink(missing_ok=True)

    summary_rows = []
    n_failures = 0
    n_traces = 0
    for outcome in _outcomes(tasks, min(jobs, len(tasks))):
        if outcome[0] == "ok":
            problem_id, solver, trace, summary = outcome[1]
            with open(_trace_path(out, problem_id, solver), "w", newline="") as fh:
                fh.write(trace)
            summary_rows.append(summary)
            n_traces += 1
        else:
            _, task, message = outcome
            name, n, m, seed, solver = task[:5]
            problem_id = bench.problem_id(name, n, m, seed)
            print(f"run failed for {problem_id} ({solver}): {message}", file=sys.stderr)
            _trace_path(out, problem_id, solver).unlink(missing_ok=True)
            summary_rows.append((problem_id, solver, n, m, seed, "nan", 0, "nan", "nan"))
            n_failures += 1
    summary_rows.sort(key=lambda row: (row[0], row[1]))
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows)
    print(f"wrote {n_traces} trace files + summary.csv to {out}")
    return 0 if n_failures == 0 else 1


def _trace_path(out: Path, problem_id: str, solver: str) -> Path:
    return out / f"{problem_id}__{solver}.csv"


def _read_best_f(trace_path: Path) -> np.ndarray:
    """The best_f column of one trace CSV."""
    if not trace_path.exists():
        raise UsageError(f"missing trace file {trace_path}")
    header, _, body = trace_path.read_text().partition("\n")
    if tuple(header.split(",")) != TRACE_HEADER:
        raise UsageError(f"{trace_path}: expected header {TRACE_HEADER}")
    if not body.strip():  # np.loadtxt only warns on an empty body
        raise UsageError(f"{trace_path}: empty trace")
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", usecols=2, ndmin=1)
    except ValueError as exc:
        raise UsageError(f"{trace_path}: bad row: {exc}") from exc


def load_run_records(trace_dir) -> List[profiles.RunRecord]:
    """Rebuild profile records from a cmd_run output directory.

    A problem on which any run failed is left out for every solver, since
    the profiles compare all solvers on each problem.
    """
    trace_dir = Path(trace_dir)
    summary_path = trace_dir / "summary.csv"
    if not summary_path.exists():
        raise UsageError(f"no summary.csv in {trace_dir}")
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed: Dict[str, List[str]] = {}
    for row in rows:
        if row["final_f"] == "nan":
            failed.setdefault(row["problem"], []).append(row["solver"])
    for problem_id, solvers in failed.items():
        print(f"skipping {problem_id}: failed run of {', '.join(solvers)}", file=sys.stderr)
    records = []
    for row in rows:
        if row["problem"] in failed:
            continue
        best = _read_best_f(_trace_path(trace_dir, row["problem"], row["solver"]))
        records.append(
            profiles.RunRecord(
                problem_id=row["problem"],
                solver_id=row["solver"],
                n_p=int(row["n"]),
                history=best,
                f0=float(best[0]),
            )
        )
    if not records:
        raise UsageError(f"{trace_dir} contains no runs")
    return records


def cmd_profile(trace_dir, out_dir, taus: Sequence[float]) -> int:
    records = load_run_records(trace_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tau in taus:
        data = profiles.data_profile(records, tau)
        perf = profiles.performance_profile(records, tau)
        profiles.write_curves_csv(out / f"data_profile_tau{tau:g}.csv", data, profiles.DEFAULT_KAPPAS)
        profiles.write_curves_csv(out / f"performance_profile_tau{tau:g}.csv", perf, profiles.DEFAULT_IOTAS)
    print(f"wrote {2 * len(taus)} profile files to {out}")
    return 0


def cmd_verify(level: str, seed: int) -> int:
    reports = run_property_suite(level=level, seed=seed)
    for report in reports:
        print(report.line())
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} properties passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomdfo",
        description="Derivative-free minimization over convex hulls of atom sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark suite, writing trace CSVs")
    p_run.add_argument("--config", required=True, help="suite manifest (JSON)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")

    p_prof = sub.add_parser("profile", help="compute data/performance profiles")
    p_prof.add_argument("--traces", required=True, help="directory written by `run`")
    p_prof.add_argument("--out", required=True, help="output directory")
    p_prof.add_argument(
        "--tau",
        type=float,
        action="append",
        default=None,
        help="accuracy level(s); repeatable (default: 1e-1, 1e-3, 1e-5)",
    )

    p_ver = sub.add_parser("verify", help="run the randomized property suites")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, jobs=args.jobs)
        if args.command == "profile":
            taus = args.tau if args.tau else list(profiles.DEFAULT_TAUS)
            return cmd_profile(args.traces, args.out, taus)
        if args.command == "verify":
            return cmd_verify(args.level, args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces a command
