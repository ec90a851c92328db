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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bench, profiles
from .core import BudgetedObjective, OrdConfig, ZERO_TOL, require_integer, weights_point
from .dfsimplex import df_simplex_solve
from .ord import EPSILON, ord_solve

SOLVER_NAMES = ("ord", "dfsimplex")

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


def _integer_flag(flag: str, value, low: int) -> int:
    """``value`` by the library's integer rule, core.require_integer, else UsageError."""
    try:
        return require_integer(flag, value, low)
    except ValueError:
        raise UsageError(f"{flag} must be at least {low} and an integer, got {value!r}") from None


def _pair(entry) -> Tuple:
    if not isinstance(entry, list):
        raise ValueError(f"invalid pair {entry!r}: a pair is [n, m]")
    return tuple(entry)


# how from_json turns a manifest value into its field; the other lists become tuples
_FROM_JSON = {
    "pairs": lambda pairs: tuple(map(_pair, pairs)),
    "budget_factor": lambda factor: factor,
}


@dataclass(frozen=True)
class SuiteConfig:
    """A benchmark suite: (n, m) grid x functions x seeds x solvers.

    The field names are the manifest's keys and the field defaults its only
    defaults. Every list names each entry once; its integers follow ``require_integer``.
    """

    pairs: Tuple[Tuple[int, int], ...]
    functions: Tuple[str, ...] = bench.FUNCTION_NAMES
    seeds: Tuple[int, ...] = (0,)
    solvers: Tuple[str, ...] = ("ord",)
    budget_factor: int = 100

    def __post_init__(self):
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise UsageError(f"unknown solver(s) {unknown}; known: {SOLVER_NAMES}")
        # require_integer and valid_dimension (unknown names too) raise ValueError
        try:
            for pair in self.pairs:
                if len(pair) != 2:
                    raise ValueError(f"invalid pair {list(pair)}: a pair is [n, m]")
                for label, v in zip(("n", "m"), pair):
                    require_integer(f"{label} of pair {list(pair)}", v, 1)
            for seed in self.seeds:
                require_integer("seed", seed)
            require_integer("budget_factor", self.budget_factor, 1)
            for name in self.functions:
                for n, _ in self.pairs:
                    if not bench.valid_dimension(name, n):
                        raise ValueError(f"function {name!r} does not accept n={n}")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # every entry is hashable once the checks above have passed
        for key in ("pairs", "functions", "seeds", "solvers"):
            values = getattr(self, key)
            if not values:
                raise UsageError(f"suite needs a nonempty {key!r} list")
            if len(set(values)) < len(values):
                raise UsageError(f"{key!r} names an entry more than once: {list(values)}")

    @classmethod
    def from_json(cls, path) -> "SuiteConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"bad manifest {path}: must be a JSON object, got {raw!r}")
        try:
            unknown = sorted(set(raw) - {f.name for f in fields(cls)})
            if unknown:
                raise UsageError(f"bad manifest {path}: unknown keys {unknown}")
            for key in ("pairs", "functions", "seeds", "solvers"):
                if not isinstance(raw.get(key, []), list):
                    raise UsageError(f"bad manifest {path}: {key!r} must be a JSON list, got {raw[key]!r}")
            return cls(**{key: _FROM_JSON.get(key, tuple)(value) for key, value in raw.items()})
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad manifest {path}: {exc}") from exc


def run_one(name: str, n: int, m: int, seed: int, solver: str, suite: SuiteConfig):
    """One deterministic (problem, solver) run of a suite.

    Returns the trace CSV text and the summary row's last four columns,
    (final_f, evals, sparsity, seconds); picklable arguments so suites can
    fan out to worker processes.
    """
    problem = bench.make_problem(name, n, m, seed, suite.budget_factor)
    func = bench.make_test_function(name, n)
    objective = BudgetedObjective(func.value, budget=problem.budget)
    start = time.perf_counter()
    if solver == "ord":
        result = ord_solve(objective, problem.atoms, OrdConfig(rng_seed=seed), problem.start_id)
        weights = np.zeros(m)
        weights[list(result.weights.ids)] = result.weights.w
    elif solver == "dfsimplex":
        y0 = np.zeros(m)
        y0[problem.start_id] = 1.0
        phi = lambda yv: objective(weights_point(yv, problem.atoms.atoms))  # noqa: E731
        # one final tolerance for both solvers
        result = df_simplex_solve(phi, y0, EPSILON)
        weights = result.y
    else:
        raise UsageError(f"unknown solver {solver!r}")
    seconds = time.perf_counter() - start
    sparsity = float(np.mean(weights <= ZERO_TOL))
    tail = (f"{result.f:.17g}", objective.eval_count, f"{sparsity:.17g}", f"{seconds:.6f}")
    return trace_csv(objective.trace), tail


def trace_csv(trace: Sequence[Tuple[int, float, float]]) -> str:
    """The trace CSV of BudgetedObjective.trace rows: header, then `eval,f,best_f` rows.

    The bytes csv.writer writes for those rows, ending in CRLF, with each
    value formatted once: best_f repeats the text of f on the row where the
    running minimum last changed.
    """
    lines = [",".join(TRACE_HEADER)]
    best = best_text = None
    for k, value, best_f in trace:
        text = f"{value:.17g}"
        if best_f != best:
            best, best_text = best_f, text
        lines.append(f"{k},{text},{best_text}")
    lines.append("")
    return "\r\n".join(lines)


def _run_task(task):
    """run_one(*task), or (None, the exception's repr) when it raises."""
    try:
        return run_one(*task)
    except Exception as exc:  # recorded per-row by cmd_run; the suite continues
        return None, repr(exc)


def _outcomes(tasks, workers: int):
    """Each task's outcome, in task order, as soon as it is ready.

    Consumed lazily, so a suite holds the trace rows of the runs not yet
    written, not of every run.
    """
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which --jobs 1 never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_task, tasks)
    else:
        yield from map(_run_task, tasks)


def _make_out(out_dir) -> Path:
    """The --out directory, made with its parents if missing, else UsageError."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make --out {out_dir} a directory: {exc}") from exc
    return Path(out_dir)


def cmd_run(manifest_path, out_dir, jobs: int = 1) -> int:
    jobs = _integer_flag("--jobs", jobs, 1)
    suite = SuiteConfig.from_json(manifest_path)
    out = _make_out(out_dir)
    # seed before function: the runs on one atom cloud are consecutive, so
    # bench's one-entry cloud cache generates each cloud once
    tasks = [
        (name, n, m, seed, solver, suite)
        for (n, m) in suite.pairs
        for seed in suite.seeds
        for name in suite.functions
        for solver in suite.solvers
    ]
    # summary.csv is written last, so its presence marks a complete suite
    (out / "summary.csv").unlink(missing_ok=True)

    summary_rows = []
    n_failures = 0
    workers = min(jobs, len(tasks))
    for (name, n, m, seed, solver, _), (trace, tail) in zip(tasks, _outcomes(tasks, workers)):
        problem_id = bench.problem_id(name, n, m, seed)
        path = _trace_path(out, problem_id, solver)
        if trace is None:  # the run raised, and tail is the exception's repr
            print(f"run failed for {problem_id} ({solver}): {tail}", file=sys.stderr)
            path.unlink(missing_ok=True)
            tail = ("nan", 0, "nan", "nan")
            n_failures += 1
        else:
            with open(path, "w", newline="") as fh:
                fh.write(trace)
        summary_rows.append((problem_id, solver, n, m, seed) + tail)
    summary_rows.sort(key=lambda row: (row[0], row[1]))
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows)
    print(f"wrote {len(tasks) - n_failures} trace files + summary.csv to {out}")
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
        reader = csv.DictReader(fh)
        rows = list(reader)
    if tuple(reader.fieldnames or ()) != SUMMARY_HEADER:
        raise UsageError(f"{summary_path}: expected header {SUMMARY_HEADER}")
    # DictReader fills a short row with None and files a long row's extras under None
    ragged = [k for k, row in enumerate(rows, 2) if None in row or None in row.values()]
    if ragged:
        raise UsageError(f"{summary_path}: row {ragged[0]} does not have {len(SUMMARY_HEADER)} fields")
    # the profiles compare one run of every solver on every problem
    problems = sorted({row["problem"] for row in rows})
    solvers = sorted({row["solver"] for row in rows})
    if sorted((r["problem"], r["solver"]) for r in rows) != [(p, s) for p in problems for s in solvers]:
        raise UsageError(f"{summary_path}: not one row for each problem and solver {solvers}")
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
        path = _trace_path(trace_dir, row["problem"], row["solver"])
        best = _read_best_f(path)
        try:
            record = profiles.RunRecord(row["problem"], row["solver"], int(row["n"]), best, float(best[0]))
        except ValueError as exc:  # a best_f column that rises or is not finite
            raise UsageError(f"{path}: {exc}") from exc
        records.append(record)
    if not records:
        raise UsageError(f"{trace_dir} contains no runs")
    return records


def cmd_profile(trace_dir, out_dir, taus: Sequence[float]) -> int:
    bad = [tau for tau in taus if not 0.0 < tau < 1.0]
    if bad:
        raise UsageError(f"--tau must be in (0, 1), got {bad}")
    # each tau's files are named by its %g text, so that text must differ between taus
    names = [f"{tau:g}" for tau in taus]
    if len(set(names)) < len(names):
        raise UsageError(f"--tau names a value more than once: {names}")
    records = load_run_records(trace_dir)
    out = _make_out(out_dir)
    for tau in taus:
        data = profiles.data_profile(records, tau)
        perf = profiles.performance_profile(records, tau)
        profiles.write_curves_csv(out / f"data_profile_tau{tau:g}.csv", data, profiles.DEFAULT_KAPPAS)
        profiles.write_curves_csv(out / f"performance_profile_tau{tau:g}.csv", perf, profiles.DEFAULT_IOTAS)
    print(f"wrote {2 * len(taus)} profile files to {out}")
    return 0


def cmd_verify(level: str, seed: int) -> int:
    seed = _integer_flag("--seed", seed, 0)
    # imported here: only verify needs the property suites
    from .analysis import run_property_suite

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
