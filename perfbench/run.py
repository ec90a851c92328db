#!/usr/bin/env python3
"""The atomdfo benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload paper-m200 --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload, one after another, each in a fresh
interpreter. Run from the root of a checkout; atomdfo is imported from ``src``. The run

* sets up several times in fresh interpreters and reports the median as
  ``setup_s`` (imports, problem generation, reference table);
* repeats whole passes over the workload for about ``--seconds`` seconds in
  this single process, with no worker pool;
* times a fixed host probe (``workloads.host_probe``) before every solver
  run, and reports the bounded solver timings rescaled to a host whose probe
  takes PROBE_REF_S, beside the raw ones: the shared host's speed drifts by
  20-35% between runs, far more than a regression bound;
* checks every run's output and that every pass has the same behaviour
  digest; with ``--trace 1`` it alternates plain and traced passes, and the
  traced digest must equal the plain one;
* prints a table of every metric with its unit, a run record, and, as the
  last line, one JSON object: end-to-end metrics with ``--trace 0`` and
  per-layer metrics with ``--trace 1``.

Outputs and caches go to ``perfbench/_work`` and ``perfbench/_cache``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import quality
import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SAMPLES = 5
# About the median time of workloads.host_probe on a 2.1 GHz Xeon host.
PROBE_REF_S = 2.0e-3
# Printed and recorded, but left out of the result line and BENCHMARK.json:
# the raw timings and the probe time drift with the shared host's speed, by
# more than any allowed bound between runs of the same code (their .host_norm
# forms are bounded instead); the quality metrics below are fixed by the
# seed, and between seeds they spread by 15-40% (75-150 problems per seed);
# failed_frac is 0 by design, so a relative bound cannot be put on it (the
# result line carries it as attempted and failed); the cli and profiles
# layers run on paper-m200 only.
TABLE_ONLY = {
    "wall_s", "evals_per_s", "run_ms.p50", "run_ms.p90", "host.probe_ms",
    "solved.tau1e-3", "solved.tau1e-5", "dp_area.tau1e-3", "failed_frac",
    "cli.run_one.self_s", "cli.cmd_run.self_s", "cli.load_run_records_s",
    "cli.bytes_written", "profiles.data_profile_s", "profiles.performance_profile_s",
}
SETUP_MARK = "setup-done-at"
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic clock, exit (used for setup_s)")
    return parser.parse_args(argv)


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to solve."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{child.stderr}")
        marks = [line for line in child.stdout.splitlines() if line.startswith(SETUP_MARK)]
        samples.append(float(marks[-1].split()[1]) - spawned)
    return samples


def run_passes(w, s, seconds: float, traced: bool):
    """Whole passes for about ``seconds``; with ``traced``, plain and traced alternate."""
    plain, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        if not traced or len(plain) <= len(traced_passes):
            p = w.cli_pass(s) if s.workload.via_cli else w.api_pass(s)
            plain.append(p)
        else:
            t = tracing.Tracer()
            p = w.traced_pass(s, t)
            traced_passes.append(p)
            tracers.append(t)
        last = max(last, p.wall_s)
        elapsed = time.perf_counter() - start
        enough = plain and (traced_passes or not traced)
        if enough and elapsed + last > seconds:
            return plain, traced_passes, tracers


def check_passes(w, passes, functions):
    """(attempted, failed, f-inexact ORD runs per pass, failure messages)."""
    attempted = failed = 0
    inexact, messages = [], []
    for p in passes:
        attempted += len(p.runs)
        messages += p.failures
        count = 0
        for run in p.runs:
            problem, not_exact = w.check(run, functions)
            count += not_exact and run.solver == "ord"
            if problem is not None:
                failed += 1
                messages.append(f"{run.problem_id} ({run.solver}): {problem}")
        inexact.append(count)
    return attempted, failed, inexact, messages


def timings(plain) -> dict:
    """Timing metrics of the plain passes, raw and host-normalised.

    The host's speed drifts by 20-35% over seconds to minutes, and the
    solver's times drift with it. Each plain pass runs a fixed host probe
    before every solver run, so the ``.host_norm`` timings rescale the pass's
    times by PROBE_REF_S / (the pass's mean probe time): seconds on a host
    whose probe takes PROBE_REF_S. A slower program still reads slower; a
    slower host does not. Each is the median over the passes.
    """
    scale = np.array([PROBE_REF_S / statistics.fmean(p.probe_s) for p in plain])
    run_s = np.array([[r.seconds for r in p.runs] for p in plain])
    wall_s = np.array([p.wall_s for p in plain])
    evals = sum(len(r.values) for r in plain[0].runs)
    metrics = {}
    for suffix, k in (("", np.ones_like(scale)), (".host_norm", scale)):
        runs_s = np.median(run_s * k[:, None], axis=0)
        metrics.update({
            f"wall_s{suffix}": (float(np.median(wall_s * k)), "s"),
            f"evals_per_s{suffix}": (float(np.median(evals / (run_s.sum(axis=1) * k))), "1/s"),
            f"run_ms.p50{suffix}": (float(np.percentile(runs_s, 50)) * 1e3, "ms"),
            f"run_ms.p90{suffix}": (float(np.percentile(runs_s, 90)) * 1e3, "ms"),
        })
    metrics["host.probe_ms"] = (statistics.median(t for p in plain for t in p.probe_s) * 1e3,
                                "ms")
    return metrics


def end_to_end(w, s, plain, setup_samples):
    """End-to-end metrics: timings over all plain passes, quality from the
    first (every pass has the same digest)."""
    first = plain[0]
    metrics = {"setup_s": (statistics.median(setup_samples), "s"), **timings(plain)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = s.reference
    if reference.complete(table, w.reference_problems(s.workload, s.seed)) and \
            s.seed != reference.FROZEN_SEED:
        reference.store(s.seed, table)
    # a failed run counts as unsolved
    histories = [quality.RunHistory.with_reference(w.N, r.best, table[r.problem_id])
                 if len(r.best) else quality.UNSOLVED
                 for r in first.runs]
    for label, tau in (("1e-1", 1e-1), ("1e-3", 1e-3), ("1e-5", 1e-5)):
        metrics[f"solved.tau{label}"] = (quality.solved(histories, tau), "fraction")
    metrics["dp_area.tau1e-3"] = (quality.dp_area(histories, 1e-3), "fraction")
    metrics["sparsity.mean"] = (float(np.mean([w.sparsity(r, s.workload.m)
                                               for r in first.runs])), "fraction")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, len(first.runs)


def per_layer(s, plain, traced, tracers, inexact):
    """Per-layer metrics of each traced pass, then the lower median over the
    traced passes (counts repeat exactly and stay whole numbers)."""
    per_pass = [layer_metrics(s, p, t) for p, t in zip(traced, tracers)]
    metrics = {name: (statistics.median_low(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["ord.result_f_inexact"] = (inexact, "count")
    overhead = statistics.median(p.wall_s for p in traced) / \
        statistics.median(p.wall_s for p in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics


def layer_metrics(s, p, t) -> dict:
    layers = t.layers()

    def get(name):
        return layers.get(name, tracing.LayerTimes())

    def ratio(a, b):
        return a / b if b else 0.0

    c, phase = t.counts, t.evals_by_phase
    blackbox, objective = get("bench.blackbox"), get("core.objective")
    search, iterate = get("linesearch"), get("dfsimplex.iterate")
    solve, refine = get("ord.solve"), get("ord.refine")
    gradient, drop = get("ord.gradient"), get("ord.drop")
    probes = t.evals_by_span["linesearch"]
    evals = objective.calls - c["core.objective.stops"]
    ord_evals = sum(phase[k] for k in ("start", "inner", "refine", "gradient"))
    solver_s = solve.total_s + get("dfsimplex.run").total_s
    make_problem_s = get("bench.make_problem").total_s if s.workload.via_cli else s.make_problem_s
    m = {
        "bench.blackbox.calls": (blackbox.calls, "count"),
        "bench.blackbox.us_per_call": (ratio(blackbox.total_s, blackbox.calls) * 1e6, "us"),
        "bench.make_problem_s": (make_problem_s, "s"),
        "core.objective.self_us_per_call": (ratio(objective.self_s, objective.calls) * 1e6, "us"),
        "core.objective.budget_stops": (c["core.objective.stops"], "count"),
        "linesearch.calls": (search.calls, "count"),
        "linesearch.probes": (probes, "count"),
        "linesearch.accept_ratio": (ratio(c["linesearch.accepted"], search.calls), "fraction"),
        "linesearch.self_us_per_probe": (ratio(search.self_s, probes) * 1e6, "us"),
        "dfsimplex.solves": (get("dfsimplex.solve").calls + get("dfsimplex.run").calls, "count"),
        "dfsimplex.iterations": (iterate.calls, "count"),
        "dfsimplex.mbar.mean": (ratio(c["dfsimplex.mbar"], iterate.calls), "atoms"),
        "dfsimplex.self_us_per_iter": (ratio(iterate.self_s, iterate.calls) * 1e6, "us"),
        "ord.iterations": (c["ord.iterations"], "count"),
        "ord.active_size.mean": (ratio(c["ord.active_size"], c["ord.iterations"]), "atoms"),
        "ord.self_us_per_iter": (ratio(solve.self_s, c["ord.iterations"]) * 1e6, "us"),
        "ord.refine.calls": (refine.calls, "count"),
        "ord.refine.candidates": (c["ord.refine.candidates"], "count"),
        "ord.refine.success_ratio": (ratio(c["ord.refine.found"], refine.calls), "fraction"),
        "ord.refine.yield": (ratio(c["ord.refine.found"], c["ord.refine.candidates"]),
                             "fraction"),
        "ord.refine.self_us_per_candidate": (ratio(refine.self_s, c["ord.refine.candidates"])
                                             * 1e6, "us"),
        "ord.gradient.calls": (gradient.calls, "count"),
        "ord.gradient.fallbacks": (c["ord.gradient.raised"], "count"),
        "ord.gradient.self_us_per_call": (ratio(gradient.self_s, gradient.calls) * 1e6, "us"),
        "ord.drop.self_us_per_call": (ratio(drop.self_s, drop.calls) * 1e6, "us"),
        "ord.drop.atoms": (c["ord.drop.atoms"], "count"),
        "ord.reexpress.self_us_per_call": (ratio(get("ord.reexpress").self_s,
                                                 get("ord.reexpress").calls) * 1e6, "us"),
        "ord.evals.start": (phase["start"], "count"),
        "ord.evals.inner": (phase["inner"], "count"),
        "ord.evals.refine": (phase["refine"], "count"),
        "ord.evals.gradient": (phase["gradient"], "count"),
        "ord.evals.refine_share": (ratio(phase["refine"], ord_evals), "fraction"),
        "solver.overhead_us_per_eval": (ratio(solver_s - objective.total_s, evals) * 1e6, "us"),
        "trace.remainder_s": (p.wall_s - t.top_level_s(), "s"),
    }
    if s.workload.via_cli:
        m.update({
            "cli.run_one.self_s": (get("cli.run_one").self_s, "s"),
            "cli.cmd_run.self_s": (get("cli.cmd_run").self_s, "s"),
            "cli.load_run_records_s": (get("cli.load_run_records").total_s, "s"),
            "cli.bytes_written": (p.bytes_written, "bytes"),
            "profiles.data_profile_s": (get("profiles.data_profile").total_s, "s"),
            "profiles.performance_profile_s": (get("profiles.performance_profile").total_s, "s"),
        })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "atomdfo" / "__init__.py").is_file():
        print(f"error: no atomdfo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w

    if args.workload == "all" and not args.setup_only:
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode
                 for name in w.WORKLOADS]
        return max(codes)
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(w.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = w.WORKLOADS[args.workload]
    work_dir = WORK / f"{workload.name}-seed{args.seed}"
    if args.setup_only:
        w.setup(workload, args.seed, work_dir)
        print(SETUP_MARK, repr(time.monotonic()))
        return 0

    import atomdfo
    import scipy

    load_before = os.getloadavg()
    setup_samples = measure_setup(args) if not args.trace else []
    s = w.setup(workload, args.seed, work_dir)
    plain, traced, tracers = run_passes(w, s, args.seconds, bool(args.trace))
    functions = w.catalog()
    attempted, failed, inexact, messages = check_passes(w, plain + traced, functions)
    digests = sorted({p.digest for p in plain + traced})
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if len(digests) != 1:
        print(f"behaviour digest differs between passes: {digests}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(s, plain, traced, tracers, inexact[len(plain)])
        tracers[-1].write_spans(work_dir / "spans.csv")
        runs = len(plain[0].runs)
    else:
        metrics, runs = end_to_end(w, s, plain, setup_samples)
    correct = failed == 0 and len(digests) == 1 and not any(p.failures for p in plain + traced)

    if not args.trace:
        metrics["failed_frac"] = (failed / attempted, "fraction")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} plain + {len(traced)} traced passes of {runs} runs each")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"  run_ms samples: {runs} runs, each the median of {len(plain)} passes")
    print(f"  behaviour digest: {' != '.join(digests)}")
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "digest": digests[0] if len(digests) == 1 else digests,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "atomdfo": atomdfo.__version__,
        "cpu_count": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "setup_samples_s": setup_samples,
        "pass_walls_s": [p.wall_s for p in plain], "traced_walls_s": [p.wall_s for p in traced],
        "pass_probe_mean_ms": [statistics.fmean(p.probe_s) * 1e3 for p in plain],
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work_dir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("run record:", json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in TABLE_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
