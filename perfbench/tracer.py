"""In-memory spans around atomdfo's public names, for the traced runs.

A traced run swaps module attributes for timing wrappers. Python resolves a
call through the namespace of the module that makes it, so each name is
patched where it is looked up (``atomdfo.ord.refine_phase``, not only where
it is defined). Coarse boundaries record one span each: name, start, end,
parent span and run id. Per-evaluation boundaries (the objective wrapper and
the catalog black box) keep aggregated counts and times instead. A span's
self time is its duration minus the time its children cover.
"""
from __future__ import annotations

import contextlib
import csv
from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class LayerTimes:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans and counters; one instance per traced pass."""

    def __init__(self):
        # (span id, name, start, end, parent id or -1, run id, child seconds)
        self.spans: List[Tuple[int, str, float, float, int, int, float]] = []
        # aggregated boundaries: name -> [calls, total seconds, child seconds]
        self.leaves: Dict[str, list] = {}
        self.counts: Counter = Counter()
        # evaluations by the phase and by the innermost span that enclose them
        self.evals_by_phase: Counter = Counter()
        self.evals_by_span: Counter = Counter()
        # open frames: [span id, name, phase, child seconds]
        self._stack: List[list] = []
        self._next_id = 0
        self._runs = 0
        self.run_id = -1

    def span(self, name: str, fn: Callable, phase: Optional[str] = None,
             on_return: Optional[Callable] = None, starts_run: bool = False) -> Callable:
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``phase`` labels the evaluations made inside the span (children
        inherit it); ``on_return(args, result)`` updates counters. A span
        with ``starts_run`` is one solver run: it and its children carry a
        fresh run id, and spans outside any run carry -1.
        """
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer_run = self.run_id
            if starts_run:
                self.run_id = self._runs
                self._runs += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, phase or (parent[2] if parent else None), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, out)
                return out
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[3] += end - start
                spans.append((span_id, name, start, end,
                              parent[0] if parent else -1, self.run_id, frame[3]))
                self.run_id = outer_run

        return traced

    def leaf(self, name: str, fn: Callable, evaluation: Optional[type] = None) -> Callable:
        """Wrap a per-evaluation boundary with aggregated counts and times.

        When ``evaluation`` is an exception type, a call that returns counts
        as one evaluation of the enclosing span and phase, and a call that
        raises that type counts as ``<name>.stops``.
        """
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0])
        stack, counts = self._stack, self.counts
        by_phase, by_span = self.evals_by_phase, self.evals_by_span

        def timed(*args):
            parent = stack[-1] if stack else None
            frame = [-1, name, parent[2] if parent else None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args)
            except BaseException as exc:
                if evaluation is not None and isinstance(exc, evaluation):
                    counts[name + ".stops"] += 1
                raise
            else:
                if evaluation is not None:
                    by_phase[frame[2]] += 1
                    by_span[parent[1] if parent else None] += 1
                return out
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[3] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[3]

        return timed

    def layers(self) -> Dict[str, LayerTimes]:
        """Calls, total and self time for every span and leaf name."""
        out: Dict[str, LayerTimes] = {}
        for _, name, start, end, _, _, child in self.spans:
            times = out.setdefault(name, LayerTimes())
            times.calls += 1
            times.total_s += end - start
            times.self_s += end - start - child
        for name, (calls, total, child) in self.leaves.items():
            out[name] = LayerTimes(calls, total, total - child)
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(end - start for _, _, start, end, parent, _, _ in self.spans if parent < 0)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "run", "self_s"])
            for span_id, name, start, end, parent, run, child in self.spans:
                writer.writerow([span_id, name, f"{start:.9f}", f"{end:.9f}", parent, run,
                                 f"{end - start - child:.9f}"])


@contextlib.contextmanager
def patched(targets: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``obj.attr = make(original)`` for each target; restore on exit."""
    saved = []
    try:
        for obj, attr, make in targets:
            original = getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def atomdfo_targets(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Every library boundary the traced runs time, named by layer."""
    import atomdfo.bench
    import atomdfo.core
    import atomdfo.dfsimplex
    import atomdfo.ord

    counts = tracer.counts

    def linesearch_done(args, out):
        counts["linesearch.accepted"] += out.alpha > 0.0

    def iterate_called(args, out):
        counts["dfsimplex.mbar"] += len(args[0].y)

    def refine_done(args, out):
        counts["ord.refine.candidates"] += out.candidates_tried
        counts["ord.refine.found"] += out.found

    def drop_done(args, out):
        counts["ord.drop.atoms"] += len(out)

    def make_test_function(original):
        def traced(name, n):
            func = original(name, n)
            return replace(func, value=tracer.leaf("bench.blackbox", func.value))
        return traced

    return [
        (atomdfo.core.BudgetedObjective, "__call__",
         lambda f: tracer.leaf("core.objective", f, evaluation=atomdfo.core.BudgetExhausted)),
        (atomdfo.bench, "make_test_function", make_test_function),
        (atomdfo.bench, "make_problem", lambda f: tracer.leaf("bench.make_problem", f)),
        (atomdfo.ord, "df_simplex_solve",
         lambda f: tracer.span("dfsimplex.solve", f, phase="inner")),
        (atomdfo.dfsimplex, "df_simplex_iterate",
         lambda f: tracer.span("dfsimplex.iterate", f, on_return=iterate_called)),
        (atomdfo.dfsimplex, "line_search",
         lambda f: tracer.span("linesearch", f, on_return=linesearch_done)),
        (atomdfo.ord, "refine_phase",
         lambda f: tracer.span("ord.refine", f, phase="refine", on_return=refine_done)),
        (atomdfo.ord, "simplex_gradient",
         lambda f: tracer.span("ord.gradient", f, phase="gradient")),
        (atomdfo.ord, "drop_phase", lambda f: tracer.span("ord.drop", f, on_return=drop_done)),
        (atomdfo.ord, "reexpress_weights", lambda f: tracer.span("ord.reexpress", f)),
    ]


def ord_solver(tracer: Tracer, ord_solve: Callable, starts_run: bool) -> Callable:
    """``ord_solve`` as a span whose outer iterations are counted via ``sink``."""
    counts = tracer.counts

    def sink(record):
        counts["ord.iterations"] += 1
        counts["ord.active_size"] += record.active_size

    def solve(*args, **kwargs):
        return ord_solve(*args, sink=sink, **kwargs)

    return tracer.span("ord.solve", solve, phase="start", starts_run=starts_run)
