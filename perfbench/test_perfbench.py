"""Tests of the benchmark itself, outside the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import quality  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402


# --- quality metrics on hand-made histories --------------------------------


def test_solved_uses_the_reference_when_it_is_lower():
    # f0 = 10, f_L = 0: the tau = 1e-1 target is 1, reached at evaluation 3;
    # the tau = 1e-3 target 0.01 is never reached.
    run_ = quality.RunHistory.with_reference(1, [10.0, 5.0, 1.0, 1.0], 0.0)
    assert run_.f_low == 0.0
    assert quality.first_hit(run_, 1e-1) == 3
    assert quality.first_hit(run_, 1e-3) is None
    assert quality.solved([run_], 1e-1) == 1.0
    assert quality.solved([run_], 1e-3) == 0.0


def test_solved_uses_the_runs_own_best_when_the_reference_is_higher():
    run_ = quality.RunHistory.with_reference(1, [10.0, 4.0, 2.0], 3.0)
    assert run_.f_low == 2.0
    # every target collapses onto the run's own best, first reached at 3
    assert quality.first_hit(run_, 1e-5) == 3
    assert quality.solved([run_], 1e-5) == 1.0


def test_solved_counts_only_hits_within_the_budget():
    # n = 1: kappa = 100 allows 100 * (n + 1) = 200 evaluations
    late = np.concatenate([np.full(200, 10.0), [0.0]])
    on_time = np.concatenate([np.full(199, 10.0), [0.0]])
    runs = [quality.RunHistory(1, late, 0.0), quality.RunHistory(1, on_time, 0.0)]
    assert quality.solved(runs, 1e-3) == 0.5
    assert quality.solved(runs + [quality.UNSOLVED], 1e-1) == pytest.approx(1 / 3)


def test_dp_area_is_the_mean_of_the_data_profile_over_kappa():
    # hit at evaluation 3 with n = 1: solved from kappa = 2 (2 * 2 >= 3) on,
    # that is for 99 of the 101 kappas; the second run never solves.
    hit = quality.RunHistory(1, np.array([10.0, 5.0, 1.0]), 0.0)
    miss = quality.RunHistory(1, np.array([10.0, 9.0]), 0.0)
    profile = quality.data_profile([hit, miss], 1e-1)
    assert list(profile[:3]) == [0.0, 0.0, 0.5]
    assert quality.dp_area([hit, miss], 1e-1) == pytest.approx(0.5 * 99 / 101, abs=0)


# --- tracer accounting ------------------------------------------------------


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_times_add_up_to_the_covered_time():
    t = tracing.Tracer()
    leaf = t.leaf("leaf", lambda: _busy(1e-4))
    inner = t.span("inner", lambda: (_busy(2e-4), leaf(), leaf()))
    outer = t.span("outer", lambda: (_busy(3e-4), inner(), leaf()), starts_run=True)
    start = perf_counter()
    outer()
    outer()
    wall = perf_counter() - start
    layers = t.layers()
    assert {name: lt.calls for name, lt in layers.items()} == {"outer": 2, "inner": 2, "leaf": 6}
    assert all(lt.self_s > 0 for lt in layers.values())
    total_self = sum(lt.self_s for lt in layers.values())
    assert total_self == pytest.approx(t.top_level_s(), rel=1e-9)
    assert 0.0 <= wall - t.top_level_s() < 0.01
    # two runs, each with its own id shared by its children
    assert sorted({span[5] for span in t.spans}) == [0, 1]
    parents = {span[0]: span[4] for span in t.spans}
    assert sorted(parents.values()).count(-1) == 2


def test_a_raising_span_is_counted_and_closed():
    t = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.span("boom", boom)()
    assert t.counts["boom.raised"] == 1
    assert t.layers()["boom"].calls == 1
    assert not t._stack


def test_patched_restores_every_attribute():
    import atomdfo.ord

    original = atomdfo.ord.refine_phase
    with pytest.raises(RuntimeError):
        with tracing.patched([(atomdfo.ord, "refine_phase", lambda f: None)]):
            assert atomdfo.ord.refine_phase is None
            raise RuntimeError
    assert atomdfo.ord.refine_phase is original


# --- digests and checks on small workloads ----------------------------------

SMALL_API = w.Workload("small-api", 12, 1, ("ord",), False)
SMALL_CLI = w.Workload("small-cli", 20, 1, ("ord", "dfsimplex"), True)


@pytest.fixture
def small_api(tmp_path):
    s = w.setup(SMALL_API, 7, tmp_path)
    s.problems = s.problems[:6]
    return s


def test_back_to_back_and_traced_passes_share_a_digest(small_api):
    first, second = w.api_pass(small_api), w.api_pass(small_api)
    t = tracing.Tracer()
    traced = w.traced_pass(small_api, t)
    assert first.digest == second.digest == traced.digest
    assert len(first.runs) == 6


def test_traced_self_times_plus_remainder_add_up_to_the_wall(small_api):
    t = tracing.Tracer()
    p = w.traced_pass(small_api, t)
    metrics = run.layer_metrics(small_api, p, t)
    remainder = metrics["trace.remainder_s"][0]
    total_self = sum(lt.self_s for lt in t.layers().values())
    assert remainder >= 0.0
    assert total_self + remainder == pytest.approx(p.wall_s, rel=1e-9)
    evals = sum(len(r.values) for r in p.runs)
    assert metrics["bench.blackbox.calls"][0] == evals
    assert sum(t.evals_by_phase.values()) == evals


def test_cli_pass_digest_repeats_and_outputs_pass_the_checks(tmp_path):
    s = w.setup(SMALL_CLI, 3, tmp_path)
    first, second = w.cli_pass(s), w.cli_pass(s)
    traced = w.traced_pass(s, tracing.Tracer())
    assert first.digest == second.digest == traced.digest
    assert not first.failures
    assert len(first.runs) == 2 * len(w.bench.FUNCTION_NAMES)
    functions = w.catalog()
    assert all(w.check(r, functions)[0] is None for r in first.runs)


def test_host_norm_timings_ignore_a_uniformly_slower_host(small_api):
    fast = w.api_pass(small_api)
    slow = w.Pass(fast.wall_s * 1.5, [w.RunOutput(**{**r.__dict__, "seconds": r.seconds * 1.5})
                                      for r in fast.runs],
                  fast.digest, probe_s=[t * 1.5 for t in fast.probe_s])
    assert len(fast.probe_s) == len(fast.runs)
    a, b = run.timings([fast]), run.timings([slow])
    for name in ("wall_s", "evals_per_s", "run_ms.p50", "run_ms.p90"):
        assert b[name + ".host_norm"][0] == pytest.approx(a[name + ".host_norm"][0], rel=1e-12)
        assert b[name][0] != pytest.approx(a[name][0], rel=0.1)


def test_checks_reject_bad_outputs(small_api):
    functions = w.catalog()
    good = w.api_pass(small_api).runs[0]
    assert w.check(good, functions)[0] is None

    def broken(**changes):
        return w.check(w.RunOutput(**{**good.__dict__, **changes}), functions)[0]

    assert "simplex" in broken(weights=good.weights * 1.01)
    assert "running minimum" in broken(best=good.best[::-1])
    assert "evaluations" in broken(values=np.zeros(w.BUDGET + 1), best=np.zeros(w.BUDGET + 1))
    assert "f(x)" in broken(f=good.f * (1 + 1e-9) + 1e-9)
