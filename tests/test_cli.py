import concurrent.futures
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atomdfo.analysis
from atomdfo import bench, cli
from atomdfo.analysis import PropertyReport
from atomdfo.core import BudgetedObjective


def write_manifest(path, **overrides):
    manifest = {
        "pairs": [[2, 6]],
        "functions": ["power", "quartc"],
        "seeds": [0],
        "solvers": ["ord"],
        "budget_factor": 20,
    }
    manifest.update(overrides)
    path.write_text(json.dumps(manifest))
    return path


def read_summary(out_dir):
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path):
        manifest = write_manifest(tmp_path / "suite.json", functions=["power"])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["power_n2_m6_seed0__ord.csv", "summary.csv"]

    def test_summary_rows_and_sparsity(self, tmp_path):
        manifest = write_manifest(tmp_path / "suite.json", seeds=[0, 1])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 0
        rows = read_summary(out)
        assert len(rows) == 4  # 2 functions x 2 seeds x 1 solver
        for row in rows:
            assert 0.0 <= float(row["sparsity"]) <= 1.0
            assert int(row["evals"]) <= 20 * 3

    def test_same_seed_gives_identical_traces(self, tmp_path):
        manifest = write_manifest(tmp_path / "suite.json", solvers=["ord", "dfsimplex"])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(manifest), "--out", str(out2)]) == 0
        traces = sorted(p.name for p in out1.iterdir() if p.name != "summary.csv")
        assert traces
        for name in traces:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # summaries agree except for the wall-time column
        for r1, r2 in zip(read_summary(out1), read_summary(out2)):
            r1.pop("seconds"), r2.pop("seconds")
            assert r1 == r2

    def test_invalid_function_is_usage_error(self, tmp_path):
        manifest = write_manifest(tmp_path / "suite.json", functions=["nope"])
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_odd_dimension_for_paired_function_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "suite.json", pairs=[[3, 5]], functions=["ext_beale"]
        )
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_bad_solver_options_rejected_up_front(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "suite.json", ord={"gamma": -1.0})
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_solver_options_change_the_run(self, tmp_path):
        base = write_manifest(tmp_path / "a.json", functions=["power"])
        tweaked = write_manifest(
            tmp_path / "b.json",
            functions=["power"],
            ord={"mu0": 0.9, "inner": {"delta": 0.3, "epsilon": 1e-3}},
        )
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert cli.main(["run", "--config", str(base), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(tweaked), "--out", str(out_b)]) == 0
        trace = "power_n2_m6_seed0__ord.csv"
        assert (out_a / trace).read_bytes() != (out_b / trace).read_bytes()

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_full_catalog_run_produces_25_rows(self, tmp_path):
        manifest = tmp_path / "suite.json"
        manifest.write_text(json.dumps({"pairs": [[10, 200]], "seeds": [0], "solvers": ["ord"]}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 0
        rows = read_summary(out)
        assert len(rows) == 25
        assert all(0.0 <= float(r["sparsity"]) <= 1.0 for r in rows)
        assert len(list(out.iterdir())) == 26  # 25 traces + summary

    def test_worker_pool_matches_sequential_output(self, tmp_path):
        manifest = write_manifest(tmp_path / "suite.json", seeds=[0, 1])
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert cli.main(["run", "--config", str(manifest), "--out", str(seq)]) == 0
        assert cli.main(["run", "--config", str(manifest), "--out", str(par), "--jobs", "2"]) == 0
        for name in sorted(p.name for p in seq.iterdir() if p.name != "summary.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, jobs):
        manifest = write_manifest(tmp_path / "suite.json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [2.5, True, 2.0, "2"])
    def test_jobs_follows_the_integer_rule(self, tmp_path, jobs):
        # three runs, so a pool would start; the check comes before --out is
        # made or an old summary.csv is deleted
        manifest = write_manifest(tmp_path / "suite.json", functions=["power", "quartc", "arwhead"])
        stale = tmp_path / "stale"
        stale.mkdir()
        (stale / "summary.csv").write_text("stale\n")
        for out in (tmp_path / "out", stale):
            with pytest.raises(cli.UsageError, match="--jobs must be at least 1 and an integer"):
                cli.cmd_run(manifest, out, jobs=jobs)
        assert not (tmp_path / "out").exists()
        assert (stale / "summary.csv").read_text() == "stale\n"

    def test_worker_count_capped_at_run_count(self, tmp_path, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        manifest = write_manifest(tmp_path / "suite.json")  # 2 functions x 1 seed
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out), "--jobs", "8"]) == 0
        assert started == [2]
        assert len(read_summary(out)) == 2

    def test_traces_stream_and_summary_comes_last(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.csv").write_text("stale\n")
        original = cli.run_one
        finished, seen = [], []

        def watched(name, n, m, seed, solver, suite):
            traces = sum((out / f"{pid}__{s}.csv").is_file() for pid, s in finished)
            seen.append((len(finished), traces, (out / "summary.csv").exists()))
            outcome = original(name, n, m, seed, solver, suite)
            finished.append((bench.problem_id(name, n, m, seed), solver))
            return outcome

        monkeypatch.setattr(cli, "run_one", watched)
        manifest = write_manifest(tmp_path / "suite.json")
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 0
        # (runs finished, their traces on disk, summary.csv present) as each run starts
        assert seen == [(0, 0, False), (1, 1, False)]
        assert len(read_summary(out)) == 2

    def test_each_cloud_generated_once(self, tmp_path):
        # 4 seeds x 2 functions: function before seed would make 8 clouds
        seeds = [0, 1, 2, 3]
        manifest = write_manifest(tmp_path / "suite.json", seeds=seeds, budget_factor=2)
        bench._cloud.cache_clear()
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "out")]) == 0
        assert bench._cloud.cache_info().misses == len(seeds)

    def test_run_failure_recorded_per_row(self, tmp_path, monkeypatch, capsys):
        calls = {"n": 0}
        original = cli.run_one

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return original(*args)

        monkeypatch.setattr(cli, "run_one", flaky)
        manifest = write_manifest(tmp_path / "suite.json", seeds=[0, 1])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 1
        rows = read_summary(out)
        assert len(rows) == 4  # the failed run still has a summary row
        assert sum(1 for r in rows if r["final_f"] == "nan") == 1
        assert "boom" in capsys.readouterr().err

    def test_failed_run_id_is_the_problem_id(self, tmp_path, monkeypatch):
        def failing(name, n, m, seed, *rest):
            if name == "quartc" and seed == 1:
                raise RuntimeError("boom")
            return original(name, n, m, seed, *rest)

        original = cli.run_one
        monkeypatch.setattr(cli, "run_one", failing)
        manifest = write_manifest(tmp_path / "suite.json", seeds=[0, 1])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(manifest), "--out", str(out)]) == 1
        failed = [r["problem"] for r in read_summary(out) if r["final_f"] == "nan"]
        assert failed == [bench.make_problem("quartc", 2, 6, 1).problem_id]


class TestTraceCsv:
    # a tie between 0.0 and -0.0 keeps the earlier text; extremes and
    # subnormals go through .17g unchanged
    VALUES = [3.0, 0.0, -0.0, 0.5, 1e300, -1e-300, -1e300, 1e-300, -1e300,
              5e-324, -2.5, 0.1, -1e300 * 1.0000000000000002]

    @staticmethod
    def csv_writer_reference(trace) -> str:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(cli.TRACE_HEADER)
        writer.writerows((k, f"{v:.17g}", f"{b:.17g}") for k, v, b in trace)
        return buf.getvalue()

    def test_bytes_match_csv_writer_over_the_objective_trace(self, tmp_path):
        values = iter(self.VALUES)
        objective = BudgetedObjective(lambda x: next(values))
        for _ in self.VALUES:
            objective(np.zeros(1))
        text = cli.trace_csv(objective.trace)
        assert text == self.csv_writer_reference(objective.trace)
        assert text.startswith("eval,f,best_f\r\n") and text.endswith("\r\n")
        assert "\r\n3,-0,0\r\n" in text
        # written as cmd_run writes it, the file holds the same bytes
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert path.read_bytes() == text.encode()

    def test_header_only_without_values(self):
        assert cli.trace_csv([]) == "eval,f,best_f\r\n"
        assert cli.trace_csv([]) == self.csv_writer_reference([])

    def test_run_one_returns_the_trace_text(self):
        suite = cli.SuiteConfig(pairs=((2, 6),), functions=("power",), budget_factor=20)
        text, (final_f, evals, sparsity, seconds) = cli.run_one("power", 2, 6, 0, "ord", suite)
        rows = text.split("\r\n")
        assert rows[0] == "eval,f,best_f" and rows[-1] == ""
        assert len(rows) - 2 == evals
        assert float(final_f) == min(float(row.split(",")[1]) for row in rows[1:-1])
        assert 0.0 <= float(sparsity) <= 1.0 and float(seconds) >= 0.0


def make_trace_dir(tmp_path, t_by_run, length=40, n=5):
    """Hand-build a cmd_run-shaped output directory with known first-hit times."""
    out = tmp_path / "traces"
    out.mkdir()
    rows = []
    for (problem, solver), t in t_by_run.items():
        hist = np.full(length, 10.0)
        hist[t - 1 :] = 0.0
        with open(out / f"{problem}__{solver}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cli.TRACE_HEADER)
            for idx, best in enumerate(hist, start=1):
                writer.writerow([idx, f"{best:.17g}", f"{best:.17g}"])
        rows.append((problem, solver, n, length, 0, 0.0, length, 0.0, 0.0))
    rows.sort()
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.SUMMARY_HEADER)
        writer.writerows(rows)
    return out


class TestProfile:
    def test_two_solver_curves_match_hand_computation(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 10, ("p1", "s2"): 20})
        out = tmp_path / "profiles"
        assert cli.main([
            "profile", "--traces", str(traces), "--out", str(out), "--tau", "0.1",
        ]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["data_profile_tau0.1.csv", "performance_profile_tau0.1.csv"]
        perf = {}
        with open(out / "performance_profile_tau0.1.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                perf.setdefault(row["solver_id"], []).append(
                    (float(row["grid_value"]), float(row["curve_value"]))
                )
        s1 = dict(perf["s1"])
        s2 = dict(perf["s2"])
        assert s1[1.0] == 1.0
        assert s2[1.0] == 0.0
        assert s2[2.0] == 1.0

    def test_single_solver_rho_at_one_is_solved_fraction(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5, ("p2", "s1"): 7})
        out = tmp_path / "profiles"
        assert cli.main([
            "profile", "--traces", str(traces), "--out", str(out), "--tau", "0.5",
        ]) == 0
        with open(out / "performance_profile_tau0.5.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh)]
        at_one = [r for r in rows if float(r["grid_value"]) == 1.0]
        assert float(at_one[0]["curve_value"]) == 1.0

    def test_empty_dir_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["profile", "--traces", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_trace_names_the_file(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        bad = traces / "p1__s1.csv"
        bad.write_text("eval,f,best_f\n1,not_a_number,xyz\n")
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "p1__s1.csv" in capsys.readouterr().err

    def test_failed_run_leaves_its_problem_out(self, tmp_path, monkeypatch, capsys):
        original = cli.run_one

        def flaky(name, n, m, seed, solver, *rest):
            if (name, solver) == ("power", "dfsimplex"):
                raise RuntimeError("boom")
            return original(name, n, m, seed, solver, *rest)

        monkeypatch.setattr(cli, "run_one", flaky)
        manifest = write_manifest(tmp_path / "suite.json", solvers=["ord", "dfsimplex"])
        traces, out = tmp_path / "traces", tmp_path / "profiles"
        assert cli.main(["run", "--config", str(manifest), "--out", str(traces)]) == 1
        capsys.readouterr()
        assert cli.main(["profile", "--traces", str(traces), "--out", str(out), "--tau", "0.1"]) == 0
        skipped = [ln for ln in capsys.readouterr().err.splitlines() if "skipping" in ln]
        assert skipped == ["skipping power_n2_m6_seed0: failed run of dfsimplex"]
        records = cli.load_run_records(traces)
        assert {(r.problem_id, r.solver_id) for r in records} == {
            ("quartc_n2_m6_seed0", "ord"), ("quartc_n2_m6_seed0", "dfsimplex"),
        }

    def test_rerun_failure_drops_the_stale_trace(self, tmp_path, monkeypatch, capsys):
        # the first suite writes every trace; when the same run fails on a
        # re-run into the same directory, its old trace must not be profiled
        manifest = write_manifest(tmp_path / "suite.json", solvers=["ord", "dfsimplex"])
        traces = tmp_path / "traces"
        assert cli.main(["run", "--config", str(manifest), "--out", str(traces)]) == 0
        original = cli.run_one

        def flaky(name, n, m, seed, solver, *rest):
            if (name, solver) == ("power", "dfsimplex"):
                raise RuntimeError("boom")
            return original(name, n, m, seed, solver, *rest)

        monkeypatch.setattr(cli, "run_one", flaky)
        assert cli.main(["run", "--config", str(manifest), "--out", str(traces)]) == 1
        assert not (traces / "power_n2_m6_seed0__dfsimplex.csv").exists()
        capsys.readouterr()
        records = cli.load_run_records(traces)
        assert {r.problem_id for r in records} == {"quartc_n2_m6_seed0"}
        skipped = [ln for ln in capsys.readouterr().err.splitlines() if "skipping" in ln]
        assert skipped == ["skipping power_n2_m6_seed0: failed run of dfsimplex"]

    def test_failed_row_is_skipped_even_with_a_trace(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5, ("p2", "s1"): 5})
        rows = read_summary(traces)
        rows[0]["final_f"] = "nan"
        with open(traces / "summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cli.SUMMARY_HEADER)
            writer.writeheader()
            writer.writerows(rows)
        records = cli.load_run_records(traces)
        assert [r.problem_id for r in records] == [rows[1]["problem"]]
        assert f"skipping {rows[0]['problem']}: failed run of s1" in capsys.readouterr().err

    def test_every_problem_failed_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_one", lambda *task: 1 / 0)
        manifest = write_manifest(tmp_path / "suite.json", functions=["power"])
        traces = tmp_path / "traces"
        assert cli.main(["run", "--config", str(manifest), "--out", str(traces)]) == 1
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "contains no runs" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["2", "0", "1", "-0.5", "nan"])
    def test_tau_outside_the_open_unit_interval(self, tmp_path, capsys, tau):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        out = tmp_path / "profiles"
        assert cli.main(["profile", "--traces", str(traces), "--out", str(out), "--tau", tau]) == 2
        assert "--tau must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_rising_best_f_names_the_file(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        (traces / "p1__s1.csv").write_text("eval,f,best_f\n1,2,2\n2,1,3\n")
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "p1__s1.csv" in capsys.readouterr().err

    def test_non_finite_best_f_names_the_file(self, tmp_path, capsys):
        # a nan compares false both ways, so it passes the non-increasing
        # check and would shift every threshold the run takes part in
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5, ("p1", "s2"): 6})
        (traces / "p1__s1.csv").write_text("eval,f,best_f\n1,2,2\n2,nan,nan\n3,1,1\n")
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "p1__s1.csv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header, row: (header[:5] + header[6:], row[:5] + row[6:]),
            lambda header, row: (header, row[:2]),
            lambda header, row: (header, row + ["7"]),
        ],
        ids=["final_f-column-missing", "short-row", "long-row"],
    )
    def test_malformed_summary_names_the_file(self, tmp_path, capsys, edit):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        with open(traces / "summary.csv", newline="") as fh:
            header, row = csv.reader(fh)
        assert header[5] == "final_f"
        with open(traces / "summary.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(edit(header, row))
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "summary.csv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit",
        [lambda rows: rows[1:], lambda rows: rows[:2] + rows[3:], lambda rows: rows + rows[:1]],
        ids=["first-row-missing", "third-row-missing", "first-row-repeated"],
    )
    def test_summary_without_one_row_per_run_names_the_file(self, tmp_path, capsys, edit):
        runs = {("p1", "s1"): 5, ("p1", "s2"): 6, ("p2", "s1"): 7, ("p2", "s2"): 8}
        traces = make_trace_dir(tmp_path, runs)
        rows = read_summary(traces)
        with open(traces / "summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cli.SUMMARY_HEADER)
            writer.writeheader()
            writer.writerows(edit(rows))
        assert cli.main(["profile", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 2
        assert "summary.csv" in capsys.readouterr().err

    def test_default_tau_grid_writes_six_files(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        out = tmp_path / "profiles"
        assert cli.main(["profile", "--traces", str(traces), "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 6


class TestSuiteConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"pairs": []},
            {"pairs": [[0, 5]]},
            {"solvers": ["nope"]},
            {"budget_factor": 0},
            {"dfsimplex": {"tau": 0.5}},
            {"dfsimplex": {"shuffle_directions": True}},
            {"ord": {"inner": {"rng_seed": 1}}},
            {"ord": {"inner": {"epsilon": 0.3}}},
            {"ord": {"memoize": True}},
            {"functions": []},
            {"seeds": []},
            {"solvers": []},
            {"ord": {"rng_seed": 1}},
            {"ord": {"eps_min": 1e-4}},
            # an entry named twice would run twice and write one file twice
            {"solvers": ["ord", "ord"]},
            {"seeds": [0, 0]},
            {"pairs": [[2, 6], [2, 6]]},
            {"functions": ["power", "power"]},
            {"functions": ["nope"]},
            # integers must be JSON integers: no silent truncation or bools
            {"seeds": [1.7]},
            {"seeds": [True]},
            {"seeds": [-1]},
            {"pairs": [[2.9, 5]]},
            {"pairs": [[2, 6.0]]},
            {"pairs": [[2, 6, 1]]},
            {"budget_factor": True},
            {"budget_factor": 20.0},
            {"budget_factor": "20"},
            # json reads the NaN and Infinity tokens as floats
            {"dfsimplex": {"epsilon": float("nan"), "gamma": float("nan")}},
            {"ord": {"eps0": float("nan"), "stop_factor": float("nan")}},
            {"ord": {"inner": {"alpha0": float("inf")}}},
            {"ord": {"drop_rule": "bogus"}},
            {"dfsimplex": {"gamma": float("-inf")}},
            # ORD has one drop rule, so the key that named one is unknown
            {"ord": {"drop_rule": "zero_weight"}},
        ],
    )
    def test_invalid_manifest_fields(self, tmp_path, overrides):
        manifest = write_manifest(tmp_path / "suite.json", **overrides)
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seeds": ("0",)},
            {"pairs": ((2, np.float64(6.0)),)},
            {"functions": ("nope",)},
            {"budget_factor": np.bool_(True)},
            {"functions": (["power"],)},
        ],
    )
    def test_direct_construction_raises_usage_error(self, kwargs):
        with pytest.raises(cli.UsageError):
            cli.SuiteConfig(**{"pairs": ((2, 6),), **kwargs})

    def test_numpy_integers_accepted(self):
        # make_problem takes numpy integers, so the library SuiteConfig does too
        suite = cli.SuiteConfig(
            pairs=((np.int64(2), np.int64(6)),), seeds=(np.int64(1),), budget_factor=np.int64(20)
        )
        assert suite == cli.SuiteConfig(pairs=((2, 6),), seeds=(1,), budget_factor=20)

    def test_defaults_come_from_the_fields(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"pairs": [[2, 6]]}))
        assert cli.SuiteConfig.from_json(path) == cli.SuiteConfig(pairs=((2, 6),))

    def test_unknown_manifest_key(self, tmp_path, capsys):
        # misspelt keys would otherwise run ORD with the default budget_factor
        manifest = write_manifest(tmp_path / "suite.json", solver=["dfsimplex"], budget_factr=5)
        assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "budget_factr" in err and "'solver'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry", ["make_test_function", "valid_dimension", "make_problem", "manifest"])
    def test_unknown_function_name(self, tmp_path, capsys, entry):
        # every entry point raises one ValueError; make_test_function raised KeyError
        if entry == "manifest":
            manifest = write_manifest(tmp_path / "suite.json", functions=["nope"])
            with pytest.raises(cli.UsageError, match="unknown function 'nope'"):
                cli.SuiteConfig.from_json(manifest)
            assert cli.main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2
            assert "unknown function 'nope'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()
        else:
            args = (10, 20, 0) if entry == "make_problem" else (10,)
            with pytest.raises(ValueError, match="unknown function 'nope'"):
                getattr(bench, entry)("nope", *args)

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestLoadRunRecords:
    def test_missing_trace_file(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        (traces / "p1__s1.csv").unlink()
        with pytest.raises(cli.UsageError, match="missing trace"):
            cli.load_run_records(traces)

    def test_wrong_trace_header(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        (traces / "p1__s1.csv").write_text("a,b\n1,2\n")
        with pytest.raises(cli.UsageError, match="header"):
            cli.load_run_records(traces)

    def test_empty_trace(self, tmp_path):
        traces = make_trace_dir(tmp_path, {("p1", "s1"): 5})
        (traces / "p1__s1.csv").write_text("eval,f,best_f\n")
        with pytest.raises(cli.UsageError, match="empty"):
            cli.load_run_records(traces)


class TestEndToEnd:
    def test_run_then_profile_round_trip(self, tmp_path):
        manifest = tmp_path / "suite.json"
        manifest.write_text(
            json.dumps(
                {
                    "pairs": [[2, 8]],
                    "functions": ["power", "ext_himmelblau", "cosine"],
                    "seeds": [0, 1],
                    "solvers": ["ord", "dfsimplex"],
                    "budget_factor": 50,
                }
            )
        )
        traces = tmp_path / "traces"
        out = tmp_path / "profiles"
        assert cli.main(["run", "--config", str(manifest), "--out", str(traces)]) == 0
        assert cli.main([
            "profile", "--traces", str(traces), "--out", str(out), "--tau", "0.1",
        ]) == 0
        records = cli.load_run_records(traces)
        assert len(records) == 12  # 3 functions x 2 seeds x 2 solvers
        for rec in records:
            assert np.all(np.diff(rec.history) <= 0.0)
            assert len(rec.history) <= 150
        with open(out / "data_profile_tau0.1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_solver = {}
        for row in rows:
            by_solver.setdefault(row["solver_id"], []).append(float(row["curve_value"]))
        assert set(by_solver) == {"ord", "dfsimplex"}
        for curve in by_solver.values():
            assert curve == sorted(curve)  # non-decreasing
            assert 0.0 <= curve[-1] <= 1.0


def test_import_leaves_out_the_pool_and_the_property_suites():
    # `run --jobs 1` and `profile` start no worker and verify no property,
    # so a fresh interpreter that imports the CLI loads neither
    src = str(Path(cli.__file__).resolve().parents[1])
    lazy = ["atomdfo.analysis", "concurrent.futures.process", "multiprocessing"]
    code = f"import sys; sys.path.insert(0, {src!r}); import atomdfo.cli; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestVerify:
    def test_quick_level_passes_and_reports_properties(self, capsys):
        assert cli.main(["verify", "--level", "quick", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "trials=" in ln]
        assert len(lines) >= 6
        assert all("PASS" in ln for ln in lines)

    def test_negative_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(atomdfo.analysis, "run_property_suite", lambda level, seed: 1 / 0)
        assert cli.main(["verify", "--seed", "-1"]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, True, 0.0, "0"])
    def test_seed_follows_the_integer_rule(self, monkeypatch, seed):
        monkeypatch.setattr(atomdfo.analysis, "run_property_suite", lambda level, seed: 1 / 0)
        with pytest.raises(cli.UsageError, match="--seed must be at least 0 and an integer"):
            cli.cmd_verify("quick", seed)

    def test_injected_failure_flips_exit_code(self, monkeypatch, capsys):
        broken = [PropertyReport("cone-measure", 10, -1.0, False)]
        monkeypatch.setattr(atomdfo.analysis, "run_property_suite", lambda level, seed: broken)
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out
