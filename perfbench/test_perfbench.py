"""Tests of the benchmark itself: statistics, tracing, checks, output format.

    python3 -m pytest -q perfbench

The tracing and tie-back tests run a full pass of suite and analysis and
take about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tracer as tr
import workload as wl

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the (problem, kernel) rows of `smoothncp bench`, in its order, and the op
# kinds of those that the suite workload runs
BENCH_ROWS = [(p, k) for p in wl.SUITE_PROBLEMS for k in wl.SOLVE_KERNELS]
BENCH_KINDS = [f"{p}/{k}" for p, k in BENCH_ROWS if (p, k) not in wl.LEFT_OUT]


@pytest.fixture(scope="module")
def lib():
    return wl.import_library()


@pytest.fixture(scope="module")
def tol(lib):
    return lib.SolverConfig().outer_tol


@pytest.fixture(scope="module")
def suite_passes(lib, tol):
    # solves go start by start, so the first ops are the 11 starts of
    # `smoothncp bench` for every problem and kernel the suite runs
    ops = wl.build("suite", 1, lib)[:wl.PROTOCOL_STARTS * len(BENCH_KINDS)]
    return wl.traced_pass(ops, lib, tol)


def test_percentile_rule():
    assert set(wl.reported_percentiles(np.arange(99.0))) == {50}
    pct = wl.reported_percentiles(np.arange(100.0))
    assert set(pct) == {50, 90}
    assert pct[50] == 49.5
    assert wl.reported_percentiles([3.0]) == {50: 3.0}


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    names = np.array([0, 1, 2, 1])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    calls, self_t, total = tr.self_time_by_name(names, start, end, parent, 3)
    assert calls.tolist() == [1, 2, 1]
    assert self_t.tolist() == [3.0, 2.0 + 4.0, 1.0]
    assert total.tolist() == [10.0, 3.0 + 4.0, 1.0]
    assert self_t.sum() == end[0] - start[0]


def test_tracer_records_nesting_and_op():
    t = tr.Tracer()
    leaf = t.wrap("leaf", lambda x: x + 1)
    mid = t.wrap("mid", lambda x: leaf(leaf(x)))
    t.current_op = 7
    assert mid(1) == 3
    a = t.arrays()
    assert [t.names[i] for i in a["name_id"]] == ["mid", "leaf", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["op"].tolist() == [7, 7, 7]
    assert (a["end"] >= a["start"]).all()
    summary = t.summary()
    assert summary["leaf"]["calls"] == 2
    assert summary["mid"]["self_s"] + summary["leaf"]["self_s"] == pytest.approx(
        summary["mid"]["total_s"])


def test_patched_restores_on_error():
    target = SimpleNamespace(f=1)
    with pytest.raises(RuntimeError):
        with tr.patched([(target, "f", 2)]):
            assert target.f == 2
            raise RuntimeError
    assert target.f == 1


def test_protocol_starts_match_bench(lib):
    for n, seed in ((2, 1), (100, 1), (1000, 1), (7, 100)):
        ours = wl.protocol_starts(n, wl.PROTOCOL_STARTS, seed)
        theirs = lib.generate_starts(n, wl.PROTOCOL_STARTS, seed)
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs, strict=True))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 5])
def test_first_uniforms_match_default_rng(seed):
    # seeds of one, two and three words; with three the entropy outgrows
    # SeedSequence's pool of four words
    i, j = np.array([1, 9, 3], dtype=np.uint32), np.array([0, 4, 2**32 - 1], dtype=np.uint32)
    words = [np.full(3, w, dtype=np.uint32) for w in wl._uint32_words(seed)]
    ours = wl.first_uniforms([*words, i, j], -1.5, 20.0)
    theirs = [np.random.default_rng([seed, int(a), int(b)]).uniform(-1.5, 20.0)
              for a, b in zip(i, j)]
    assert ours.tolist() == theirs


def test_check_solve_rejects_bad_outputs(lib, tol):
    converged = lib.SolveStatus.CONVERGED
    problem = SimpleNamespace(F=lambda x: np.array([1.0, 0.0]))

    def check(x, status=converged, stated=None):
        x = np.array(x)
        res, feas = stated or wl.solve_metrics(problem, x) or (0.0, 0.0)
        report = SimpleNamespace(status=status, x_final=x, res=res, feas=feas)
        return wl.check_solve(problem, report, tol)

    assert check([0.0, 5.0]) is None
    assert "status" in check([0.0, 5.0], lib.SolveStatus.MAX_OUTER_EXCEEDED)
    assert "res" in check([1e-6, 5.0])
    # Res is 0 in both; x_2 may leave the orthant by sqrt(tol) = 1e-4
    assert check([0.0, -0.9e-4]) is None
    assert "feas" in check([0.0, -2e-4])
    assert "reported" in check([0.0, 5.0], stated=(0.0, 1.0))
    assert "non-finite" in check([0.0, np.inf])

    def outside_domain(x):
        raise ValueError("outside the domain")

    report = SimpleNamespace(status=converged, x_final=np.zeros(2), res=0.0, feas=0.0)
    assert "raised" in wl.check_solve(SimpleNamespace(F=outside_domain), report, tol)


def test_tracing_does_not_perturb_suite(suite_passes):
    reference, traced, _, _ = suite_passes
    assert len(reference) == len(traced) == wl.PROTOCOL_STARTS * len(BENCH_KINDS)
    for ref, rec in zip(reference, traced):
        assert rec.fingerprint == ref.fingerprint, rec.kind
        assert (rec.f_evals, rec.jac_evals, rec.levels) == (ref.f_evals, ref.jac_evals, ref.levels)


def test_tracing_does_not_perturb_analysis_and_large_n(lib, tol):
    ops = wl.build("analysis", 1, lib)[::15] + wl.build("large_n", 1, lib)[::11]
    reference, traced, _, _ = wl.traced_pass(ops, lib, tol)
    assert [r.fingerprint for r in traced] == [r.fingerprint for r in reference]
    assert all(r.failure is None for r in traced)


def test_self_times_cover_the_traced_op_wall(suite_passes):
    _, traced, tracer, statuses = suite_passes
    metrics = wl.layer_metrics(tracer.summary(), traced, traced, statuses)
    assert 0.95 <= metrics["trace.self_sum_frac"]["value"] <= 1.0
    f_calls = metrics["problems.F.calls"]["value"]
    assert f_calls == sum(r.f_evals for r in traced)
    assert metrics["solver.ls_trials"]["value"] == f_calls - len(traced)
    assert metrics["problems.JF.calls"]["value"] == sum(r.jac_evals for r in traced)
    assert sum(statuses.values()) == metrics["solver.newton_inner.calls"]["value"]


def test_counts_tie_back_to_run_bench(lib, suite_passes):
    reference, traced, _, _ = suite_passes
    rows, _, _ = lib.run_bench(lib.BenchRun(
        problems=tuple(lib.ProblemSpec.from_selector(s) for s in wl.SUITE_PROBLEMS),
        kernels=wl.SOLVE_KERNELS, starts_per_problem=wl.PROTOCOL_STARTS, rng_seed=1))
    assert len(rows) == len(BENCH_ROWS)
    rows = [row for key, row in zip(BENCH_ROWS, rows) if key not in wl.LEFT_OUT]
    assert sorted(dict.fromkeys(r.kind for r in reference)) == sorted(BENCH_KINDS)
    for kind, row in zip(BENCH_KINDS, rows):
        mine = [r for r in reference if r.kind == kind]
        assert kind.split("/")[1] == row["kernel"]
        assert max(r.levels for r in mine) == row["OutIter"], kind
        assert max(r.jac_evals for r in mine) == row["InIter"], kind
    # the work counts repeat exactly from one pass to the next
    assert [(r.f_evals, r.jac_evals) for r in traced] == [
        (r.f_evals, r.jac_evals) for r in reference]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(wl.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == wl.PER_LAYER


def _run(args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = _run(["--workload", "analysis", "--seed", "2", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
