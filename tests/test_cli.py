"""Benchmark driver: start generation, aggregation, table formats, exit codes."""

import json

import numpy as np
import pytest

from smoothncp import BenchRun, ProblemSpec, generate_starts, run_bench
from smoothncp.cli import format_table, main, run_analyze, run_trace

COLUMNS = ["problem", "n", "kernel", "OutIter", "InIter", "Res", "Feas", "converged", "wall_s"]


def small_run(**overrides):
    kwargs = dict(
        problems=(ProblemSpec.from_selector("analytic2d"),),
        kernels=("rational", "exp"),
        starts_per_problem=2,
        rng_seed=1,
    )
    kwargs.update(overrides)
    return BenchRun(**kwargs)


def rows_without_timing(rows):
    return [{k: v for k, v in row.items() if k != "wall_s"} for row in rows]


# --- protocol starts -------------------------------------------------------------


def test_single_start_is_ones():
    starts = generate_starts(4, 1, seed=99)
    assert len(starts) == 1
    assert np.array_equal(starts[0], np.ones(4))


def test_starts_land_in_open_box():
    starts = generate_starts(2, 11, seed=42)
    assert len(starts) == 11
    assert np.array_equal(starts[0], np.ones(2))
    tail = np.array(starts[1:])
    assert np.all(tail > 0.0) and np.all(tail < 20.0)


def test_starts_deterministic():
    a = generate_starts(3, 5, seed=7)
    b = generate_starts(3, 5, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = generate_starts(3, 5, seed=8)
    assert not np.array_equal(a[1], c[1])


def test_starts_stable_under_count():
    short = generate_starts(2, 5, seed=42)
    long = generate_starts(2, 11, seed=42)
    for i in range(5):
        assert np.array_equal(short[i], long[i])


def test_starts_stable_under_dimension():
    narrow = generate_starts(2, 3, seed=7)
    wide = generate_starts(6, 3, seed=7)
    for i in range(3):
        assert np.array_equal(narrow[i], wide[i][:2])


def test_starts_reject_bad_count():
    with pytest.raises(ValueError):
        generate_starts(2, 0, seed=1)


@pytest.mark.parametrize("count", [1, 2])
def test_starts_reject_negative_seeds(count):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        generate_starts(2, count, seed=-1)


def test_bench_run_rejects_negative_seeds():
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -5"):
        small_run(rng_seed=-5)


@pytest.mark.parametrize("argv", [
    ["bench", "--problem", "analytic2d", "--seed", "-1", "--starts", "1"],
    ["bench", "--problem", "analytic2d", "--seed", "-1", "--starts", "2"],
    ["bench", "--problem", "hphard:3:-1", "--starts", "1"],
])
def test_main_rejects_negative_seeds(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "got -1" in captured.err


# --- run configuration -------------------------------------------------------------


def test_bench_run_defaults():
    run = BenchRun(problems=(), kernels=("exp",))
    assert run.starts_per_problem == 11
    assert run.rng_seed == 1
    assert run.tol == 1e-8


def test_bench_run_validation():
    with pytest.raises(TypeError, match="ProblemSpec"):
        BenchRun(problems=("analytic2d",), kernels=("exp",))
    with pytest.raises(ValueError, match="unknown kernel"):
        small_run(kernels=("cubic",))
    with pytest.raises(ValueError, match="starts_per_problem"):
        small_run(starts_per_problem=0)
    # both used to build, then fail in generate_starts after the first build
    with pytest.raises(ValueError, match="starts_per_problem must be an integer"):
        small_run(starts_per_problem=2.5)
    with pytest.raises(ValueError, match="rng_seed must be an integer"):
        small_run(rng_seed=1.5)


# --- aggregation ---------------------------------------------------------------------


def test_bench_empty_suite():
    assert run_bench(BenchRun(problems=(), kernels=("exp",))) == ([], [], True)


def test_bench_rows_and_detail():
    rows, detail, ok = run_bench(small_run())
    assert ok is True
    assert [r["kernel"] for r in rows] == ["rational", "exp"]
    for row in rows:
        assert list(row.keys()) == COLUMNS
        assert row["problem"] == "analytic2d" and row["n"] == 2
        assert row["converged"] == "2/2"
    assert len(detail) == 4
    assert {d["status"] for d in detail} == {"converged"}
    # worst-case aggregation over the per-start detail
    for row in rows:
        mine = [d for d in detail if d["kernel"] == row["kernel"]]
        assert row["OutIter"] == max(d["OutIter"] for d in mine)
        assert row["InIter"] == max(d["InIter"] for d in mine)
        assert row["Res"] == max(d["Res"] for d in mine)


def test_bench_deterministic_modulo_timing():
    rows_a, detail_a, _ = run_bench(small_run())
    rows_b, detail_b, _ = run_bench(small_run())
    assert rows_without_timing(rows_a) == rows_without_timing(rows_b)
    assert rows_without_timing(detail_a) == rows_without_timing(detail_b)


# --- table formats ---------------------------------------------------------------------


def test_format_md():
    rows, _, _ = run_bench(small_run())
    lines = format_table(rows, "md").splitlines()
    header = next(l for l in lines if l.startswith("| "))
    assert header == "| " + " | ".join(COLUMNS) + " |"
    assert sum(1 for l in lines if l.startswith("| analytic2d")) == 2


def test_format_csv():
    rows, _, _ = run_bench(small_run())
    lines = format_table(rows, "csv").splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == ",".join(COLUMNS)
    assert len(body) == 3


def test_format_json():
    rows, _, _ = run_bench(small_run())
    doc = json.loads(format_table(rows, "json"))
    assert set(doc) == {"notes", "columns", "rows"}
    assert doc["columns"] == COLUMNS
    assert len(doc["rows"]) == 2
    assert list(doc["rows"][0].keys()) == COLUMNS


# Hand-written rows pin the rendered text: notes, layout and cell formats.
PINNED_ROWS = [
    {"problem": "analytic2d", "n": 2, "kernel": "rational", "OutIter": 7, "InIter": 33,
     "Res": 1.0e-08, "Feas": 0.0, "converged": "2/2", "wall_s": 0.0234},
    {"problem": "analytic2d", "n": 2, "kernel": "exp", "OutIter": 5, "InIter": 29,
     "Res": 2.27e-11, "Feas": 3.865e-12, "converged": "1/2", "wall_s": 0.0271},
]
PINNED_DETAIL = [
    {"problem": "analytic2d", "n": 2, "kernel": "exp", "start": 0, "status": "converged",
     "OutIter": 5, "InIter": 29, "Res": 2.27e-11, "Feas": 3.865e-12, "wall_s": 0.0124},
    {"problem": "analytic2d", "n": 2, "kernel": "exp", "start": 1,
     "status": "max_outer_exceeded", "OutIter": 5, "InIter": 12, "Res": 0.5, "Feas": 1.25,
     "wall_s": 0.0146},
]
NOTES = [
    "worst-case aggregation per (problem, kernel): max OutIter and InIter over all starts, "
    "max Res and Feas over converged starts, converged = count/starts",
    "monotone:* rows are a synthetic tridiagonal family standing in for cited test problems "
    "whose definitions are not recoverable",
    "wall_s is elapsed wall-clock seconds (time.perf_counter), not CPU time; it is not "
    "reproducible and excluded from every comparison",
]
MD_MAIN = [
    "| problem | n | kernel | OutIter | InIter | Res | Feas | converged | wall_s |",
    "|---|---|---|---|---|---|---|---|---|",
    "| analytic2d | 2 | rational | 7 | 33 | 1.000e-08 | 0.000e+00 | 2/2 | 0.023 |",
    "| analytic2d | 2 | exp | 5 | 29 | 2.270e-11 | 3.865e-12 | 1/2 | 0.027 |",
]
MD_DETAIL = [
    "",
    "per-start detail",
    "",
    "| problem | n | kernel | start | status | OutIter | InIter | Res | Feas | wall_s |",
    "|---|---|---|---|---|---|---|---|---|---|",
    "| analytic2d | 2 | exp | 0 | converged | 5 | 29 | 2.270e-11 | 3.865e-12 | 0.012 |",
    "| analytic2d | 2 | exp | 1 | max_outer_exceeded | 5 | 12 | 5.000e-01 | 1.250e+00 | 0.015 |",
]
CSV_MAIN = [
    "problem,n,kernel,OutIter,InIter,Res,Feas,converged,wall_s",
    "analytic2d,2,rational,7,33,1.000e-08,0.000e+00,2/2,0.023",
    "analytic2d,2,exp,5,29,2.270e-11,3.865e-12,1/2,0.027",
]
CSV_DETAIL = [
    "# per-start detail",
    "problem,n,kernel,start,status,OutIter,InIter,Res,Feas,wall_s",
    "analytic2d,2,exp,0,converged,5,29,2.270e-11,3.865e-12,0.012",
    "analytic2d,2,exp,1,max_outer_exceeded,5,12,5.000e-01,1.250e+00,0.015",
]


def test_format_md_text():
    head = [f"> {note}" for note in NOTES] + [""]
    assert format_table(PINNED_ROWS, "md") == "\n".join(head + MD_MAIN)
    assert format_table(PINNED_ROWS, "md", PINNED_DETAIL) == "\n".join(head + MD_MAIN + MD_DETAIL)


def test_format_csv_text():
    head = [f"# {note}" for note in NOTES]
    assert format_table(PINNED_ROWS, "csv") == "\n".join(head + CSV_MAIN)
    assert format_table(PINNED_ROWS, "csv", PINNED_DETAIL) == "\n".join(
        head + CSV_MAIN + CSV_DETAIL
    )


def test_format_json_text():
    doc = {"notes": NOTES, "columns": COLUMNS, "rows": PINNED_ROWS}
    assert format_table(PINNED_ROWS, "json") == json.dumps(doc, indent=2)
    doc["per_start"] = PINNED_DETAIL
    assert format_table(PINNED_ROWS, "json", PINNED_DETAIL) == json.dumps(doc, indent=2)


def test_format_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        format_table(PINNED_ROWS, "xml")


# --- analyze -----------------------------------------------------------------------------

REPORT_KEYS = ["check", "kernel", "property", "grid", "outcome", "max_defect", "witness", "details"]
PROBE_KEYS = {
    "limits": ["s", "t", "limit", "min", "defect", "consistent"],
    "speed": REPORT_KEYS[2:],
}


@pytest.mark.parametrize(
    "check, keys",
    [
        ("ha", ["check", "kernel", "outcome", "a", "s_max", "holds_from", "violated_at"]),
        ("limits", ["check", "kernel", "outcome", "probes"]),
        ("subadd_v", REPORT_KEYS),
        ("concavity", REPORT_KEYS),
        ("speed", ["check", "kernel", "outcome", "probes"]),
    ],
)
def test_analyze_key_order(check, keys):
    result = run_analyze("rational", check)
    assert list(result) == keys
    assert result["check"] == check and result["kernel"] == "rational"
    assert result["outcome"] == "holds"
    if check in PROBE_KEYS:
        assert [list(probe) for probe in result["probes"]] == [PROBE_KEYS[check]] * 4


# --- trace -------------------------------------------------------------------------------


def test_trace_lines():
    lines, ok = run_trace(small_run(starts_per_problem=1))
    assert ok is True
    assert lines[0] == "kernel,outer_index,r,x_1,x_2,F_1,F_2,res,feas"
    for selector in ("rational", "exp"):
        block = [l.split(",") for l in lines[1:] if l.startswith(selector + ",")]
        assert block, f"no rows for {selector}"
        rs = [float(row[2]) for row in block]
        assert all(b < a for a, b in zip(rs, rs[1:]))
        assert [int(row[1]) for row in block] == list(range(len(block)))
        assert float(block[-1][6 + 2]) <= 1e-8


# --- command line entry -------------------------------------------------------------------


def test_main_solve_exit_code(capsys):
    assert main(["solve", "--problem", "analytic2d", "--theta", "exp"]) == 0
    assert "analytic2d" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "trace", "bench"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_main_rejects_tolerances_that_are_not_finite_and_positive(command, tol, capsys):
    # solve --tol inf used to report every start converged, and exit 0
    assert main([command, "--problem", "ks", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: outer_tol must be finite and positive\n"


def test_main_analyze_exit_codes(capsys):
    assert main(["analyze", "--theta", "rational", "--check", "concavity"]) == 0
    assert main(["analyze", "--theta", "rational", "--check", "ha", "--a", "0.25"]) == 0
    assert main(["analyze", "--theta", "rational", "--check", "ha", "--a", "0.75"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("selector", ["phi:1:inf", "phi:inf", "phi:1.0009765625"])
def test_main_analyze_rejects_degenerate_kernels(selector, capsys):
    # a kernel that cannot be built is a usage error: exit 2, no report
    assert main(["analyze", "--theta", selector, "--check", "speed"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_reports_kernel_arithmetic_errors(capsys):
    # phi:1.002 builds (psi(1) = 3e-151), but psi underflows inside each
    # check's soft-min: exit 2 with the same message, no traceback
    for check in ("speed", "limits", "concavity"):
        assert main(["analyze", "--theta", "phi:1.002", "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: soft-min evaluation left the representable range of psi\n"


def test_main_rejects_unknown_check(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--theta", "rational", "--check", "nonsense"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_main_bench_writes_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main([
        "bench", "--problem", "analytic2d", "--theta", "exp",
        "--starts", "2", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == ",".join(COLUMNS)
    capsys.readouterr()


def test_main_trace_writes_file(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["trace", "--problem", "analytic2d", "--theta", "exp", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "kernel,outer_index,r,x_1,x_2,F_1,F_2,res,feas"
    capsys.readouterr()


def test_main_trace_exit_code_follows_convergence(capsys):
    # hphard:50/exp ends max_outer_exceeded from the ones start; trace used
    # to print its points and exit 0 where solve exits 1
    argv = ["--problem", "hphard:50", "--theta", "exp"]
    assert main(["solve", *argv]) == 1
    assert "status=max_outer_exceeded" in capsys.readouterr().out
    assert main(["trace", *argv]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kernel,outer_index,r,x_1,")
    assert len(lines) > 1 and all(line.startswith("exp,") for line in lines[1:])


def test_main_unwritable_output(capsys):
    code = main([
        "bench", "--problem", "analytic2d", "--theta", "exp",
        "--starts", "1", "--out", "/nonexistent_dir_xyz/table.md",
    ])
    assert code == 1
    code = main([
        "trace", "--problem", "analytic2d", "--theta", "exp",
        "--out", "/nonexistent_dir_xyz/trace.csv",
    ])
    assert code == 1
    capsys.readouterr()
