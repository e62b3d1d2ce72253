"""What `import smoothncp` loads, and the names it exposes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothncp

# Run in a fresh interpreter, so that no other test has imported a submodule.
IMPORT_PROBE = """
import json, sys
import smoothncp

loaded = sorted(m for m in sys.modules if m.startswith("smoothncp"))
listed = set(dir(smoothncp))
missing_from_dir = [name for name in smoothncp.__all__ if name not in listed]
unresolved = [name for name in smoothncp.__all__ if not hasattr(smoothncp, name)]
loaded_after = sorted(m for m in sys.modules if m.startswith("smoothncp"))

# every catalog head, the seeded ones with and without a seed, the protocol
# starts and a one-start bench draw through the library's own generator
from smoothncp.problems import _CATALOG
selectors = [head if not spec.fields else f"{head}:{spec.n + 2}" for head, spec in _CATALOG.items()]
selectors += [f"{head}:{spec.n + 3}:7" for head, spec in _CATALOG.items() if spec.fields == 2]
problems = [smoothncp.ProblemSpec.from_selector(text) for text in selectors]
for spec in problems:
    spec.build()
smoothncp.generate_starts(5, 11, 1)
smoothncp.run_bench(smoothncp.BenchRun(tuple(problems), ("rational",), starts_per_problem=1))
print(json.dumps({
    "loaded": loaded,
    "missing_from_dir": missing_from_dir,
    "unresolved": unresolved,
    "loaded_after": loaded_after,
    "built": selectors,
    "numpy_random": "numpy.random" in sys.modules,
}))
"""


def _run_probe():
    src = str(Path(smoothncp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_import_loads_only_the_solver_stack():
    probe = _run_probe()
    assert probe["loaded"] == [
        "smoothncp",
        "smoothncp.kernels",
        "smoothncp.ncp",
        "smoothncp.problems",
        "smoothncp.smoothing",
        "smoothncp.solver",
    ]
    assert probe["missing_from_dir"] == []
    assert probe["unresolved"] == []
    # resolving every public name loads the analysis and CLI modules
    assert "smoothncp.analysis" in probe["loaded_after"]
    assert "smoothncp.cli" in probe["loaded_after"]
    # no library path imports numpy.random, only the tests do
    assert len(probe["built"]) == len(set(probe["built"])) == 9
    assert not probe["numpy_random"]


def test_lazy_names_are_the_submodule_objects():
    from smoothncp import analysis, cli, kernels

    assert smoothncp.analysis is analysis and smoothncp.cli is cli
    assert smoothncp.check_Ha is analysis.check_Ha
    assert smoothncp.HaReport is analysis.HaReport
    assert smoothncp.check_speed_bound is analysis.check_speed_bound
    assert smoothncp.run_bench is cli.run_bench
    assert not hasattr(kernels, "check_Ha")


def test_public_names():
    assert len(smoothncp.__all__) == len(set(smoothncp.__all__)) == 44
    assert sorted(smoothncp.__all__) == [
        "AnalysisReport", "AnalyticBranch", "BenchRun", "ErrorModulus", "EvalCounter",
        "EvaluationError", "HaReport", "InnerResult", "InnerStatus", "LimitEstimate",
        "NcpProblem", "ProblemSpec", "SmoothingKernel", "SolveReport", "SolveStatus",
        "SolverConfig", "TracePoint", "check_Ha", "check_concavity", "check_speed_bound",
        "check_subadditivity", "continuation_solve", "error_bound", "fd_jacobian",
        "feas_metric", "g_hessian_entries", "g_r", "g_r_deriv_r", "g_r_partials",
        "generate_starts", "h_r", "h_r_jacobian", "kernel_from_selector", "l_function",
        "limit_probe", "log_grid", "newton_inner", "problem_from_selector",
        "quadratic_modulus", "r_init", "r_update", "res_metric", "run_bench", "v_function",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'p0_sample_test'"):
        getattr(smoothncp, "p0_sample_test")
