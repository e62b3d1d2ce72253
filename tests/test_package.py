"""What `import smoothncp` loads, the names it exposes, and how its modules
import each other."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import smoothncp

# Run in a fresh interpreter, so that no other test has imported a submodule.
IMPORT_PROBE = """
import contextlib, io, json, sys
import smoothncp

def package_modules():
    return sorted(m for m in sys.modules if m.startswith("smoothncp"))

loaded = package_modules()
smoothncp.check_speed_bound(smoothncp.kernel_from_selector("phi:3"), 1.0, 2.0, 0.5)
check_loaded = package_modules()
listed = set(dir(smoothncp))
missing_from_dir = [name for name in smoothncp.__all__ if name not in listed]
unresolved = [name for name in smoothncp.__all__ if not hasattr(smoothncp, name)]
loaded_after = package_modules()

# every catalog head, the seeded ones with and without a seed, the protocol
# starts, a one-start bench draw through the library's own generator, and a
# two-start bench command
from smoothncp.problems import _CATALOG
selectors = [head if not spec.fields else f"{head}:{spec.n + 2}" for head, spec in _CATALOG.items()]
selectors += [f"{head}:{spec.n + 3}:7" for head, spec in _CATALOG.items() if spec.fields == 2]
problems = [smoothncp.ProblemSpec.from_selector(text) for text in selectors]
for spec in problems:
    spec.build()
smoothncp.generate_starts(5, 11, 1)
smoothncp.run_bench(smoothncp.BenchRun(tuple(problems), ("rational",), starts_per_problem=1))
with contextlib.redirect_stdout(io.StringIO()):
    bench_code = smoothncp.cli.main(["bench", "--problem", "hphard:20", "--starts", "2"])
print(json.dumps({
    "loaded": loaded,
    "check_loaded": check_loaded,
    "missing_from_dir": missing_from_dir,
    "unresolved": unresolved,
    "loaded_after": loaded_after,
    "built": selectors,
    "bench_code": bench_code,
    "numpy_random": "numpy.random" in sys.modules,
}))
"""


# A bench command in a fresh interpreter: only analyze uses the kernel checks.
BENCH_PROBE = """
import contextlib, io, json, sys
from smoothncp import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["bench", "--problem", "ks", "--starts", "1"])
print(json.dumps({"code": code, "analysis": "smoothncp.analysis" in sys.modules}))
"""


def _run_probe(code):
    src = str(Path(smoothncp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_import_loads_no_submodule():
    probe = _run_probe(IMPORT_PROBE)
    assert probe["loaded"] == ["smoothncp"]
    # a kernel check loads the kernels, the soft-min and the checks, and no
    # module of the solver stack
    assert probe["check_loaded"] == [
        "smoothncp",
        "smoothncp._power",
        "smoothncp.analysis",
        "smoothncp.kernels",
        "smoothncp.smoothing",
    ]
    assert probe["missing_from_dir"] == []
    assert probe["unresolved"] == []
    # resolving every public name loads every submodule
    assert {f"smoothncp.{module}" for module in smoothncp._LAZY} <= set(probe["loaded_after"])
    # no library path imports numpy.random, only the tests do
    assert len(probe["built"]) == len(set(probe["built"])) == 9
    assert probe["bench_code"] == 0
    assert not probe["numpy_random"]


def test_bench_does_not_load_the_kernel_checks():
    assert _run_probe(BENCH_PROBE) == {"code": 0, "analysis": False}


def test_lazy_table_is_each_module_public_surface():
    # each submodule's __all__, and cli's three bench names; every one
    # resolves to the object its module defines
    surfaces = {
        module: import_module(f"smoothncp.{module}").__all__
        for module in ("kernels", "ncp", "problems", "smoothing", "solver", "analysis")
    }
    surfaces["cli"] = ["BenchRun", "generate_starts", "run_bench"]
    assert {module: sorted(names) for module, names in smoothncp._LAZY.items()} == {
        module: sorted(names) for module, names in surfaces.items()
    }
    for module, names in smoothncp._LAZY.items():
        assert getattr(smoothncp, module) is import_module(f"smoothncp.{module}")
        for name in names:
            assert getattr(smoothncp, name) is getattr(getattr(smoothncp, module), name)


def test_lazy_names_are_the_submodule_objects():
    from smoothncp import analysis, cli, kernels

    assert smoothncp.analysis is analysis and smoothncp.cli is cli
    assert smoothncp.check_Ha is analysis.check_Ha
    assert smoothncp.HaReport is analysis.HaReport
    assert smoothncp.check_speed_bound is analysis.check_speed_bound
    assert smoothncp.run_bench is cli.run_bench
    assert not hasattr(kernels, "check_Ha")


def test_public_names():
    assert len(smoothncp.__all__) == len(set(smoothncp.__all__)) == 35
    assert sorted(smoothncp.__all__) == [
        "AnalysisReport", "AnalyticBranch", "BenchRun", "EvalCounter", "EvaluationError",
        "HaReport", "InnerStatus", "LimitEstimate", "NcpProblem", "ProblemSpec",
        "SmoothingKernel", "SolveReport", "SolveStatus", "SolverConfig", "TracePoint",
        "check_Ha", "check_concavity", "check_speed_bound", "check_subadditivity",
        "continuation_solve", "fd_jacobian", "feas_metric", "g_hessian_entries", "g_r",
        "g_r_deriv_r", "g_r_partials", "generate_starts", "kernel_from_selector", "l_function",
        "limit_probe", "log_grid", "problem_from_selector", "res_metric", "run_bench",
        "v_function",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'p0_sample_test'"):
        getattr(smoothncp, "p0_sample_test")


# each module of the package and the package modules it imports, those
# imported inside a function included; kernels imports _power only inside
# the power kernel's factory, so the pair does not import in a cycle
LAYERS = {
    "__init__": set(),
    "__main__": {"cli"},
    "_draws": set(),
    "_power": {"kernels"},
    "analysis": {"kernels", "smoothing"},
    "cli": {"_draws", "analysis", "kernels", "problems", "solver"},
    "kernels": {"_power"},
    "ncp": set(),
    "problems": {"_draws", "ncp"},
    "smoothing": {"kernels"},
    "solver": {"kernels", "ncp", "smoothing"},
}


def test_module_layering():
    imports = {}
    for path in Path(smoothncp.__file__).parent.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # `from .m import x` names m; `from . import m, n` names m and n
                found |= {node.module} if node.module else {a.name for a in node.names}
        imports[path.stem] = found
    assert imports == LAYERS
