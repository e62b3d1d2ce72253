"""Soft-min smoothing and continuation Newton solver for complementarity problems.

The library replaces the nonsmooth condition min(x_i, F_i(x)) = 0 with a
one parameter family of smooth equations H_r(x) = 0 built from a kernel
function, and drives r to zero with a fixed continuation schedule.

`import smoothncp` loads no submodule.  Each of them (kernels, smoothing,
ncp, problems, solver, analysis and cli) loads on first use: the first
access to one of its public names, or to the module itself, imports it and
the modules it imports.  A kernel check thus loads kernels, smoothing and
analysis, and never the solver stack.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names the package re-exports from it: its
# __all__, and for cli the three names of the bench front end
_LAZY = {
    "kernels": ("AnalyticBranch", "SmoothingKernel", "kernel_from_selector"),
    "smoothing": ("g_r", "g_r_partials"),
    "ncp": (
        "EvalCounter", "EvaluationError", "NcpProblem", "fd_jacobian", "res_metric",
        "feas_metric",
    ),
    "problems": ("ProblemSpec", "problem_from_selector"),
    "solver": (
        "SolveStatus", "InnerStatus", "SolverConfig", "TracePoint", "SolveReport",
        "continuation_solve",
    ),
    "analysis": (
        "AnalysisReport", "HaReport", "LimitEstimate", "check_Ha", "log_grid", "v_function",
        "l_function", "check_subadditivity", "g_hessian_entries", "check_concavity",
        "limit_probe", "g_r_deriv_r", "check_speed_bound",
    ),
    "cli": ("BenchRun", "generate_starts", "run_bench"),
}

# each submodule and public name with the submodule that defines it
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name):
    """Import the submodule behind a name of _HOME, and keep the name."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__all__ = sorted(name for names in _LAZY.values() for name in names)
