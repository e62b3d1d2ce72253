"""Soft-min smoothing and continuation Newton solver for complementarity problems.

The library replaces the nonsmooth condition min(x_i, F_i(x)) = 0 with a
one parameter family of smooth equations H_r(x) = 0 built from a kernel
function, and drives r to zero with a fixed continuation schedule.

`import smoothncp` loads the solver stack: the kernels, smoothing, ncp,
problems and solver modules.  The analysis module (kernel property checks)
and the cli module (bench, trace and analyze front ends) load on first use:
the first access to one of their names, or to the module itself, imports it.
"""

from importlib import import_module

from .kernels import (
    AnalyticBranch,
    PhiLambdaParams,
    SmoothingKernel,
    kernel_from_selector,
    make_exponential,
    make_phi_lambda,
    make_rational,
)
from .ncp import (
    ErrorModulus,
    EvaluationError,
    NcpProblem,
    error_bound,
    feas_metric,
    quadratic_modulus,
    res_metric,
)
from .problems import (
    ProblemSpec,
    active_set_solve,
    analytic2d,
    hp_hard,
    kojima_shindo,
    linear_spd,
    nash_cournot,
    problem_from_selector,
    scalable_monotone,
)
from .smoothing import (
    EvalCounter,
    fd_jacobian,
    g_r,
    g_r_partials,
    h_r,
    h_r_jacobian,
)
from .solver import (
    InnerResult,
    InnerStatus,
    SolveReport,
    SolveStatus,
    SolverConfig,
    TracePoint,
    continuation_solve,
    newton_inner,
    r_init,
    r_update,
)

__version__ = "0.1.0"

# the names that load on first use, each with the submodule that defines it
_LAZY = {
    "analysis": "analysis",
    "AnalysisReport": "analysis",
    "HaReport": "analysis",
    "LimitEstimate": "analysis",
    "check_Ha": "analysis",
    "check_concavity": "analysis",
    "check_speed_bound": "analysis",
    "check_subadditivity": "analysis",
    "g_hessian_entries": "analysis",
    "g_r_deriv_r": "analysis",
    "l_function": "analysis",
    "limit_probe": "analysis",
    "log_grid": "analysis",
    "v_function": "analysis",
    "cli": "cli",
    "BenchRun": "cli",
    "generate_starts": "cli",
    "run_bench": "cli",
}


def __getattr__(name):
    """Import the submodule behind a name of _LAZY, and keep the name."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AnalysisReport",
    "AnalyticBranch",
    "BenchRun",
    "EvalCounter",
    "ErrorModulus",
    "EvaluationError",
    "HaReport",
    "InnerResult",
    "InnerStatus",
    "LimitEstimate",
    "NcpProblem",
    "PhiLambdaParams",
    "ProblemSpec",
    "SmoothingKernel",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "TracePoint",
    "active_set_solve",
    "analytic2d",
    "check_Ha",
    "check_concavity",
    "check_speed_bound",
    "check_subadditivity",
    "continuation_solve",
    "error_bound",
    "fd_jacobian",
    "feas_metric",
    "g_hessian_entries",
    "g_r",
    "g_r_deriv_r",
    "g_r_partials",
    "generate_starts",
    "h_r",
    "h_r_jacobian",
    "hp_hard",
    "kernel_from_selector",
    "kojima_shindo",
    "l_function",
    "limit_probe",
    "linear_spd",
    "log_grid",
    "make_exponential",
    "make_phi_lambda",
    "make_rational",
    "nash_cournot",
    "newton_inner",
    "problem_from_selector",
    "quadratic_modulus",
    "r_init",
    "r_update",
    "res_metric",
    "run_bench",
    "scalable_monotone",
    "v_function",
]
