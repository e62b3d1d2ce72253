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

# each module's __all__ is its public surface, and the package re-exports it
from . import kernels, ncp, problems, smoothing, solver
from .kernels import *
from .ncp import *
from .problems import *
from .smoothing import *
from .solver import *

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


__all__ = sorted(
    [name for module in (kernels, ncp, problems, smoothing, solver) for name in module.__all__]
    + [name for name, module in _LAZY.items() if name != module]
)
