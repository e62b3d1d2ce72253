"""Damped Newton inner solver wrapped in the r-continuation outer loop.

The outer schedule is fixed: r starts at max(1, sqrt(Res(x0))), each
inner solve appends a trace point, and r contracts by
max(R_FLOOR, min(0.1 r, r^2, sqrt(Res))) until Res <= outer_tol, the
sqrt(Res) term left out at Res = 0.  The inner solver is damped Newton on
the squared residual merit.  Its steps use dense LU, or an O(n)
tridiagonal elimination when the problem declares a tridiagonal
Jacobian.  Its Armijo line search tries the step lengths 1, 1/2, ...,
STALL_ALPHA.  A level only has to follow the smoothing path, not to solve
H_r = 0 exactly: when all of them fail it hands over to the next r
without taking a step (InnerStatus.STALLED), projected onto the
nonnegative orthant; the iterates of other levels are never projected.
A run converges when Res <= outer_tol and Feas <= sqrt(outer_tol): a
projected point can have Res = 0 and still violate F >= 0.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernels import SmoothingKernel, _all_finite
from .ncp import EvaluationError, NcpProblem, feas_metric, res_metric
from .smoothing import EvalCounter, _newton_matrix, g_r, g_r_partials

__all__ = [
    "SolveStatus",
    "InnerStatus",
    "SolverConfig",
    "TracePoint",
    "SolveReport",
    "continuation_solve",
]

# Armijo acceptance m(x + a d) <= (1 - 2 ARMIJO_SIGMA a) m(x).
ARMIJO_SIGMA = 1e-4
# An inner solve is stalled once its line search needs a step shorter than
# STALL_ALPHA: the level then costs many F evaluations per step and makes
# little progress, and the next r serves the path better.
STALL_ALPHA = 2.0 ** -6
_STEP_LENGTHS = tuple(2.0 ** -k for k in range(7))  # 1, 1/2, ..., STALL_ALPHA
# the smallest r of the schedule
R_FLOOR = 1e-16


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_OUTER_EXCEEDED = "max_outer_exceeded"
    INNER_FAILURE = "inner_failure"
    EVALUATION_ERROR = "evaluation_error"


class InnerStatus(str, Enum):
    SUCCESS = "success"
    MAX_ITERATIONS = "max_iterations"
    SINGULAR_JACOBIAN = "singular_jacobian"
    STALLED = "stalled"


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets for one continuation run."""

    outer_tol: float = 1e-8
    inner_tol: float = 1e-10
    max_outer: int = 50
    max_inner: int = 200

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("max_outer", "max_inner"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.outer_tol > R_FLOOR ** 2:
            raise ValueError("outer_tol must exceed R_FLOOR squared")


@dataclass(frozen=True, eq=False)
class TracePoint:
    """State after one outer iteration: the point handed on from one r.

    Its level is its index in SolveReport.trace.  fx is F at x, or NaN
    where F raised there.  inner_status is how that level's inner solve
    ended, or None when the level ended in an error before it returned.
    """

    r: float
    x: np.ndarray = field(repr=False)
    fx: np.ndarray = field(repr=False)
    res: float
    feas: float
    inner_iters: int
    inner_status: InnerStatus | None


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a continuation run; its final state is the last trace point.

    x_final, res and feas read trace[-1], and out_iter (r-values consumed)
    is len(trace).  in_iter is the total number of Jacobian evaluations
    across all inner solves and f_evals the total number of F evaluations,
    line-search trials included (the F calls of a forward-difference
    Jacobian count only as its one Jacobian evaluation).
    wall_time is informational only and excluded from any determinism or
    acceptance contract.
    """

    status: SolveStatus
    in_iter: int
    f_evals: int
    wall_time: float
    trace: list = field(repr=False)

    x_final = property(lambda self: self.trace[-1].x)
    out_iter = property(lambda self: len(self.trace))
    res = property(lambda self: self.trace[-1].res)
    feas = property(lambda self: self.trace[-1].feas)


@dataclass(frozen=True, eq=False)
class InnerResult:
    x: np.ndarray = field(repr=False)
    fx: np.ndarray = field(repr=False)
    iterations: int
    status: InnerStatus


def r_init(res: float) -> float:
    """Initial smoothing level max(1, sqrt(Res)) for the Res of the start."""
    return max(1.0, math.sqrt(res))


def r_update(r: float, res: float) -> float:
    """Next smoothing level max(R_FLOOR, min(0.1 r, r^2, sqrt(Res))).

    At Res = 0 (a projected point with every x_i F_i = 0) the sqrt(Res)
    term is left out, so that r does not drop to R_FLOOR in one level.
    """
    if not r > 0.0:
        raise ValueError("r must be positive")
    r_new = min(0.1 * r, r * r)
    if res > 0.0:
        r_new = min(r_new, math.sqrt(res))
    return max(R_FLOOR, r_new)


def solve_tridiagonal(dl, d, du, b):
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    dl, d and du are the sub-, main and super-diagonal (lengths n-1, n, n-1)
    and b the right-hand side.  The elimination is LAPACK's ?gtsv: a row
    interchange fills a second super-diagonal, kept in dl.  It runs on
    Python floats, which beats numpy's per-call overhead on 2-3 element
    updates.  Returns the solution, or None at an exactly zero pivot; a
    NaN entry yields a non-finite solution, not None.
    """
    n = len(d)
    dl, d, du, b = (np.asarray(v, dtype=float).tolist() for v in (dl, d, du, b))
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return None
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        return None
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


def _finite(d):
    return d if d is not None and _all_finite(d) else None


def _solve_dense(jac_h, h):
    try:
        return _finite(np.linalg.solve(jac_h, -h))
    except np.linalg.LinAlgError:
        return None


def _newton_step(jf, d1, d2, h, tridiagonal: bool):
    """Solve (D1 + D2 JF) d = -h, or return None when it stays singular.

    jf is the dense Jacobian, or its (3, n) bands when tridiagonal.  A
    singular or non-finite solve is retried once with a diagonal nudge of
    1e-10 (1 + row-sum norm).
    """
    jac_h = _newton_matrix(d1, d2, jf, tridiagonal)
    if tridiagonal:
        dl, diag, du = jac_h
        d = _finite(solve_tridiagonal(dl, diag, du, -h))
        if d is None:
            norm = np.abs(diag)
            norm[1:] += np.abs(dl)
            norm[:-1] += np.abs(du)
            bump = 1e-10 * (1.0 + float(norm.max()))
            d = _finite(solve_tridiagonal(dl, diag + bump, du, -h))
        return d
    d = _solve_dense(jac_h, h)
    if d is None:
        bump = 1e-10 * (1.0 + float(np.abs(jac_h).sum(axis=1).max()))
        jac_h[np.diag_indices_from(jac_h)] += bump
        d = _solve_dense(jac_h, h)
    return d


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def newton_inner(
    problem: NcpProblem,
    kernel: SmoothingKernel,
    r: float,
    x0,
    cfg: SolverConfig | None = None,
    counter: EvalCounter | None = None,
    fx0=None,
) -> InnerResult:
    """Damped Newton iteration on the smoothed residual at fixed r.

    Merit m(x) = 0.5 ||H_r(x)||^2 with Armijo acceptance
    m(x + a d) <= (1 - 2 ARMIJO_SIGMA a) m(x) for a = 1, 1/2, ...,
    STALL_ALPHA.  Trial points where F or the composition is undefined
    count as merit +inf and shorten the step; evaluation errors at the
    starting point propagate.  The solve ends STALLED, keeping the last
    accepted iterate, when every step length fails.  Passing fx0 (F at x0)
    skips the initial F evaluation.  numpy's overflow, divide and invalid
    warnings are off, as in continuation_solve.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not r > 0.0:
        raise ValueError("newton_inner requires r > 0")
    x = np.asarray(x0, dtype=float).copy()
    fx = problem.F(x, counter) if fx0 is None else np.asarray(fx0, dtype=float)
    h = g_r(kernel, x, fx, r)
    # np.vdot, unlike h @ h, raises no overflow warning: an inf merit only
    # shortens the step
    merit = 0.5 * float(np.vdot(h, h))
    hinf = float(np.abs(h).max())
    iters = 0

    def result(status):
        return InnerResult(x=x, fx=fx, iterations=iters, status=status)

    while hinf > cfg.inner_tol:
        if iters >= cfg.max_inner:
            return result(InnerStatus.MAX_ITERATIONS)
        jf = problem.jacobian(x, counter)
        try:
            d1, d2 = g_r_partials(kernel, x, fx, r)
        except ArithmeticError:
            return result(InnerStatus.SINGULAR_JACOBIAN)
        d = _newton_step(jf, d1, d2, h, problem.tridiagonal)
        if d is None:
            return result(InnerStatus.SINGULAR_JACOBIAN)
        for alpha in _STEP_LENGTHS:
            trial = x + alpha * d
            try:
                fx_t = problem.F(trial, counter)
                h_t = g_r(kernel, trial, fx_t, r)
                merit_t = 0.5 * float(np.vdot(h_t, h_t))
            except (EvaluationError, ArithmeticError):
                merit_t = math.inf
            # strict inequality keeps every accepted step a real decrease
            # even when the Armijo bound rounds to merit itself
            if merit_t < merit and merit_t <= (1.0 - 2.0 * ARMIJO_SIGMA * alpha) * merit:
                break
        else:
            return result(InnerStatus.STALLED)
        x, fx, h, merit = trial, fx_t, h_t, merit_t
        hinf = float(np.abs(h).max())
        iters += 1
    return result(InnerStatus.SUCCESS)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def continuation_solve(
    problem: NcpProblem,
    kernel: SmoothingKernel,
    x0,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Solve the complementarity problem by driving r to zero.

    Inner solves that stall or exhaust their budgets hand their best iterate
    to the next, smaller r: at large r the smoothed system may have no
    root at all, so a merit stall there is expected, not fatal.  When the
    level stalled, negative entries of that iterate are set to zero first,
    and F, Res and Feas are evaluated at the projected point:
    this moves the iterate off non-root stationary points of the merit in
    the infeasible region.  A hard inner breakdown (singular linearization)
    ends the run with inner_failure at that level, which keeps its trace
    point.  Domain errors at accepted or projected points, and a start or
    level whose Res is not finite, end the run with evaluation_error at
    Res = Feas = inf; a start that is not finite raises ValueError.  The
    run converges at the first level with Res <= outer_tol and Feas <=
    sqrt(outer_tol); Res alone is zero at any projected point where each
    x_i F_i = 0, even when some F_i < 0.  The run handles inf and NaN
    itself, so numpy's overflow, divide and invalid warnings are off for
    all of it, F and JF included.
    """
    if cfg is None:
        cfg = SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError(f"expected start of shape ({problem.n},), got {x.shape}")
    if not _all_finite(x):
        raise ValueError("the start must be finite")
    counter = EvalCounter()
    feas_tol = math.sqrt(cfg.outer_tol)
    trace: list[TracePoint] = []
    t0 = time.perf_counter()

    def report(status):
        wall_time = time.perf_counter() - t0
        return SolveReport(status, counter.jac_evals, counter.f_evals, wall_time, trace)

    def stop(status, r, res, feas):
        """Keep a trace point at the current x and fx, then end the run."""
        trace.append(TracePoint(r, x.copy(), fx, res, feas, 0, None))
        return report(status)

    def f_or_nan():
        try:
            return problem.F(x, counter)
        except EvaluationError:
            return np.full(problem.n, math.nan)

    fx = f_or_nan()
    res = res_metric(x, fx)
    # F(x0) or Res(x0) out of range would set r to inf: no level can start
    if not math.isfinite(res):
        return stop(SolveStatus.EVALUATION_ERROR, math.inf, math.inf, math.inf)
    feas = feas_metric(x, fx)
    r = r_init(res)
    for _ in range(cfg.max_outer):
        try:
            inner = newton_inner(problem, kernel, r, x, cfg, counter, fx0=fx)
        except EvaluationError:
            return stop(SolveStatus.EVALUATION_ERROR, r, math.inf, math.inf)
        except ArithmeticError:
            return stop(SolveStatus.INNER_FAILURE, r, res, feas)
        x, fx = inner.x, inner.fx
        if inner.status is InnerStatus.STALLED and (x < 0.0).any():
            x = np.maximum(x, 0.0)
            fx = f_or_nan()
        res, feas = res_metric(x, fx), feas_metric(x, fx)
        end = None
        if not math.isfinite(res):
            # F raised at the projected point, or x_i F_i left the floats:
            # no later level can start from here
            res = feas = math.inf
            end = SolveStatus.EVALUATION_ERROR
        elif inner.status is InnerStatus.SINGULAR_JACOBIAN:
            end = SolveStatus.INNER_FAILURE
        elif res <= cfg.outer_tol and feas <= feas_tol:
            end = SolveStatus.CONVERGED
        trace.append(TracePoint(r, x.copy(), fx, res, feas, inner.iterations, inner.status))
        if end is not None:
            return report(end)
        r_new = r_update(r, res)
        if r_new >= r:
            # pinned at the floor, the schedule cannot contract further
            break
        r = r_new
    return report(SolveStatus.MAX_OUTER_EXCEEDED)
