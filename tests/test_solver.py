"""Damped Newton inner solver and the r-continuation outer loop."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from smoothncp import (
    EvalCounter,
    EvaluationError,
    InnerStatus,
    NcpProblem,
    SolveStatus,
    SolverConfig,
    continuation_solve,
    g_r,
    generate_starts,
    h_r,
    h_r_jacobian,
    kernel_from_selector,
    problem_from_selector,
)
from smoothncp.ncp import feas_metric, res_metric
from smoothncp import solver as solver_module
from smoothncp.cli import DEFAULT_SUITE
from smoothncp.solver import InnerResult, newton_inner, r_init, r_update, solve_tridiagonal


def line1d():
    """F(x) = x - 1: closed-form smoothed roots for both shipped kernels."""
    return NcpProblem(
        name="line1d", n=1, eval_F=lambda x: x - 1.0,
        eval_JF=lambda x: np.eye(1), known_solutions=[np.array([1.0])],
    )


def bowl():
    """F(x) = (x - 5)^2 + 1, undefined for x <= 1: no root on the domain.

    Near x = 5 Newton steps on the merit point far past its minimum, so the
    line search keeps cutting them short."""

    def eval_F(x):
        if x[0] <= 1.0:
            raise EvaluationError("bowl is defined for x > 1")
        return (x - 5.0) ** 2 + 1.0

    return NcpProblem(
        name="bowl", n=1, eval_F=eval_F,
        eval_JF=lambda x: np.array([[2.0 * (x[0] - 5.0)]]),
    )


def nan_jacobian_problem():
    return NcpProblem(
        name="nanjac", n=1, eval_F=lambda x: x - 10.0,
        eval_JF=lambda x: np.array([[math.nan]]),
    )


# --- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = SolverConfig()
    assert (cfg.outer_tol, cfg.inner_tol) == (1e-8, 1e-10)
    assert (cfg.max_outer, cfg.max_inner) == (50, 200)
    assert solver_module.R_FLOOR == 1e-16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"outer_tol": 0.0},
        {"outer_tol": -1.0},
        {"outer_tol": math.nan},
        {"outer_tol": solver_module.R_FLOOR ** 2},
        {"inner_tol": -1e-10},
        {"inner_tol": 0.0},
        {"inner_tol": math.nan},
        {"max_outer": 0},
        {"max_inner": 0},
        {"max_inner": -1},
        {"outer_tol": 1e-33},
        {"outer_tol": math.inf},
        {"inner_tol": math.inf},
        {"max_outer": 2.5},
        {"max_inner": 10.0},
        {"max_outer": "3"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# --- schedule ----------------------------------------------------------------


def test_r_init_examples(analytic2d_problem):
    x = np.ones(2)
    assert r_init(res_metric(x, analytic2d_problem.eval_F(x))) == 1.0
    assert r_init(9.0) == 3.0
    assert r_init(0.25) == 1.0


def test_r_update_examples():
    assert r_update(1.0, 1e-4) == 0.01
    assert r_update(0.01, 1e-9) == 3.1622776601683795e-05
    assert r_update(1e-10, 1e-40) == 1e-16
    # Res = 0 drops the sqrt(Res) term: min(0.1 r, r^2)
    assert r_update(0.5, 0.0) == 0.05
    assert r_update(0.05, 0.0) == 0.05 * 0.05
    with pytest.raises(ValueError):
        r_update(0.0, 1.0)


# --- inner solver --------------------------------------------------------------


def test_inner_exponential_closed_form_root(exponential):
    res = newton_inner(line1d(), exponential, 0.1, np.zeros(1))
    assert res.status is InnerStatus.SUCCESS
    assert res.iterations <= 10
    assert res.x[0] == pytest.approx(0.1 * math.log1p(math.exp(10.0)), abs=1e-9)
    assert np.max(np.abs(h_r(line1d(), exponential, res.x, 0.1))) <= 1e-10


def test_inner_rational_closed_form_root(rational):
    res = newton_inner(line1d(), rational, 0.5, np.ones(1))
    assert res.status is InnerStatus.SUCCESS
    assert res.iterations <= 10
    assert res.x[0] == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0, abs=1e-9)


def merits_of(problem, kernel, r, x0, iterations):
    """The merit 0.5 ||H_r||^2 at x0 and at the first `iterations` iterates.

    The iterate k is where a run with the budget max_inner = k stops: such
    runs are prefixes of the unbudgeted one."""
    points = [np.asarray(x0, dtype=float)] + [
        newton_inner(problem, kernel, r, x0, SolverConfig(max_inner=k)).x
        for k in range(1, iterations + 1)
    ]
    return [0.5 * float(h @ h) for h in (h_r(problem, kernel, x, r) for x in points)]


def test_inner_merit_strictly_decreases(kernel):
    mono = problem_from_selector("monotone:10")
    counter = EvalCounter()
    res = newton_inner(mono, kernel, 0.1, np.ones(10), counter=counter)
    assert res.status is InnerStatus.SUCCESS
    merits = merits_of(mono, kernel, 0.1, np.ones(10), res.iterations)
    assert all(b < a for a, b in zip(merits, merits[1:]))
    assert counter.jac_evals == res.iterations


def test_inner_quadratic_tail(exponential):
    mono = problem_from_selector("monotone:10")
    res = newton_inner(mono, exponential, 0.1, np.ones(10))
    merits = merits_of(mono, exponential, 0.1, np.ones(10), res.iterations)
    # ignore values at the floating-point floor of the squared residual
    for a, b in zip(merits, merits[1:]):
        if a < 1e-12:
            continue
        assert b <= 100.0 * a * a


def test_inner_warm_start_is_free(exponential):
    root = newton_inner(line1d(), exponential, 0.1, np.zeros(1)).x
    warm = newton_inner(line1d(), exponential, 0.1, root)
    assert warm.status is InnerStatus.SUCCESS
    assert warm.iterations == 0


def test_inner_dense_step_solves_with_h_r_jacobian(kernel, ks_problem):
    # near the nondegenerate ks solution the full Newton step is accepted;
    # it must be the step of the matrix h_r_jacobian returns, to the bit
    r = 1e-3
    x0 = ks_problem.known_solutions[0] + np.array([2e-3, 1e-3, -1e-3, 1e-3])
    res = newton_inner(ks_problem, kernel, r, x0, SolverConfig(max_inner=1))
    assert res.iterations == 1
    jac = h_r_jacobian(ks_problem, kernel, x0, r)
    step = np.linalg.solve(jac, -h_r(ks_problem, kernel, x0, r))
    assert res.x.tobytes() == (x0 + step).tobytes()


def test_inner_stalls_on_short_steps(kernel):
    counter = EvalCounter()
    res = newton_inner(bowl(), kernel, 0.01, np.array([5.3]), counter=counter)
    assert res.status is InnerStatus.STALLED
    assert res.iterations >= 1
    merits = merits_of(bowl(), kernel, 0.01, np.array([5.3]), res.iterations)
    assert all(b < a for a, b in zip(merits, merits[1:]))
    assert merits[-1] > 0.3  # a stall, not a root
    # the same accepted steps, stopped by the budget just before the stall:
    # the stalled level keeps the last accepted iterate, and its last search
    # tried a = 1, 1/2, ..., STALL_ALPHA and nothing shorter
    before = EvalCounter()
    cfg = SolverConfig(max_inner=res.iterations)
    budget = newton_inner(bowl(), kernel, 0.01, np.array([5.3]), cfg, before)
    assert budget.status is InnerStatus.MAX_ITERATIONS
    assert budget.x.tobytes() == res.x.tobytes()
    assert counter.f_evals - before.f_evals == 7
    assert 0.5 ** 6 == solver_module.STALL_ALPHA


def test_finite_step_check():
    step = np.array([1e200, -1e200])
    assert solver_module._finite(step) is step
    assert solver_module._finite(np.array([1.0, math.nan])) is None
    assert solver_module._finite(np.array([math.inf, 1.0])) is None
    assert solver_module._finite(None) is None


def test_inner_singular_jacobian(exponential):
    res = newton_inner(nan_jacobian_problem(), exponential, 1.0, np.zeros(1))
    assert res.status is InnerStatus.SINGULAR_JACOBIAN
    assert res.iterations == 0


def test_inner_rejects_bad_r(exponential):
    with pytest.raises(ValueError):
        newton_inner(line1d(), exponential, 0.0, np.zeros(1))


# --- continuation --------------------------------------------------------------


def test_continuation_converges(kernel, analytic2d_problem):
    rep = continuation_solve(analytic2d_problem, kernel, np.ones(2))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.res <= 1e-8
    assert rep.feas <= 1e-6
    rs = [tp.r for tp in rep.trace]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    assert rep.out_iter == len(rep.trace)
    assert rep.in_iter >= rep.out_iter
    assert rep.in_iter >= sum(tp.inner_iters for tp in rep.trace)
    assert np.array_equal(rep.x_final, rep.trace[-1].x)
    assert rep.res == rep.trace[-1].res
    assert all(isinstance(tp.inner_status, InnerStatus) for tp in rep.trace)
    assert rep.trace[-1].inner_status is InnerStatus.SUCCESS


@pytest.mark.parametrize("selector", ["analytic2d", "ks", "monotone:10"])
def test_continuation_reports_f_evals(kernel, selector):
    # every F evaluation of the run, line-search trials included, and no other
    problem = problem_from_selector(selector)
    calls = []

    def eval_F(x):
        calls.append(1)
        return problem.eval_F(x)

    counted = dataclasses.replace(problem, eval_F=eval_F)
    for x0 in generate_starts(problem.n, 3, seed=1):
        calls.clear()
        rep = continuation_solve(counted, kernel, x0)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.f_evals == len(calls)
        assert rep.f_evals > rep.in_iter


def spy_inner(monkeypatch, reply=None):
    """Record (start, result) of every inner solve; when reply is given,
    return it in place of a real solve."""
    calls = []
    real = solver_module.newton_inner

    def spy(problem, kernel, r, x0, cfg=None, counter=None, fx0=None):
        result = real(problem, kernel, r, x0, cfg, counter, fx0) if reply is None else reply
        calls.append((np.array(x0), result))
        return result

    monkeypatch.setattr(solver_module, "newton_inner", spy)
    return calls


def canned(status):
    """An inner result at x = (-1, 2) of F(x) = x - 1."""
    return InnerResult(
        x=np.array([-1.0, 2.0]), fx=np.array([-2.0, 1.0]), iterations=2, status=status,
    )


@pytest.mark.parametrize(
    "status", [s for s in InnerStatus if s is not InnerStatus.SINGULAR_JACOBIAN])
def test_continuation_projects_only_failed_and_stalled_levels(exponential, monkeypatch, status):
    f_calls = []

    def eval_F(x):
        f_calls.append(1)
        return x - 1.0

    shifted = NcpProblem(name="shifted", n=2, eval_F=eval_F, eval_JF=lambda x: np.eye(2))
    calls = spy_inner(monkeypatch, canned(status))
    rep = continuation_solve(shifted, exponential, np.ones(2), SolverConfig(max_outer=2))
    assert rep.status is SolveStatus.MAX_OUTER_EXCEEDED
    handed = [0.0, 2.0] if status is InnerStatus.STALLED else [-1.0, 2.0]
    assert np.array_equal(calls[1][0], handed)
    assert rep.trace[0].inner_status is status
    assert np.array_equal(rep.trace[0].x, handed)
    # F(x0), then F at each projected point, counted
    assert rep.f_evals == len(f_calls) == (3 if status is InnerStatus.STALLED else 1)
    # the report ends after a projection: its Res and Feas are those of x_final
    assert np.array_equal(rep.x_final, handed)
    fx = np.array(handed) - 1.0
    assert (rep.res, rep.feas) == (res_metric(rep.x_final, fx), feas_metric(rep.x_final, fx))


def test_continuation_projection_evaluation_error(exponential, monkeypatch):
    def eval_F(x):
        if (x == 0.0).any():
            raise EvaluationError("F is undefined where x has a zero entry")
        return x - 1.0

    holes = NcpProblem(name="holes", n=2, eval_F=eval_F, eval_JF=lambda x: np.eye(2))
    spy_inner(monkeypatch, canned(InnerStatus.STALLED))
    rep = continuation_solve(holes, exponential, np.ones(2))
    assert rep.status is SolveStatus.EVALUATION_ERROR
    assert math.isinf(rep.res) and math.isinf(rep.feas)
    assert np.array_equal(rep.x_final, [0.0, 2.0])
    assert rep.trace[-1].inner_status is InnerStatus.STALLED
    assert np.isnan(rep.trace[-1].fx).all()
    # F(x0), then the F call that raised at the projected point
    assert rep.f_evals == 2


def test_continuation_needs_feasibility_to_converge(exponential, analytic2d_problem, monkeypatch):
    # the stall projects (-1, -1) onto (0, 0), where every x_i F_i = 0, so
    # Res = 0, but F(0, 0) = (2, -2) violates F >= 0
    x = np.array([-1.0, -1.0])
    stalled = InnerResult(
        x=x, fx=analytic2d_problem.eval_F(x), iterations=1, status=InnerStatus.STALLED)
    spy_inner(monkeypatch, stalled)
    rep = continuation_solve(analytic2d_problem, exponential, np.ones(2))
    assert rep.trace[0].res == 0.0 and rep.trace[0].feas == 2.0
    assert rep.status is SolveStatus.MAX_OUTER_EXCEEDED
    assert (rep.res, rep.feas) == (0.0, 2.0)


def test_analytic2d_projected_stall_start_converges(exponential, analytic2d_problem):
    # the first level stalls at r ~ 311 and projects onto (0, 0), which
    # ended the run there as converged with Feas 2
    x0 = generate_starts(2, 30, seed=1752995437)[28]
    rep = continuation_solve(analytic2d_problem, exponential, x0)
    assert (rep.trace[0].res, rep.trace[0].feas) == (0.0, 2.0)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.res <= 1e-8 and rep.feas <= 1e-4


def test_zero_res_level_contracts_r_by_the_schedule(exponential, analytic2d_problem):
    # the first two levels stall at (0, 0), where Res = 0: r must keep
    # contracting by 0.1, not drop to R_FLOOR through sqrt(Res) = 0
    x0 = generate_starts(2, 30, seed=1752995437)[28]
    rep = continuation_solve(analytic2d_problem, exponential, x0)
    rs = [tp.r for tp in rep.trace]
    assert rs[0] == pytest.approx(311.4675215520394)
    assert rs[1:] == [min(0.1 * a, a * a) for a in rs[:-1]]
    assert (rep.out_iter, rep.f_evals) == (5, 66)
    assert rep.status is SolveStatus.CONVERGED


# Summed (OutIter, InIter, F evals) over the 33 protocol starts at seed 1 of
# the default-suite rows whose line searches never need a step below
# STALL_ALPHA: every level ends success, so neither the stall rule nor the
# projection touches them, and their work must not move with either.
UNSTALLED_ROWS = {
    ("monotone:10", "rational"): (197, 864, 897),
    ("monotone:10", "exp"): (163, 601, 635),
    ("monotone:100", "rational"): (197, 882, 915),
    ("monotone:100", "exp"): (163, 618, 652),
    ("hphard:20", "rational"): (230, 1477, 1965),
    ("hphard:20", "exp"): (197, 1469, 2709),
    ("nash5", "rational"): (198, 722, 755),
    ("nash5", "exp"): (99, 392, 425),
}


@pytest.mark.parametrize("selector", DEFAULT_SUITE)
def test_default_suite_rows(kernel, selector):
    problem = problem_from_selector(selector)
    reports = [continuation_solve(problem, kernel, x0)
               for x0 in generate_starts(problem.n, 33, seed=1)]
    for rep in reports:
        assert rep.status is SolveStatus.CONVERGED
        assert rep.res <= 1e-8 and rep.feas <= 1e-4
    expected = UNSTALLED_ROWS.get((selector, kernel.name))
    if expected is None:
        return
    assert all(tp.inner_status is InnerStatus.SUCCESS for rep in reports for tp in rep.trace)
    work = tuple(sum(getattr(rep, f) for rep in reports) for f in ("out_iter", "in_iter", "f_evals"))
    assert work == expected


def test_continuation_hands_on_projected_iterates(kernel, ks_problem, monkeypatch):
    # start 29 of this seed leads both kernels to stall at r ~ 0.49 with
    # x_3 < 0, where ks/exp used to stay: a non-root stationary point of
    # the merit
    x0 = generate_starts(4, 30, seed=4047793131)[29]
    calls = spy_inner(monkeypatch)
    rep = continuation_solve(ks_problem, kernel, x0)
    assert rep.status is SolveStatus.CONVERGED
    assert len(calls) == len(rep.trace)
    projected = 0
    for (_, inner), (nxt, _), tp in zip(calls, calls[1:], rep.trace):
        assert tp.inner_status is inner.status
        if inner.status is InnerStatus.STALLED:
            projected += (inner.x < 0.0).any()
            assert np.array_equal(nxt, np.maximum(inner.x, 0.0))
        else:
            assert np.array_equal(nxt, inner.x)
        assert np.array_equal(nxt, tp.x)
    assert projected
    for x, res, feas in [(tp.x, tp.res, tp.feas) for tp in rep.trace] + [
            (rep.x_final, rep.res, rep.feas)]:
        fx = ks_problem.eval_F(x)
        assert (res, feas) == (res_metric(x, fx), feas_metric(x, fx))


def test_ks_stationary_trap_start_converges(kernel, ks_problem):
    # ks/exp ended max_outer_exceeded here at Res 0.2, every level after
    # r ~ 0.49 stuck at x = (-0.005, 2.13, -0.25, 0.02)
    x0 = generate_starts(4, 30, seed=4047793131)[29]
    rep = continuation_solve(ks_problem, kernel, x0)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.res <= 1e-8


def test_continuation_statuses_are_strings():
    assert SolveStatus.CONVERGED.value == "converged"
    assert SolveStatus.MAX_OUTER_EXCEEDED.value == "max_outer_exceeded"
    assert SolveStatus.INNER_FAILURE.value == "inner_failure"
    assert SolveStatus.EVALUATION_ERROR.value == "evaluation_error"
    assert InnerStatus.SUCCESS.value == "success"
    assert InnerStatus.SINGULAR_JACOBIAN.value == "singular_jacobian"
    assert InnerStatus.STALLED.value == "stalled"


def test_continuation_evaluation_error(exponential):
    nash = problem_from_selector("nash5")
    rep = continuation_solve(nash, exponential, -np.ones(5))
    assert rep.status is SolveStatus.EVALUATION_ERROR
    assert rep.out_iter == 1 and len(rep.trace) == 1
    assert math.isinf(rep.res) and math.isinf(rep.trace[0].r)
    assert rep.trace[0].inner_status is None


def test_continuation_max_outer(exponential):
    rep = continuation_solve(
        problem_from_selector("hphard:20"), exponential, np.ones(20),
        SolverConfig(max_outer=1))
    assert rep.status is SolveStatus.MAX_OUTER_EXCEEDED
    assert rep.out_iter == 1


def test_continuation_stops_at_r_floor(exponential):
    mono = problem_from_selector("monotone:10")
    rep = continuation_solve(mono, exponential, np.ones(10), SolverConfig(outer_tol=1e-30))
    assert rep.status is SolveStatus.MAX_OUTER_EXCEEDED
    assert rep.trace[-1].r == 1e-16
    # the iterate itself is essentially solved, only the tolerance is absurd
    assert rep.res <= 1e-12


def test_continuation_inner_failure(exponential):
    rep = continuation_solve(nan_jacobian_problem(), exponential, np.zeros(1))
    assert rep.status is SolveStatus.INNER_FAILURE
    assert len(rep.trace) == 1
    assert rep.trace[0].inner_status is InnerStatus.SINGULAR_JACOBIAN


def nan_on_calls(problem, calls):
    """A copy of `problem` whose Jacobian is NaN on the given calls, counted from 0."""
    made = itertools.count()

    def eval_JF(x):
        jf = problem.eval_JF(x)
        return np.full_like(jf, math.nan) if next(made) in calls else jf

    return dataclasses.replace(problem, eval_JF=eval_JF)


@pytest.mark.parametrize(
    "selector, kernel_name, level", [("analytic2d", "exp", 1), ("monotone:10", "rational", 2)])
def test_singular_level_ends_the_run(selector, kernel_name, level):
    problem, kernel = problem_from_selector(selector), kernel_from_selector(kernel_name)
    x0 = np.ones(problem.n)
    clean = continuation_solve(problem, kernel, x0)
    assert all(tp.inner_status is InnerStatus.SUCCESS for tp in clean.trace)
    assert len(clean.trace) > level + 1
    # every level before `level` is solved, one Jacobian per iteration
    first = sum(tp.inner_iters for tp in clean.trace[:level])
    r_failed = clean.trace[level].r

    # the level's first Jacobian is NaN: the run ends at that level
    rep = continuation_solve(nan_on_calls(problem, {first}), kernel, x0)
    assert rep.status is SolveStatus.INNER_FAILURE
    assert len(rep.trace) == rep.out_iter == level + 1
    point = rep.trace[level]
    assert (point.r, point.inner_iters) == (r_failed, 0)
    assert point.inner_status is InnerStatus.SINGULAR_JACOBIAN
    assert np.array_equal(point.x, rep.trace[level - 1].x)
    assert rep.in_iter == first + 1


def test_continuation_rejects_bad_start_shape(exponential, analytic2d_problem):
    with pytest.raises(ValueError):
        continuation_solve(analytic2d_problem, exponential, np.ones(3))


@pytest.mark.parametrize("x0", [[math.inf, 1.0], [1.0, -math.inf], [math.nan, 1.0]])
def test_continuation_rejects_non_finite_start(kernel, analytic2d_problem, x0):
    # [inf, 1] blamed r, and [nan, 1] ended inner_failure with Res = NaN
    with pytest.raises(ValueError, match="the start must be finite"):
        continuation_solve(analytic2d_problem, kernel, x0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["F overflows", "Res overflows", "F is NaN"])
def test_continuation_start_out_of_range_is_an_evaluation_error(kernel, analytic2d_problem, case):
    # the path an EvaluationError at the start takes: one trace point at
    # level 0 and r = inf, where r_init(inf) used to fail inside g_r
    problem, x0 = {
        "F overflows": (analytic2d_problem, [1e300, 1e300]),
        "Res overflows": (NcpProblem(name="id", n=1, eval_F=lambda x: x), [1e200]),
        "F is NaN": (NcpProblem(name="nan", n=1, eval_F=lambda x: x * math.nan), [1.0]),
    }[case]
    rep = continuation_solve(problem, kernel, x0)
    assert rep.status is SolveStatus.EVALUATION_ERROR
    assert (rep.out_iter, rep.in_iter, rep.f_evals) == (1, 0, 1)
    assert math.isinf(rep.res) and math.isinf(rep.feas)
    (point,) = rep.trace  # level 0 is the trace's first point
    assert (point.inner_iters, point.inner_status) == (0, None)
    assert math.isinf(point.r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_continuation_level_out_of_range_is_an_evaluation_error(exponential, analytic2d_problem):
    # level 0 stalls at r ~ 1e100 and hands on x = (0, 5.4e97), where
    # F_2 = 1.6e293 and Res = x_2 F_2 = inf; the 49 levels after it used to
    # stall with 0 iterations and end max_outer_exceeded at Res = inf
    rep = continuation_solve(analytic2d_problem, exponential, [1e50, 1e50])
    assert rep.status is SolveStatus.EVALUATION_ERROR
    assert math.isinf(rep.res) and math.isinf(rep.feas)
    (point,) = rep.trace  # level 0 is the trace's first point
    assert point.inner_status is InnerStatus.STALLED
    assert point.r == pytest.approx(1e100)
    assert math.isinf(point.res) and math.isinf(point.feas)
    assert np.array_equal(point.x, rep.x_final)
    assert point.fx.tobytes() == analytic2d_problem.F(point.x).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("selector, ksel, x0, status", [
    # F's cubes overflow at the start
    ("analytic2d", "rational", [1e150, 1e150], SolveStatus.EVALUATION_ERROR),
    ("analytic2d", "exp", [1e150, 1e150], SolveStatus.EVALUATION_ERROR),
    # JF is not finite, and the Newton step's diagonal nudge meets inf - inf
    ("nash5", "rational", [1e-150] * 5, SolveStatus.INNER_FAILURE),
    ("nash10", "exp", [1e-120] * 10, SolveStatus.INNER_FAILURE),
])
def test_continuation_emits_no_runtime_warning(selector, ksel, x0, status):
    rep = continuation_solve(problem_from_selector(selector), kernel_from_selector(ksel), x0)
    assert rep.status is status


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("selector, ksel, r, x0, status", [
    # F's cubes overflow at the start, where evaluation errors propagate
    ("analytic2d", "exp", 1e100, [1e150] * 2, None),
    # JF is not finite, and the Newton step's diagonal nudge meets inf - inf
    ("nash5", "rational", 1.0, [1e-150] * 5, InnerStatus.SINGULAR_JACOBIAN),
    ("nash10", "exp", 1.0, [1e-120] * 10, InnerStatus.SINGULAR_JACOBIAN),
    # F's squares overflow at the start; later steps stay finite, then stall
    ("ks", "rational", 1e-3, [1e160] * 4, InnerStatus.STALLED),
])
def test_newton_inner_emits_no_runtime_warning(selector, ksel, r, x0, status):
    problem, kernel = problem_from_selector(selector), kernel_from_selector(ksel)
    if status is None:
        with pytest.raises(FloatingPointError, match="soft-min"):
            newton_inner(problem, kernel, r, x0)
    else:
        assert newton_inner(problem, kernel, r, x0).status is status


def raising_jacobian(exc):
    """line1d whose Jacobian raises exc, so that its first level breaks off."""

    def eval_JF(x):
        raise exc

    return dataclasses.replace(line1d(), eval_JF=eval_JF)


@pytest.mark.parametrize("problem, ksel, x0, status, levels", [
    (problem_from_selector("ks"), "rational", [1.0] * 4, SolveStatus.CONVERGED, 6),
    # the level budget runs out
    (problem_from_selector("analytic2d"), "rational", [1e50] * 2,
     SolveStatus.MAX_OUTER_EXCEEDED, 50),
    # every level stalls and r is pinned at R_FLOOR
    (problem_from_selector("nash5"), "rational", [0.0, 1.0, 0.0, 0.0, 1.0],
     SolveStatus.MAX_OUTER_EXCEEDED, 8),
    # Res is not finite at the start, and then after the first level
    (problem_from_selector("analytic2d"), "rational", [1e300] * 2,
     SolveStatus.EVALUATION_ERROR, 1),
    (problem_from_selector("analytic2d"), "exp", [1e50] * 2, SolveStatus.EVALUATION_ERROR, 1),
    # the first level's Newton matrix is singular
    (problem_from_selector("nash5"), "rational", [1e-150] * 5, SolveStatus.INNER_FAILURE, 1),
    # the inner solve raises
    (raising_jacobian(EvaluationError("no JF here")), "exp", [0.0], SolveStatus.EVALUATION_ERROR, 1),
    (raising_jacobian(ZeroDivisionError("JF divides by 0")), "exp", [0.0],
     SolveStatus.INNER_FAILURE, 1),
], ids=["converged", "budget", "floor", "start", "level", "singular", "raise-eval", "raise-arith"])
def test_report_reads_its_last_trace_point(problem, ksel, x0, status, levels):
    rep = continuation_solve(problem, kernel_from_selector(ksel), x0)
    assert (rep.status, rep.out_iter) == (status, levels)
    last = rep.trace[-1]
    assert rep.x_final is last.x
    assert (rep.out_iter, rep.res, rep.feas) == (len(rep.trace), last.res, last.feas)


def test_solver_records_compare_by_identity(rational, ks_problem):
    # the records hold numpy arrays, on which a field-wise == would raise
    # "truth value of an array ... is ambiguous"
    a = continuation_solve(ks_problem, rational, np.ones(4))
    b = continuation_solve(ks_problem, rational, np.ones(4))
    assert a == a and a != b
    assert a.trace[0] == a.trace[0] and a.trace[0] != b.trace[0]
    assert {ks_problem: 1}[ks_problem] == 1


def test_trace_points_keep_f_at_their_x(kernel, ks_problem, analytic2d_problem):
    # from start 28 of this seed, analytic2d's first levels stall and project
    for problem, x0 in ((ks_problem, np.ones(4)),
                        (analytic2d_problem, generate_starts(2, 30, seed=1752995437)[28])):
        rep = continuation_solve(problem, kernel, x0)
        assert rep.status is SolveStatus.CONVERGED
        for tp in rep.trace:
            assert tp.fx.tobytes() == problem.F(tp.x).tobytes()

    def eval_F(x):
        raise EvaluationError("F is undefined everywhere")

    nowhere = NcpProblem(name="nowhere", n=2, eval_F=eval_F, eval_JF=lambda x: np.eye(2))
    rep = continuation_solve(nowhere, kernel, np.ones(2))
    assert rep.status is SolveStatus.EVALUATION_ERROR
    (point,) = rep.trace
    assert np.isnan(point.fx).all()


def test_continuation_deterministic(kernel, ks_problem):
    a = continuation_solve(ks_problem, kernel, np.ones(4))
    b = continuation_solve(ks_problem, kernel, np.ones(4))
    assert a.status is b.status
    assert (a.out_iter, a.in_iter, a.res, a.feas) == (b.out_iter, b.in_iter, b.res, b.feas)
    assert np.array_equal(a.x_final, b.x_final)
    for ta, tb in zip(a.trace, b.trace):
        assert (ta.r, ta.res, ta.feas, ta.inner_iters) == (tb.r, tb.res, tb.feas, tb.inner_iters)
        assert np.array_equal(ta.x, tb.x)


def test_residual_product_bound_at_solved_levels(kernel, analytic2d_problem, ks_problem):
    """At trace points where the inner solve reached its tolerance, each
    product x_i F_i stays below r^2 for reference-dominating kernels."""
    cfg = SolverConfig()
    for problem in (analytic2d_problem, ks_problem):
        rep = continuation_solve(problem, kernel, np.ones(problem.n), cfg)
        assert rep.status is SolveStatus.CONVERGED
        for tp in rep.trace:
            h = g_r(kernel, tp.x, problem.eval_F(tp.x), tp.r)
            if np.max(np.abs(h)) > cfg.inner_tol:
                continue
            products = tp.x * problem.eval_F(tp.x)
            assert products.max() <= tp.r**2 + 1e-8


# --- tridiagonal Newton steps --------------------------------------------------

EPS = np.finfo(float).eps


def tridiagonal_dense(dl, d, du):
    return np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)


def random_tridiagonal(n, kind, seed):
    rng = np.random.default_rng(seed)
    dl = rng.uniform(-2.0, 2.0, n - 1)
    du = rng.uniform(-2.0, 2.0, n - 1)
    d = rng.uniform(-2.0, 2.0, n)
    if kind == "small":  # pivots on the sub-diagonal at almost every step
        d *= 1e-6
    elif kind == "zero_first" and n > 1:  # the first step must swap rows
        d[0] = 0.0
    elif kind == "zero_odd":  # zero pivots at every odd row
        d[1::2] = 0.0
    return dl, d, du, rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("kind", ["plain", "small", "zero_first", "zero_odd"])
@pytest.mark.parametrize("seed", range(5))
def test_tridiagonal_solve_matches_dense_lu(n, kind, seed):
    dl, d, du, b = random_tridiagonal(n, kind, seed)
    a = tridiagonal_dense(dl, d, du)
    x = solve_tridiagonal(dl, d, du, b)
    ref = np.linalg.solve(a, b)
    # partial pivoting on a tridiagonal matrix has growth factor at most 2,
    # so both solves are backward stable and differ by O(n eps cond(A))
    tol = 100 * n * EPS
    assert x.shape == (n,)
    assert np.linalg.norm(x - ref) <= tol * np.linalg.cond(a) * np.linalg.norm(ref)
    residual = np.abs(a @ x - b).max()
    assert residual <= tol * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())


def test_tridiagonal_solve_swaps_rows_of_a_permutation():
    x = solve_tridiagonal([1.0], [0.0, 0.0], [1.0], [3.0, 5.0])
    assert np.array_equal(x, [5.0, 3.0])


@pytest.mark.parametrize(
    "dl, d, du",
    [
        ([], [0.0], []),
        ([2.0], [1.0, 4.0], [2.0]),
        ([1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
    ],
)
def test_tridiagonal_solve_singular_gives_none(dl, d, du):
    assert np.linalg.matrix_rank(tridiagonal_dense(dl, d, du)) < len(d)
    assert solve_tridiagonal(dl, d, du, np.ones(len(d))) is None


def test_tridiagonal_solve_nan_gives_non_finite():
    x = solve_tridiagonal([1.0], [math.nan, 1.0], [1.0], [1.0, 1.0])
    assert x is not None and not np.isfinite(x).all()


def dense_copy(problem):
    """The same problem with its Jacobian handed to the solver as a dense matrix."""

    def dense_jf(x):
        bands = problem.jacobian(x)
        return tridiagonal_dense(bands[2, :-1], bands[1], bands[0, 1:])

    return dataclasses.replace(problem, eval_JF=dense_jf, tridiagonal=False)


def solve_spy(monkeypatch):
    diagonals = []
    real = solver_module.solve_tridiagonal

    def spy(dl, d, du, b):
        diagonals.append(np.array(d))
        return real(dl, d, du, b)

    monkeypatch.setattr(solver_module, "solve_tridiagonal", spy)
    return diagonals


def test_inner_singular_tridiagonal_nudges_then_fails(exponential, monkeypatch):
    nan_tri = NcpProblem(
        name="nantri", n=3, eval_F=lambda x: x - 10.0,
        eval_JF=lambda x: np.full((3, 3), math.nan), tridiagonal=True,
    )
    diagonals = solve_spy(monkeypatch)
    counters = EvalCounter(), EvalCounter()
    tri = newton_inner(nan_tri, exponential, 1.0, np.zeros(3), counter=counters[0])
    dense = newton_inner(dense_copy(nan_tri), exponential, 1.0, np.zeros(3), counter=counters[1])
    assert len(diagonals) == 2  # the plain solve, then the nudged one
    for res, counter in zip((tri, dense), counters):
        assert res.status is InnerStatus.SINGULAR_JACOBIAN
        assert (res.iterations, counter.jac_evals) == (0, 1)


def test_inner_zero_tridiagonal_matrix_takes_the_nudged_step(exponential, monkeypatch):
    # F(x) = 2 - x at x = 1: s = t, so the exp partials are 1/2 each and the
    # Newton matrix 1/2 I + 1/2 JF vanishes exactly
    flip = NcpProblem(
        name="flip", n=2, eval_F=lambda x: 2.0 - x,
        eval_JF=lambda x: np.array([[0.0, 0.0], [-1.0, -1.0], [0.0, 0.0]]),
        tridiagonal=True,
    )
    cfg = SolverConfig(max_inner=1)
    diagonals = solve_spy(monkeypatch)
    tri = newton_inner(flip, exponential, 1.0, np.ones(2), cfg)
    assert np.array_equal(diagonals[0], [0.0, 0.0])
    assert np.array_equal(diagonals[1], [1e-10, 1e-10])
    dense = newton_inner(dense_copy(flip), exponential, 1.0, np.ones(2), cfg)
    assert tri.status is dense.status
    assert tri.iterations == dense.iterations
    assert np.array_equal(tri.x, dense.x)


def test_tridiagonal_continuation_matches_dense_copy_at_n1000(kernel):
    problem = problem_from_selector("monotone:1000")
    tri = continuation_solve(problem, kernel, np.ones(1000))
    dense = continuation_solve(dense_copy(problem), kernel, np.ones(1000))
    assert tri.status is dense.status is SolveStatus.CONVERGED
    assert (tri.out_iter, tri.in_iter) == (dense.out_iter, dense.in_iter)
    err = np.linalg.norm(tri.x_final - dense.x_final)
    assert err <= 1e-12 * np.linalg.norm(dense.x_final)


def test_tridiagonal_continuation_scales_to_n100000(exponential):
    # a dense M at this size would take 80 GB
    problem = problem_from_selector("monotone:100000")
    rep = continuation_solve(problem, exponential, np.ones(problem.n))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.res <= 1e-8
