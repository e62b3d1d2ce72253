"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints exactly one line "ACCEPTANCE C<k>: PASS|FAIL" (visible
with pytest -s, or in captured output on failure) and then asserts.  The
checks are end to end: they run the public API the way the benchmark
driver does, with tolerances stated inline.
"""

import functools
import time

import numpy as np
import pytest

from smoothncp import (
    BenchRun,
    InnerStatus,
    ProblemSpec,
    SolverConfig,
    SolveStatus,
    check_concavity,
    check_speed_bound,
    continuation_solve,
    error_bound,
    g_hessian_entries,
    g_r,
    g_r_deriv_r,
    generate_starts,
    h_r,
    h_r_jacobian,
    kernel_from_selector,
    l_function,
    newton_inner,
    problem_from_selector,
    quadratic_modulus,
)
from smoothncp.cli import DEFAULT_KERNELS as KERNELS, DEFAULT_SUITE as SUITE, _campaign

ALL_PROBLEMS = ("analytic2d", "ks", "nash5", "nash10", "hphard:20", "monotone:10", "linspd:8")


def criterion(k):
    """Print the verdict line for criterion k, even when the body raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                note = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE C{k}: FAIL")
                raise
            print(f"ACCEPTANCE C{k}: PASS" + (f"  [{note}]" if note else ""))

        return run

    return wrap


@pytest.fixture(scope="session")
def benchmark_runs():
    """Default suite, both kernels, the 11 protocol starts, default config."""
    run = BenchRun(problems=tuple(ProblemSpec.from_selector(s) for s in SUITE), kernels=KERNELS)
    t0 = time.perf_counter()
    runs = [
        (problem, kernel_name, report)
        for problem, kernel_name, reports in _campaign(run)
        for report in reports
    ]
    return time.perf_counter() - t0, runs


@criterion(1)
def test_c1_model_problem_fast_convergence():
    problem = problem_from_selector("analytic2d")
    cfg = SolverConfig(outer_tol=1e-10)
    outer_budget = {"exp": 5, "rational": 8}
    t0 = time.perf_counter()
    reports = {
        name: continuation_solve(problem, kernel_from_selector(name), np.ones(2), cfg)
        for name in outer_budget
    }
    elapsed = time.perf_counter() - t0
    for name, rep in reports.items():
        assert rep.status is SolveStatus.CONVERGED, name
        assert rep.res <= 1e-10, (name, rep.res)
        assert rep.out_iter <= outer_budget[name], (name, rep.out_iter)
    assert elapsed < 1.0, elapsed
    return "OutIter exp/rational = {}/{}".format(
        reports["exp"].out_iter, reports["rational"].out_iter
    )


@criterion(2)
def test_c2_degenerate_problem_all_protocol_starts():
    problem = problem_from_selector("ks")
    cfg = SolverConfig(outer_tol=1e-12)
    starts = generate_starts(problem.n, 11, seed=1)
    worst_dist = 0.0
    t0 = time.perf_counter()
    for name in KERNELS:
        kernel = kernel_from_selector(name)
        for x0 in starts:
            rep = continuation_solve(problem, kernel, x0, cfg)
            assert rep.status is SolveStatus.CONVERGED, (name, x0)
            assert rep.res <= 1e-8 and rep.feas <= 1e-6, (name, rep.res, rep.feas)
            assert rep.out_iter <= 10, (name, rep.out_iter)
            dist = min(
                float(np.linalg.norm(rep.x_final - sol))
                for sol in problem.known_solutions
            )
            worst_dist = max(worst_dist, dist)
            assert dist <= 1e-5, (name, dist)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    return f"worst solution distance {worst_dist:.2e}"


@criterion(3)
def test_c3_exponential_kernel_needs_fewer_inner_steps(benchmark_runs):
    elapsed, runs = benchmark_runs
    totals = {name: 0 for name in KERNELS}
    for _, kernel_name, rep in runs:
        assert rep.status is SolveStatus.CONVERGED, kernel_name
        totals[kernel_name] += rep.in_iter
    assert totals["exp"] < totals["rational"], totals
    assert elapsed < 120.0, elapsed
    return "summed InIter exp/rational = {}/{}".format(totals["exp"], totals["rational"])


@criterion(4)
def test_c4_soft_min_never_exceeds_min():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    for name in KERNELS:
        kernel = kernel_from_selector(name)
        for r in rng.uniform(1e-6, 1.0, 200):
            s = rng.uniform(-10.0, 10.0, 500)
            t = rng.uniform(-10.0, 10.0, 500)
            gap = np.minimum(s, t) - g_r(kernel, s, t, float(r))
            assert np.all(gap >= 0.0), (name, r, gap.min())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    return "2 x 100000 triples, zero tolerance"


@criterion(5)
def test_c5_limit_gaps():
    rng = np.random.default_rng(5)
    exp_kernel = kernel_from_selector("exp")
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for r in rng.uniform(1e-6, 1.0, 100):
        s = rng.uniform(1e-3, 10.0, 100)
        t = rng.uniform(1e-3, 10.0, 100)
        gap = np.minimum(s, t) - g_r(exp_kernel, s, t, float(r))
        assert np.all(gap <= r * np.log(2.0)), (r, gap.max())
        worst_ratio = max(worst_ratio, float(gap.max() / (r * np.log(2.0))))
    rational = kernel_from_selector("rational")
    grid = np.linspace(0.1, 10.0, 101)
    ss, tt = np.meshgrid(grid, grid)
    dev = np.abs(g_r(rational, ss, tt, 1e-8) - ss * tt / (ss + tt))
    assert dev.max() <= 1e-6, dev.max()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    return f"exp gap/(r ln2) <= {worst_ratio:.4f}; rational limit dev {dev.max():.2e}"


@criterion(6)
def test_c6_translation_rate_closed_forms():
    alpha = np.linspace(1e-6, 10.0, 4001)
    rational = kernel_from_selector("rational")
    exp_kernel = kernel_from_selector("exp")
    dev_rat = np.max(np.abs(l_function(rational, alpha) + alpha / 2.0))
    dev_exp = np.max(np.abs(l_function(exp_kernel, alpha) + alpha))
    assert dev_rat <= 1e-9, dev_rat
    assert dev_exp <= 1e-9, dev_exp
    r_e, t_e, s_e = g_hessian_entries(exp_kernel, 1.0, 1.0)
    assert abs(r_e + 0.25) <= 1e-10 and abs(t_e + 0.25) <= 1e-10, (r_e, t_e)
    assert abs(s_e - 0.25) <= 1e-10, s_e
    assert abs(r_e * t_e - s_e**2) <= 1e-10
    return f"L deviations {dev_rat:.1e}/{dev_exp:.1e}"


@criterion(7)
def test_c7_concavity_on_fine_grid():
    grid = np.geomspace(0.1, 10.0, 512)
    t0 = time.perf_counter()
    for name in ("rational", "exp", "phi:3"):
        rep = check_concavity(kernel_from_selector(name), grid)
        assert rep.outcome == "holds", (name, rep.witness)
        assert rep.details["hessian_route"] == rep.details["l_route"] == "holds", name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    return "rational, exp, phi:3 on 512^2 points, both routes"


@criterion(8)
def test_c8_decrease_speed_envelope():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    for name in KERNELS:
        kernel = kernel_from_selector(name)
        for _ in range(1000):
            s = float(rng.uniform(0.05, 10.0))
            t = float(rng.uniform(0.05, 10.0))
            r0 = float(rng.uniform(1e-3, 1.0))
            rep = check_speed_bound(kernel, s, t, r0)
            assert rep.outcome == "holds", (name, s, t, r0, rep.witness)
    # equality case: for the rational kernel the envelope is tight as r -> 0
    rational = kernel_from_selector("rational")
    r = 1e-6
    worst = 0.0
    for s in np.linspace(0.1, 10.0, 15):
        for t in np.linspace(0.1, 10.0, 15):
            f0 = s * t / (s + t)
            defect = r * g_r_deriv_r(rational, s, t, r) - (g_r(rational, s, t, r) - f0)
            worst = max(worst, abs(float(defect)))
    assert worst <= 1e-9, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    return f"2000 random envelopes; equality defect {worst:.1e}"


@criterion(9)
def test_c9_product_bound_at_solved_levels(benchmark_runs):
    _, runs = benchmark_runs
    checked = 0
    worst = -np.inf
    for problem, kernel_name, rep in runs:
        assert rep.status is SolveStatus.CONVERGED, kernel_name
        for tp in rep.trace:
            if tp.inner_status is not InnerStatus.SUCCESS:
                continue  # level handed over on budget, no root certificate
            checked += 1
            margin = float(np.max(tp.x * tp.fx)) - tp.r**2
            worst = max(worst, margin)
            assert margin <= 1e-8, (problem.name, kernel_name, tp.r, margin)
    assert checked >= 100, checked
    return f"{checked} solved levels, worst x_i F_i - r^2 = {worst:.2e}"


@criterion(10)
def test_c10_error_bound_on_linear_spd():
    problem = problem_from_selector("linspd:8:7")
    lam = problem.meta["lambda_min"]
    x_star = problem.meta["x_star"]
    modulus = quadratic_modulus(lam)
    cfg = SolverConfig(inner_tol=1e-12)
    t0 = time.perf_counter()
    notes = []
    for name in KERNELS:
        kernel = kernel_from_selector(name)
        for r in (1e-1, 1e-2, 1e-3):
            inner = newton_inner(problem, kernel, r, np.ones(8), cfg)
            assert inner.status is InnerStatus.SUCCESS, (name, r, inner.status)
            residual = float(np.max(np.abs(h_r(problem, kernel, inner.x, r))))
            assert residual <= 1e-12, (name, r, residual)
            err = float(np.linalg.norm(inner.x - x_star))
            bound = error_bound(modulus, 8, r) + 1e-6
            assert err <= bound, (name, r, err, bound)
            notes.append(err / bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    return f"worst err/bound ratio {max(notes):.3f}"


@criterion(11)
def test_c11_jacobian_matches_central_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for pi, selector in enumerate(ALL_PROBLEMS):
        problem = problem_from_selector(selector)
        rng = np.random.default_rng([11, pi])
        points = rng.uniform(0.5, 3.0, (10, problem.n))
        for name in KERNELS:
            kernel = kernel_from_selector(name)
            for r in (1.0, 1e-2):
                for x in points:
                    jac = h_r_jacobian(problem, kernel, x, r)
                    num = np.empty_like(jac)
                    for j in range(problem.n):
                        step = 1e-7 * (1.0 + abs(x[j]))
                        xp, xm = x.copy(), x.copy()
                        xp[j] += step
                        xm[j] -= step
                        num[:, j] = (
                            h_r(problem, kernel, xp, r) - h_r(problem, kernel, xm, r)
                        ) / (2.0 * step)
                    err = np.max(np.abs(num - jac)) / (1.0 + np.max(np.abs(jac)))
                    worst = max(worst, float(err))
                    assert err <= 1e-6, (selector, name, r, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    return f"worst relative deviation {worst:.2e}"


@criterion(12)
def test_c12_thousand_dimensional_run():
    problem = problem_from_selector("monotone:1000")
    t0 = time.perf_counter()
    notes = []
    for name in KERNELS:
        kernel = kernel_from_selector(name)
        rep = continuation_solve(problem, kernel, np.ones(1000))
        assert rep.status is SolveStatus.CONVERGED, name
        assert rep.res <= 1e-8, (name, rep.res)
        notes.append(f"{name} {rep.out_iter}/{rep.in_iter}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, elapsed
    return "; ".join(notes) + f"; {elapsed:.1f}s"
