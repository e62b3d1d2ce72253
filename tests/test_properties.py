"""Invariants of continuation_solve over the inputs it accepts.

Each example draws a catalog selector (seeded sizes included), a kernel
selector and a start whose entries are 0 or +-10^k for k in [-300, 300],
then checks what every SolveReport must satisfy, whatever its status.
"""

import functools
import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from smoothncp import (
    EvaluationError,
    SolveStatus,
    SolverConfig,
    continuation_solve,
    kernel_from_selector,
    problem_from_selector,
)

KERNELS = ("rational", "exp", "phi:3", "phi:1.5", "phi:2")
OUTER_TOL = SolverConfig().outer_tol

selectors = st.one_of(
    st.sampled_from(["analytic2d", "ks", "nash5", "nash10"]),
    st.builds("hphard:{}:{}".format, st.integers(1, 6), st.integers(0, 3)),
    st.builds("monotone:{}".format, st.integers(2, 6)),
    st.builds("linspd:{}:{}".format, st.integers(1, 6), st.integers(0, 3)),
)
entries = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, k: sign * 10.0 ** k, st.sampled_from([-1.0, 1.0]), st.integers(-300, 300)),
)

problem = functools.cache(problem_from_selector)
kernel = functools.cache(kernel_from_selector)


def f_or_nan(prob, x):
    with np.errstate(all="ignore"):
        try:
            return prob.F(x)
        except EvaluationError:
            return np.full(prob.n, math.nan)


@settings(derandomize=True, database=None)
@given(selector=selectors, ksel=st.sampled_from(KERNELS), data=st.data())
def test_solve_report_invariants(selector, ksel, data):
    prob = problem(selector)
    x0 = np.array(data.draw(st.lists(entries, min_size=prob.n, max_size=prob.n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = continuation_solve(prob, kernel(ksel), x0)

    assert rep.status in set(SolveStatus)
    if rep.status is SolveStatus.CONVERGED:
        assert rep.res <= OUTER_TOL and rep.feas <= math.sqrt(OUTER_TOL)
    assert len(rep.trace) == rep.out_iter
    last = rep.trace[-1]
    assert rep.x_final is last.x
    assert (rep.res, rep.feas) == (last.res, last.feas)
    inner_iters = sum(tp.inner_iters for tp in rep.trace)
    assert rep.in_iter >= inner_iters and rep.f_evals >= inner_iters
    if not all(math.isfinite(res) for res in [rep.res] + [tp.res for tp in rep.trace]):
        assert rep.status is SolveStatus.EVALUATION_ERROR
    for tp in rep.trace:
        assert tp.fx.tobytes() == f_or_nan(prob, tp.x).tobytes()
