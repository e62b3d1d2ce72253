"""Problem abstraction, residual metrics, moduli, and sampled P-checks."""

import math

import numpy as np
import pytest

from smoothncp import EvalCounter, NcpProblem, feas_metric, res_metric

from error_estimate import ErrorModulus, error_bound, quadratic_modulus

# The tests of the sampled P-checks live with the checks in p_sampling.py;
# imported here, they run as tests of this module.
from p_sampling import (  # noqa: F401
    test_p0_sample_flags_antimonotone,
    test_p0_sample_holds_on_shipped_problems,
    test_p_sample_hr_flags_antimonotone,
    test_p_sample_hr_strictly_positive_on_monotone,
)


# --- metrics -------------------------------------------------------------------


def test_res_metric_values():
    assert res_metric([1.0, 2.0], [3.0, -1.0]) == 3.0
    assert res_metric([0.0, 1.0], [2.0, 0.0]) == 0.0


def test_feas_metric_values():
    assert feas_metric([1.0, -2.0], [-3.0, 4.0]) == 5.0
    assert feas_metric([0.0, 1.0], [2.0, 0.0]) == 0.0


def test_feas_metric_is_positive_zero_when_feasible():
    assert math.copysign(1.0, feas_metric([0.0, 1.0, 3.0], [2.0, 0.0, 0.5])) == 1.0
    assert math.copysign(1.0, feas_metric([-0.0, 1.0], [2.0, -0.0])) == 1.0


def test_metrics_reject_shape_mismatch():
    with pytest.raises(ValueError):
        res_metric([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        feas_metric([1.0], [1.0, 2.0])


def test_metrics_vanish_exactly_at_solutions(analytic2d_problem):
    for sol in analytic2d_problem.known_solutions:
        fx = analytic2d_problem.eval_F(sol)
        assert res_metric(sol, fx) <= 1e-8
        assert feas_metric(sol, fx) <= 1e-8


# --- problem construction and evaluation ----------------------------------------


def test_problem_rejects_bad_dimension():
    with pytest.raises(ValueError):
        NcpProblem(name="empty", n=0, eval_F=lambda x: x)


def test_problem_rejects_bad_known_solution():
    with pytest.raises(ValueError, match="fails validation"):
        NcpProblem(
            name="line1d", n=1, eval_F=lambda x: x - 1.0,
            known_solutions=[np.array([2.0])],
        )


def test_evaluation_shape_checks():
    p = NcpProblem(name="plain", n=2, eval_F=lambda x: x)
    with pytest.raises(ValueError, match="expected point"):
        p.F(np.ones(3))
    truncating = NcpProblem(name="bad", n=2, eval_F=lambda x: x[:1])
    with pytest.raises(ValueError, match="returned shape"):
        truncating.F(np.ones(2))


def test_evaluation_counters_tally():
    p = NcpProblem(name="sq", n=2, eval_F=lambda x: x**2, eval_JF=lambda x: np.diag(2 * x))
    c = EvalCounter()
    p.F(np.ones(2), c)
    p.F(np.ones(2), c)
    p.jacobian(np.ones(2), c)
    assert (c.f_evals, c.jac_evals) == (2, 1)


def tridiagonal_problem():
    """F(x) = Ax with A = [[1, 2, 0], [3, 4, 5], [0, 6, 7]], given by its bands."""
    bands = np.array([[0.0, 2.0, 5.0], [1.0, 4.0, 7.0], [3.0, 6.0, 0.0]])
    dense = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0], [0.0, 6.0, 7.0]])
    p = NcpProblem(
        name="tri", n=3, eval_F=lambda x: dense @ x,
        eval_JF=lambda x: bands.copy(), tridiagonal=True,
    )
    return p, bands, dense


def test_tridiagonal_jacobian_returns_bands():
    p, bands, dense = tridiagonal_problem()
    c = EvalCounter()
    assert np.array_equal(p.jacobian(np.ones(3), c), bands)
    assert c.jac_evals == 1


def test_tridiagonal_declaration_checks():
    with pytest.raises(ValueError, match="eval_JF"):
        NcpProblem(name="tri", n=2, eval_F=lambda x: x, tridiagonal=True)
    # bands are read as bands only when the problem declares them
    bands = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    plain = NcpProblem(name="plain", n=2, eval_F=lambda x: x, eval_JF=lambda x: bands)
    with pytest.raises(ValueError, match=r"shape \(3, 2\), expected \(2, 2\)"):
        plain.jacobian(np.ones(2))
    wrong = NcpProblem(
        name="tri", n=2, eval_F=lambda x: x, eval_JF=lambda x: np.eye(2), tridiagonal=True,
    )
    with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(3, 2\)"):
        wrong.jacobian(np.ones(2))


def test_finite_difference_jacobian_fallback():
    x = np.array([0.7, 1.9])
    p = NcpProblem(name="sq", n=2, eval_F=lambda x: x**2)
    c = EvalCounter()
    jf = p.jacobian(x, c)
    assert c.jac_evals == 1
    np.testing.assert_allclose(jf, np.diag(2 * x), rtol=1e-6)


# --- error moduli ------------------------------------------------------------------


def test_quadratic_modulus_frozen_bound():
    # lambda_min of the 8-dim SPD test matrix, at the middle r of its sweep
    mod = quadratic_modulus(1.0068064863469353)
    assert error_bound(mod, 8, 1e-3) == 0.002818850160911159


def test_error_bound_law():
    mod = quadratic_modulus(4.0)
    for n, r in [(1, 0.1), (9, 1e-2), (25, 1e-4)]:
        assert error_bound(mod, n, r) == pytest.approx(
            np.sqrt(n * r * r / 4.0), rel=1e-14)
    assert error_bound(mod, 5, 0.0) == 0.0


def test_modulus_roundtrip():
    mod = quadratic_modulus(2.5)
    u = np.linspace(0.0, 3.0, 13)
    np.testing.assert_allclose(mod.h_inv(mod.h(u)), u, atol=1e-12)


def test_modulus_validation():
    with pytest.raises(ValueError):
        quadratic_modulus(0.0)
    with pytest.raises(ValueError):
        quadratic_modulus(-1.0)
    mod = quadratic_modulus(1.0)
    with pytest.raises(ValueError):
        error_bound(mod, 0, 0.1)
    with pytest.raises(ValueError):
        error_bound(mod, 4, -0.1)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="r must be finite and nonnegative"):
            error_bound(mod, 3, r)


def test_error_bound_respects_modulus_range():
    capped = ErrorModulus(h=lambda u: u, h_inv=lambda v: v, eta=1e-6)
    with pytest.raises(ValueError, match="outside the modulus range"):
        error_bound(capped, 2, 1e-3)
    assert error_bound(capped, 2, 1e-4) == pytest.approx(2e-8)
