"""Kernel family: values, branch consistency, scaling, and the (H_a) scan."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothncp import (
    check_Ha,
    kernel_from_selector,
    make_exponential,
    PhiLambdaParams,
    make_phi_lambda,
    make_rational,
)

finite_reals = st.floats(-50.0, 50.0, allow_nan=False)
positive_reals = st.floats(1e-6, 50.0, allow_nan=False)


def test_rational_point_values(rational):
    assert rational.theta(1.0) == 0.5
    assert rational.theta(0.0) == 0.0
    assert rational.theta(-2.0) == -2.0
    assert rational.psi(1.0) == 0.5
    assert rational.psi(0.0) == 1.0
    assert rational.psi(-0.5) == 1.5
    assert rational.psi_inv(1.5) == -0.5
    assert rational.psi_inv(0.5) == 1.0


def test_exponential_point_values(exponential):
    assert exponential.theta(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert exponential.theta(0.0) == 0.0
    assert exponential.psi(0.0) == 1.0
    assert exponential.psi(2.0) == pytest.approx(math.exp(-2.0), abs=1e-16)
    assert exponential.psi_inv(0.5) == pytest.approx(math.log(2.0), abs=1e-15)


def test_smoothness_markers(rational):
    # right second derivative at the rational kink
    assert rational.d2psi(0.0) == 2.0
    assert rational.d2psi(-1e-9) == 0.0


@given(t=finite_reals)
def test_theta_psi_complement(kernel, t):
    # relative tolerance matters: exp(-t) reaches 5e21 on this domain
    assert kernel.psi(t) == pytest.approx(1.0 - kernel.theta(t), rel=1e-12, abs=1e-12)


@given(t=finite_reals)
def test_psi_inverse_roundtrip(kernel, t):
    y = kernel.psi(t)
    assert kernel.psi_inv(y) == pytest.approx(t, rel=1e-9, abs=1e-9)


@given(a=finite_reals, b=finite_reals)
def test_theta_monotone(kernel, a, b):
    lo, hi = min(a, b), max(a, b)
    assert kernel.theta(lo) <= kernel.theta(hi) + 1e-15


def test_theta_limits(kernel):
    assert kernel.theta(0.0) == 0.0
    assert kernel.theta(1e9) == pytest.approx(1.0, abs=1e-8)
    assert kernel.psi(1e9) <= 1e-8


@given(t=finite_reals)
def test_dpsi_negative(kernel, t):
    assert kernel.dpsi(t) < 0.0


# frozen dominance table: theta >= t/(t+1) on the scan grid
DOMINANCE = {
    "rational": True,
    "exp": True,
    "phi:2": True,
    "phi:1:2": True,
    "phi:3": False,
    "phi:3:2": False,
    "phi:1:0.5": False,
}


@pytest.mark.parametrize("selector,expected", sorted(DOMINANCE.items()))
def test_dominance_flags(selector, expected):
    grid = np.logspace(-8.0, 8.0, 16 * 64 + 1)
    theta = kernel_from_selector(selector).theta(grid)
    assert bool(np.all(theta >= grid / (grid + 1.0))) is expected


def test_phi_lambda_2_matches_rational(rational):
    phi2 = make_phi_lambda(PhiLambdaParams(2.0))
    t = np.geomspace(1e-8, 1e8, 1025)
    assert np.array_equal(phi2.theta(t), rational.theta(t))
    np.testing.assert_allclose(phi2.psi(t), rational.psi(t), rtol=4e-15)
    # below zero the family keeps its own branches (power down to -1/2,
    # affine past it), not the rational splice at 0
    assert phi2.psi(-0.25) == pytest.approx(1.0 / 0.75, rel=1e-15)
    assert phi2.psi(-1.0) == pytest.approx(4.0, rel=1e-14)


def test_phi_lambda_1_matches_exponential(exponential):
    phi1 = kernel_from_selector("phi:1")
    t = np.linspace(-20.0, 50.0, 301)
    np.testing.assert_allclose(phi1.psi(t), exponential.psi(t), rtol=1e-14)
    phi1_fast = kernel_from_selector("phi:1:3")
    np.testing.assert_allclose(phi1_fast.psi(t), np.exp(-3.0 * t), rtol=1e-13)


@pytest.mark.parametrize("lam,c1", [(1.5, 1.0), (3.0, 1.0), (3.0, 2.0), (1.25, 0.5)])
def test_phi_lambda_defining_identity(lam, c1):
    """The family solves (psi')^2 = psi * psi'' / lambda on its smooth branch."""
    kern = make_phi_lambda(PhiLambdaParams(lam, c1))
    x = np.geomspace(1e-3, 50.0, 200)
    lhs = kern.dpsi(x) ** 2
    rhs = kern.psi(x) * kern.d2psi(x) / lam
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_phi_lambda_affine_continuation():
    lam, c1 = 3.0, 1.0
    kern = make_phi_lambda(PhiLambdaParams(lam, c1))
    p = 1.0 / (lam - 1.0)
    x0 = -1.0 / (2.0 * c1)
    assert kern.psi(x0) == pytest.approx(2.0 ** p, rel=1e-14)
    # slope continuity across the switch point
    eps = 1e-7
    left = (kern.psi(x0) - kern.psi(x0 - eps)) / eps
    right = (kern.psi(x0 + eps) - kern.psi(x0)) / eps
    assert left == pytest.approx(right, rel=1e-5)
    # affine below: second derivative vanishes
    assert kern.d2psi(x0 - 0.1) == 0.0
    assert kern.d2psi(x0 + 0.1) > 0.0


def test_phi_lambda_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PhiLambdaParams(0.5)
    with pytest.raises(ValueError):
        PhiLambdaParams(2.0, -1.0)
    with pytest.raises(ValueError):
        PhiLambdaParams(1.0, 1.0, d=0.0)


def test_check_ha_exponential_threshold(exponential):
    # psi(s) <= psi(a s)/2 for e^{-s} holds from s = ln2/(1-a)
    for a in (0.25, 0.5):
        rep = check_Ha(exponential, a, 50.0)
        assert rep.satisfied
        assert rep.violated_at is None
        assert rep.holds_from == pytest.approx(math.log(2.0) / (1.0 - a), rel=0.05)


def test_check_ha_exponential_frozen(exponential):
    rep = check_Ha(exponential, 0.5, 50.0)
    assert rep.holds_from == pytest.approx(1.4193679823793772, rel=1e-12)


def test_check_ha_rational_small_a(rational):
    # 1/(1+s) <= 1/(2(1+a s)) needs a < 1/2 and s >= 1/(1-2a)
    rep = check_Ha(rational, 0.25, 50.0)
    assert rep.satisfied
    assert rep.holds_from == pytest.approx(2.0339721605415235, rel=1e-12)
    assert rep.holds_from >= 1.0 / (1.0 - 2.0 * 0.25)


def test_check_ha_rational_large_a_fails(rational):
    rep = check_Ha(rational, 0.75, 50.0)
    assert not rep.satisfied
    assert rep.violated_at == 50.0
    assert rep.grid_points == 385


@pytest.mark.parametrize("selector", ["rational", "exp"])
@pytest.mark.parametrize("s_max", [math.inf, math.nan])
def test_check_ha_rejects_bad_s_max(selector, s_max):
    # an infinite s_max made the grid NaN, and the scan reported satisfied
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="s_max must be finite and positive"):
            check_Ha(kernel_from_selector(selector), 0.5, s_max)


def test_selector_parsing():
    assert kernel_from_selector("rational").name == "rational"
    assert kernel_from_selector("exp").name == "exp"
    assert kernel_from_selector("phi:2.5").name == "phi:2.5"
    with pytest.raises(ValueError):
        kernel_from_selector("cubic")
    with pytest.raises(ValueError):
        kernel_from_selector("phi:abc")


def test_factories_are_deterministic():
    a, b = make_rational(), make_rational()
    t = np.linspace(-5.0, 5.0, 101)
    assert np.array_equal(a.psi(t), b.psi(t))
    c, d = make_exponential(), make_exponential()
    assert np.array_equal(c.psi(t), d.psi(t))
