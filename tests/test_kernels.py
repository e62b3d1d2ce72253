"""Kernel family: values, branch consistency, scaling, and the (H_a) scan."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothncp import check_Ha, kernel_from_selector
from smoothncp.kernels import _make_phi_lambda

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
    "phi:1.5": True,
    "phi:3": False,
    "phi:4": False,
}


@pytest.mark.parametrize("selector,expected", sorted(DOMINANCE.items()))
def test_dominance_flags(selector, expected):
    grid = np.logspace(-8.0, 8.0, 16 * 64 + 1)
    theta = kernel_from_selector(selector).theta(grid)
    assert bool(np.all(theta >= grid / (grid + 1.0))) is expected


def test_phi_lambda_2_matches_rational(rational):
    phi2 = kernel_from_selector("phi:2")
    t = np.geomspace(1e-8, 1e8, 1025)
    assert np.array_equal(phi2.theta(t), rational.theta(t))
    np.testing.assert_allclose(phi2.psi(t), rational.psi(t), rtol=4e-15)
    # below zero the family keeps its own branches (power down to -1/2,
    # affine past it), not the rational splice at 0
    assert phi2.psi(-0.25) == pytest.approx(1.0 / 0.75, rel=1e-15)
    assert phi2.psi(-1.0) == pytest.approx(4.0, rel=1e-14)


def test_phi_lambda_1_matches_exponential(exponential):
    phi1 = kernel_from_selector("phi:1")
    assert phi1.name == "exp"
    t = np.linspace(-20.0, 50.0, 301)
    assert np.array_equal(phi1.psi(t), exponential.psi(t))
    np.testing.assert_allclose(phi1.psi(t), np.exp(-t), rtol=1e-14)


@pytest.mark.parametrize(
    "lam,c1", [(1.5, 1.0), (3.0, 1.0), (3.0, 2.0), (1.25, 0.5), (4.0, 1.0)]
)
def test_phi_lambda_defining_identity(lam, c1):
    """psi and each rescaling psi(c1 x) solve (psi')^2 = psi * psi'' / lambda.

    A scale c1 only relabels r, so lambda alone names the kernel.
    """
    kern = kernel_from_selector(f"phi:{lam}")
    x = c1 * np.geomspace(1e-3, 50.0, 200)
    lhs = (c1 * kern.dpsi(x)) ** 2
    rhs = kern.psi(x) * c1 * c1 * kern.d2psi(x) / lam
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_phi_lambda_affine_continuation():
    lam = 3.0
    kern = kernel_from_selector("phi:3")
    p = 1.0 / (lam - 1.0)
    x0 = -0.5
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
    with pytest.raises(ValueError, match="requires a finite lam >= 1$"):
        kernel_from_selector("phi:0.5")
    with pytest.raises(ValueError, match="requires a finite lam >= 1$"):
        kernel_from_selector("phi:nan")


@pytest.mark.parametrize(
    "selector",
    [
        # a trailing field is malformed: lambda alone names a kernel
        "phi:1:inf",
        "phi:inf",  # p = 0: psi = 1 everywhere
        "phi:2:inf",
        "phi:2:1e-320",
        "phi:1.0009765625",  # p = 1024: 2^p overflows
        "phi:1.0000000000000002",
        "phi:1.000977995",  # psi(x0) finite, psi'(x0) = -inf
    ],
)
def test_phi_lambda_rejects_degenerate_selectors(selector):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            kernel_from_selector(selector)
    assert str(err.value).startswith("malformed") == (selector.count(":") == 2)


@pytest.mark.parametrize(
    "selector, psi1",
    [
        ("phi:1e17", "1"),  # p = 1e-17
    ],
)
def test_phi_lambda_rejects_kernels_degenerate_in_floating_point(selector, psi1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"degenerate in floating point: psi\(1\) = {psi1}$"):
            kernel_from_selector(selector)


@pytest.mark.parametrize(
    "selector",
    [
        "rational", "exp", "phi:1", "phi:3", "phi:1.5", "phi:2", "phi:2.5", "phi:4",
        "phi:1.25",
        "phi:1.001",  # psi(1) = 2^-1000 = 9.3e-302
    ],
)
def test_used_selectors_build(selector):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi1 = kernel_from_selector(selector).psi(1.0)
    assert np.finfo(float).tiny <= psi1 < 1.0


@pytest.mark.parametrize(
    "selector, params, closed_form",
    [
        ("phi:1:2", {"lam": 1.0, "c1": 2.0}, lambda t: np.exp(-2.0 * t)),
        ("phi:1:3", {"lam": 1.0, "c1": 3.0}, lambda t: np.exp(-3.0 * t)),
        ("phi:3:2", {"lam": 3.0, "c1": 2.0}, lambda t: (2.0 * t + 1.0) ** -0.5),
    ],
)
def test_selector_trailing_value(selector, params, closed_form):
    # a trailing field once named psi(c1 t) of the lambda-only kernel, which
    # only relabels r: the selector is malformed and the kernel is still there
    with pytest.raises(ValueError, match=f"^malformed kernel selector {selector!r}$"):
        kernel_from_selector(selector)
    kern = _make_phi_lambda(params["lam"])
    branch = np.linspace(0.0, 20.0, 201)
    np.testing.assert_allclose(
        kern.psi(params["c1"] * branch), closed_form(branch), rtol=1e-14
    )


# --- the splice, bit for bit ------------------------------------------------------
#
# The rational and phi_lambda kernels written out piece by piece, each
# function with its own closed forms on both sides of its splice point.

SPLICED = ["rational", "phi:2", "phi:1.5", "phi:3", "phi:4", "phi:1.25"]


def _ref_piecewise(t, in_main, main_fn, other_fn):
    arr = np.asarray(t, dtype=float)
    u = np.atleast_1d(arr)
    with np.errstate(all="ignore"):
        out = np.where(in_main(u), main_fn(u), other_fn(u))
    return float(out[0]) if arr.ndim == 0 else out


def _ref_positive(y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("psi_inv is defined on positive arguments only")
    return arr


def _ref_rational():
    """(x0, psi0, solver functions, analytic functions, x_low)."""

    def nonneg(u):
        return u >= 0.0

    def pw(main_fn, other_fn):
        return lambda t: _ref_piecewise(t, nonneg, main_fn, other_fn)

    solver = dict(
        theta=pw(lambda u: u / (u + 1.0), lambda u: u),
        psi=pw(lambda u: 1.0 / (u + 1.0), lambda u: 1.0 - u),
        dpsi=pw(lambda u: -1.0 / (u + 1.0) ** 2, lambda u: -np.ones_like(u)),
        d2psi=pw(lambda u: 2.0 / (u + 1.0) ** 3, lambda u: np.zeros_like(u)),
        psi_inv=lambda y: _ref_piecewise(
            _ref_positive(y), lambda v: v <= 1.0, lambda v: 1.0 / v - 1.0,
            lambda v: 1.0 - v,
        ),
    )
    analytic = dict(
        psi=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
        dpsi=lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
        d2psi=lambda x: 2.0 / (1.0 + np.asarray(x, dtype=float)) ** 3,
        psi_inv=lambda y: 1.0 / _ref_positive(y) - 1.0,
    )
    return 0.0, 1.0, solver, analytic, -1.0


def _ref_phi(lam):
    """(x0, psi0, solver functions, analytic functions, x_low)."""
    p = 1.0 / (lam - 1.0)
    x0 = -0.5
    psi0 = 2.0**p
    slope = -p * 2.0 ** (p + 1.0)

    def power_side(u):
        return u >= x0

    def pw(main_fn, other_fn):
        return lambda t: _ref_piecewise(t, power_side, main_fn, other_fn)

    def psi_pow(u):
        return np.exp(-p * np.log1p(u))

    def dpsi_pow(u):
        return -p * np.exp(-(p + 1.0) * np.log1p(u))

    def d2psi_pow(u):
        return p * (p + 1.0) * np.exp(-(p + 2.0) * np.log1p(u))

    def psi_inv_pow(y):
        return np.expm1(-np.log(y) / p)

    def theta_pow(u):
        if p == 1.0:
            return u / (u + 1.0)
        return -np.expm1(-p * np.log1p(u))

    solver = dict(
        theta=pw(theta_pow, lambda u: 1.0 - (psi0 + slope * (u - x0))),
        psi=pw(psi_pow, lambda u: psi0 + slope * (u - x0)),
        dpsi=pw(dpsi_pow, lambda u: np.full_like(u, slope)),
        d2psi=pw(d2psi_pow, lambda u: np.zeros_like(u)),
        psi_inv=lambda y: _ref_piecewise(
            _ref_positive(y), lambda v: v <= psi0, psi_inv_pow,
            lambda v: x0 + (v - psi0) / slope,
        ),
    )
    analytic = dict(
        psi=lambda x: psi_pow(np.asarray(x, dtype=float)),
        dpsi=lambda x: dpsi_pow(np.asarray(x, dtype=float)),
        d2psi=lambda x: d2psi_pow(np.asarray(x, dtype=float)),
        psi_inv=lambda y: psi_inv_pow(_ref_positive(y)),
    )
    return x0, psi0, solver, analytic, -1.0


def _reference(selector):
    if selector == "rational":
        return _ref_rational()
    return _ref_phi(float(selector.split(":")[1]))


def _around(v):
    """v, its neighbouring floats and points 1e-9 and 1e-3 away on each side."""
    return [
        v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf),
        v - 1e-9, v + 1e-9, v - 1e-3, v + 1e-3,
    ]


def _assert_bits(got, want):
    """Same type, shape, NaN entries and bits elsewhere (so -0.0 != 0.0)."""
    assert type(got) is type(want)
    g, w = np.atleast_1d(got), np.atleast_1d(want)
    assert g.shape == w.shape and g.dtype == w.dtype == np.float64
    nan = np.isnan(w)
    assert np.array_equal(np.isnan(g), nan)
    assert np.array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


@pytest.mark.parametrize("selector", SPLICED)
def test_splice_matches_the_written_out_kernel(selector):
    x0, psi0, solver, analytic, x_low = _reference(selector)
    kern = kernel_from_selector(selector)
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan]
    xs = np.concatenate(
        (np.linspace(-20.0, 20.0, 4001), _around(x0), _around(x_low), specials)
    )
    ys = np.concatenate(
        (
            np.geomspace(1e-300, 1e300, 601),
            np.linspace(0.01, 20.0, 1999),
            _around(psi0),
            [1.0, math.inf, math.nan],
        )
    )
    scalar_xs = np.concatenate((xs[:4001:40], _around(x0), _around(x_low), specials))
    scalar_ys = np.concatenate((ys[:2600:26], _around(psi0), [math.inf, math.nan]))
    assert kern.analytic.x_low == x_low
    with np.errstate(all="ignore"):
        for name in ("psi", "dpsi", "d2psi", "psi_inv"):
            grid, points = (ys, scalar_ys) if name == "psi_inv" else (xs, scalar_xs)
            for got, want in (
                (getattr(kern, name), solver[name]),
                (getattr(kern.analytic, name), analytic[name]),
            ):
                _assert_bits(got(grid), want(grid))
                for v in points.tolist():
                    _assert_bits(got(v), want(v))


@pytest.mark.parametrize("selector", SPLICED)
def test_splice_psi_inv_rejects_nonpositive_entries(selector):
    _, _, solver, analytic, _ = _reference(selector)
    kern = kernel_from_selector(selector)
    for bad in (0.0, -0.0, -1.0, -math.inf, np.array([2.0, 0.5, 0.0]),
                np.array([1.0, -3.0, math.nan])):
        for got, want in ((kern.psi_inv, solver["psi_inv"]),
                          (kern.analytic.psi_inv, analytic["psi_inv"])):
            with pytest.raises(ValueError) as expected:
                want(bad)
            with pytest.raises(ValueError, match=str(expected.value)):
                got(bad)


@pytest.mark.parametrize(
    "selector, max_ulp",
    [("rational", 0), ("phi:2", 0), ("phi:1.5", 0), ("phi:1.25", 0),
     ("phi:3", 2), ("phi:4", 2)],
)
def test_splice_theta_rounding(selector, max_ulp):
    # theta's affine piece is (1 - psi0) - slope (x - x0), exact for the
    # rational kernel; written as 1 - psi it rounds differently for phi:3
    x0, _, solver, _, _ = _reference(selector)
    kern = kernel_from_selector(selector)
    specials = [-0.0, math.inf, -math.inf, math.nan]
    xs = np.concatenate((np.linspace(-100.0, 100.0, 200001), _around(x0), specials))
    got, want = kern.theta(xs), solver["theta"](xs)
    for v in np.concatenate((xs[::2000], _around(x0), specials)).tolist():
        if max_ulp == 0 or v >= x0:
            _assert_bits(kern.theta(v), solver["theta"](v))
    if max_ulp == 0:
        _assert_bits(got, want)
        return
    above = xs >= x0
    _assert_bits(got[above], want[above])
    g, w = got[~above], want[~above]
    finite = np.isfinite(w)
    assert np.array_equal(g[~finite], w[~finite], equal_nan=True)
    ulps = np.abs(g[finite] - w[finite]) / np.spacing(np.abs(w[finite]))
    assert ulps.max() <= max_ulp


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
    # float() reads each of these fields but abc: as 30, 10, 3 and 3; lambda
    # alone names a kernel, so a trailing field is malformed too
    for bad in ("phi:abc", "phi:3_0", "phi:3:1_0", "phi: 3", "phi:\u0663",
                "phi:3:2", "phi:1:2", "phi:1:inf"):
        with pytest.raises(ValueError, match=f"^malformed kernel selector {bad!r}$"):
            kernel_from_selector(bad)


def test_factories_are_deterministic():
    t = np.linspace(-5.0, 5.0, 101)
    for selector in ("rational", "exp", "phi:3"):
        a, b = kernel_from_selector(selector), kernel_from_selector(selector)
        assert np.array_equal(a.psi(t), b.psi(t))
