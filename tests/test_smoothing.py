"""Soft-min g_r and the smoothed system H_r: values, bounds, derivatives."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothncp import (
    NcpProblem,
    fd_jacobian,
    g_r,
    g_r_partials,
    kernel_from_selector,
    problem_from_selector,
)
from smoothncp.kernels import _SMALL_N
from smoothncp.smoothing import _g_r_with_partials
from smoothncp.solver import _newton_matrix

from decimal_softmin import power_kernel, reference, ulps

args = st.floats(-10.0, 10.0, allow_nan=False)
radii = st.floats(1e-6, 1.0, allow_nan=False)


# --- frozen values -----------------------------------------------------------


def test_rational_frozen_values(rational):
    # main branch: psi(s/r) + psi(t/r) <= 1, g = (s t - r^2) / (s + t + 2 r)
    assert g_r(rational, 3.0, 6.0, 1.0) == 1.5454545454545454
    assert g_r(rational, 3.0, 6.0, 1.0) == pytest.approx((3.0 * 6.0 - 1.0) / 11.0, rel=1e-15)
    # other branch (s t < r^2): g = r * (1 - psi(s/r) - psi(t/r)); at the
    # origin both psi values are 1, so g = -r, not the continued -r/2
    assert g_r(rational, 0.0, 0.0, 0.5) == -0.5
    assert g_r(rational, 0.0, 0.0, 0.125) == -0.125


def test_exponential_frozen_value(exponential):
    got = g_r(exponential, 1.0, 2.0, 0.5)
    assert got == 0.9365359944785138
    assert got == pytest.approx(1.0 - 0.5 * math.log1p(math.exp(-2.0)), rel=1e-15)


@given(s=st.floats(0.5, 10.0), t=st.floats(0.5, 10.0), r=st.floats(1e-6, 0.5))
def test_rational_closed_form_on_main_branch(rational, s, t, r):
    # s t >= 1/4 >= r^2 keeps psi(s/r) + psi(t/r) <= 1
    assert g_r(rational, s, t, r) == pytest.approx((s * t - r * r) / (s + t + 2.0 * r), rel=1e-12)


# --- order and distance bounds -----------------------------------------------


@given(s=args, t=args, r=radii)
def test_soft_min_stays_below_min(kernel, s, t, r):
    assert g_r(kernel, s, t, r) <= min(s, t)


@pytest.mark.parametrize("selector", ["rational", "exp", "phi:3", "phi:1.5"])
@pytest.mark.parametrize("r", [1e-10, 1e-8, 1e-6])
def test_soft_min_bound_is_exact_at_small_r(selector, r):
    # no tolerance: at these r an unclamped psi_inv(psi + psi) composition
    # rounds above min(s, t) on a few percent of the draws
    kernel = kernel_from_selector(selector)
    s_bad, t_bad = 3.14206916015636, -6.926792085334426
    assert g_r(kernel, s_bad, t_bad, r) <= t_bad
    rng = np.random.default_rng(11)
    for scale in (10.0, 1e3):
        s = rng.uniform(-scale, scale, 20000)
        t = rng.uniform(-scale, scale, 20000)
        assert np.all(g_r(kernel, s, t, r) <= np.minimum(s, t))


@given(s=args, t=args, r=radii)
def test_soft_min_symmetry(kernel, s, t, r):
    assert g_r(kernel, s, t, r) == g_r(kernel, t, s, r)


@given(s=args, t=args, r=radii)
def test_exponential_distance_bound(exponential, s, t, r):
    gap = min(s, t) - g_r(exponential, s, t, r)
    assert 0.0 <= gap <= r * math.log(2.0) + 1e-15


def test_exponential_gap_maximal_on_diagonal(exponential):
    for r in (1.0, 0.1, 1e-3):
        gap = min(2.0, 2.0) - g_r(exponential, 2.0, 2.0, r)
        assert gap == pytest.approx(r * math.log(2.0), rel=1e-15)


@given(s=args, t=args, r=radii, fac=st.floats(1.5, 8.0))
def test_soft_min_decreases_in_r(kernel, s, t, r, fac):
    assert g_r(kernel, s, t, r * fac) <= g_r(kernel, s, t, r) + 1e-12


def test_rejects_nonpositive_r(rational):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            g_r(rational, 1.0, 1.0, bad)
        with pytest.raises(ValueError):
            g_r_partials(rational, 1.0, 1.0, bad)


# --- partial derivatives ------------------------------------------------------


@given(s=args, t=args, r=radii)
def test_exponential_partials_partition(exponential, s, t, r):
    ds, dt = g_r_partials(exponential, s, t, r)
    assert ds + dt == 1.0
    assert 0.0 <= ds <= 1.0


@pytest.mark.parametrize("s,t,r", [(1.3, -0.7, 0.25), (0.5, 0.49, 0.05), (2.0, 2.0, 1.0)])
def test_partials_match_finite_differences(kernel, s, t, r):
    ds, dt = g_r_partials(kernel, s, t, r)
    hs = 1e-6 * (1.0 + abs(s))
    ht = 1e-6 * (1.0 + abs(t))
    fd_s = (g_r(kernel, s + hs, t, r) - g_r(kernel, s - hs, t, r)) / (2.0 * hs)
    fd_t = (g_r(kernel, s, t + ht, r) - g_r(kernel, s, t - ht, r)) / (2.0 * ht)
    assert ds == pytest.approx(fd_s, rel=1e-5, abs=1e-8)
    assert dt == pytest.approx(fd_t, rel=1e-5, abs=1e-8)


# --- the rational closed form --------------------------------------------------


def _exact_rational(s, t, r):
    """g_r and its partials for the rational kernel in exact arithmetic,
    by the generic composition r psi_inv(psi(s/r) + psi(t/r))."""
    s, t, r = Fraction(s), Fraction(t), Fraction(r)

    def psi(u):
        return 1 / (1 + u) if u >= 0 else 1 - u

    def dpsi(u):
        return -1 / (1 + u) ** 2 if u >= 0 else Fraction(-1)

    y = psi(s / r) + psi(t / r)
    mid = 1 / y - 1 if y <= 1 else 1 - y
    w = dpsi(mid)
    return r * mid, dpsi(s / r) / w, dpsi(t / r) / w


def _rational_cases():
    """(region, s, t, r) cases; the boundary and zero cases hit s t = r^2
    and s = 0 exactly."""
    rng = np.random.default_rng(5)
    cases = []
    for r in (1.0, 1e-3, 5e-8):
        for _ in range(40):
            u, v = rng.uniform(1.0, 1e3, 2)
            cases.append(("positive_above", u * r, v * r, r))
            u, v = rng.uniform(0.0, 1.0, 2)
            cases.append(("positive_below", u * r, v * r, r))
            u, v = rng.uniform(0.0, 30.0, 2)
            cases.append(("positive_mixed_scale", u * u * r, r / (1.0 + v), r))
            u, v = rng.uniform(0.0, 1e3, 2)
            cases.append(("mixed_sign", -u * r, v * r, r))
            cases.append(("negative", -u * r, -v * r, r))
            cases.append(("zero", 0.0, (v - 500.0) * r, r))
            # near the boundary: t rounds r^2 / s
            cases.append(("near_boundary", u * r, r * r / (u * r), r))
    for i in range(-20, 21):
        r = 3.0 * 2.0**-30
        s = 3.0 * 2.0 ** (i - 30)
        cases.append(("boundary", s, r * r / s, r))
    return cases


RATIONAL_CASES = _rational_cases()


def test_rational_closed_form_matches_exact_arithmetic(rational):
    eps = np.finfo(float).eps
    assert {c[0] for c in RATIONAL_CASES} >= {
        "positive_above", "positive_below", "mixed_sign", "negative", "boundary", "zero"}
    for region, s, t, r in RATIONAL_CASES:
        if region == "boundary":
            assert Fraction(s) * Fraction(t) == Fraction(r) ** 2
        g, gs, gt = _exact_rational(s, t, r)
        got = g_r(rational, s, t, r)
        ds, dt = g_r_partials(rational, s, t, r)
        assert abs(Fraction(got) - g) <= 4 * eps * max(abs(s), abs(t), r), (region, s, t, r)
        assert abs(Fraction(ds) - gs) <= 8 * eps * gs, (region, s, t, r)
        assert abs(Fraction(dt) - gt) <= 8 * eps * gt, (region, s, t, r)
        assert got <= min(s, t)


def test_rational_closed_form_arrays_match_scalars(rational):
    _, s, t, r = zip(*[c for c in RATIONAL_CASES if c[3] == 1e-3])
    s, t = np.array(s), np.array(t)
    g = g_r(rational, s, t, 1e-3)
    ds, dt = g_r_partials(rational, s, t, 1e-3)
    assert g.shape == ds.shape == dt.shape == s.shape
    for i in range(s.size):
        assert g[i] == g_r(rational, s[i], t[i], 1e-3)
        assert (ds[i], dt[i]) == g_r_partials(rational, s[i], t[i], 1e-3)


@pytest.mark.parametrize(
    "s,t,r",
    [(2.0, 3.0, 0.5), (0.2, 0.3, 0.5), (2.0, 0.01, 0.5), (-0.7, 1.3, 0.25),
     (-0.7, -1.3, 0.25), (40.0, 60.0, 1e-3)],
)
def test_rational_partials_match_finite_differences_in_every_region(rational, s, t, r):
    # every stencil point stays off the kinks s t = r^2, s = 0 and t = 0
    ds, dt = g_r_partials(rational, s, t, r)
    h = 1e-7 * max(abs(s), abs(t), r)
    fd_s = (g_r(rational, s + h, t, r) - g_r(rational, s - h, t, r)) / (2.0 * h)
    fd_t = (g_r(rational, s, t + h, r) - g_r(rational, s, t - h, r)) / (2.0 * h)
    assert ds == pytest.approx(fd_s, rel=1e-6, abs=1e-9)
    assert dt == pytest.approx(fd_t, rel=1e-6, abs=1e-9)


def test_rational_closed_form_is_exactly_symmetric(rational):
    _, s, t, r = zip(*RATIONAL_CASES)
    for si, ti, ri in zip(s, t, r):
        assert g_r(rational, si, ti, ri) == g_r(rational, ti, si, ri)
        ds, dt = g_r_partials(rational, si, ti, ri)
        assert g_r_partials(rational, ti, si, ri) == (dt, ds)


def test_soft_min_scalar_in_float_out(kernel):
    assert type(g_r(kernel, 1.0, 2.0, 0.5)) is float
    assert type(g_r(kernel, -1.0, 2, 0.5)) is float
    assert type(g_r(kernel, np.float64(1.0), 2, 0.5)) is float
    assert type(g_r(kernel, np.array(1.0), np.array(2.0), 0.5)) is float
    assert g_r(kernel, True, 2, 0.5) == g_r(kernel, 1.0, 2.0, 0.5)
    ds, dt = g_r_partials(kernel, 1.0, 2.0, 0.5)
    assert type(ds) is float and type(dt) is float
    assert g_r_partials(kernel, 1, 2, 0.5) == (ds, dt)
    # a scalar broadcast against an array
    g = g_r(kernel, 1.0, np.array([2.0, 0.5]), 0.5)
    assert g.tolist() == [g_r(kernel, 1.0, 2.0, 0.5), g_r(kernel, 1.0, 0.5, 0.5)]


@pytest.mark.filterwarnings("error")
def test_soft_min_non_finite_arguments(kernel):
    inf = math.inf
    bad_pairs = (
        (math.nan, 1.0), (1.0, math.nan), (-inf, 1.0), (2.0, -inf), (inf, inf),
        (-inf, inf), (inf, -inf),
    )
    for bad in bad_pairs:
        # as scalars and in an array long enough for the numpy path
        long = (np.full(_SMALL_N + 8, bad[0]), np.full(_SMALL_N + 8, bad[1]))
        for s, t in (bad, long):
            with pytest.raises(FloatingPointError):
                g_r(kernel, s, t, 0.1)
            with pytest.raises(FloatingPointError):
                g_r_partials(kernel, s, t, 0.1)
    # +inf in one argument gives the other one
    for other in (-3.0, 0.0, 0.05, 5.0, 1e300):
        assert g_r(kernel, inf, other, 0.1) == other
        assert g_r(kernel, other, inf, 0.1) == other
        assert g_r_partials(kernel, inf, other, 0.1) == (0.0, 1.0)
        assert g_r_partials(kernel, other, inf, 0.1) == (1.0, 0.0)
    s = np.array([inf, 1.0, -2.0])
    t = np.array([4.0, 3.0, inf])
    g = g_r(kernel, s, t, 0.1)
    ds, dt = g_r_partials(kernel, s, t, 0.1)
    assert g[0] == 4.0 and g[2] == -2.0 and g[1] == g_r(kernel, 1.0, 3.0, 0.1)
    assert (ds[0], dt[0], ds[2], dt[2]) == (0.0, 1.0, 1.0, 0.0)
    assert (ds[1], dt[1]) == g_r_partials(kernel, 1.0, 3.0, 0.1)


def generic(selector):
    """The selector's kernel with its closed forms stripped, so that g_r and
    g_r_partials take the generic psi_inv(psi + psi) composition."""
    return dataclasses.replace(
        kernel_from_selector(selector), softmin_override=None, softmin_partials_override=None
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pair", [(math.nan, 1.0), (-math.inf, 1.0), (-math.inf, math.inf), (math.inf, math.inf)]
)
def test_generic_composition_non_finite_arguments(pair):
    # the generic composition's partials returned made-up weights for these
    # pairs, and a ValueError for (inf, inf), where g_r raises; phi:3's
    # log-domain closed form raises for them too
    for kern in (generic("phi:3"), kernel_from_selector("phi:3")):
        with pytest.raises(FloatingPointError):
            g_r(kern, *pair, 0.5)
        with pytest.raises(FloatingPointError):
            g_r_partials(kern, *pair, 0.5)


# --- the power kernels' log-domain closed form -----------------------------------
#
# phi:<lambda> with lambda > 1 evaluates g_r and its partials through
# _power.softmin_overrides; the generic composition stays the reference for
# kernels built without closed forms.

POWER = ["phi:3", "phi:1.5", "phi:2", "phi:4", "phi:1.25"]


@pytest.mark.parametrize("selector", POWER + ["phi:1.002"])
def test_power_kernels_ship_closed_forms(selector):
    kern = kernel_from_selector(selector)
    assert kern.softmin_override is not None
    assert kern.softmin_partials_override is not None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("selector", POWER + ["phi:1.002"])
def test_power_closed_form_infinite_argument(selector):
    # g(s, +inf) = s with partials (1, 0), as scalars and in arrays; at 2.5
    # phi:4's rounded -L/p differs from log1p(2.5/0.1), so the partial
    # must be set, not computed
    kern, inf = kernel_from_selector(selector), math.inf
    for other in (-3.0, 0.0, 0.05, 2.5, 5.0, 1e300):
        assert g_r(kern, other, inf, 0.1) == other
        assert g_r(kern, inf, other, 0.1) == other
        assert g_r_partials(kern, other, inf, 0.1) == (1.0, 0.0)
        assert g_r_partials(kern, inf, other, 0.1) == (0.0, 1.0)
    # a finite argument whose ratio overflows to +inf beside a finite ratio
    # gives the other argument, like +inf itself; any other overflowing ratio
    # raises with a message of its own
    assert g_r(kern, 1e300, 2.0, 1e-10) == 2.0
    assert g_r_partials(kern, 1e300, 2.0, 1e-10) == (0.0, 1.0)
    overflowing = (
        (1e300, 1e300, 1e-10), (2.0, 3.0, 1e-310), (-1e300, 2.0, 1e-10), (1e300, inf, 1e-10),
        (np.array([1.0, 1e300]), np.array([2.0, 1e300]), 1e-10),
    )
    for a, b, r in overflowing:
        for f in (g_r, g_r_partials):
            with pytest.raises(FloatingPointError, match="s/r or t/r overflows"):
                f(kern, a, b, r)
    for a, b in ((math.nan, 1.0), (-inf, 1.0), (inf, inf)):
        for f in (g_r, g_r_partials):
            with pytest.raises(FloatingPointError, match=r"NaN, -inf or two \+inf"):
                f(kern, a, b, 0.1)
    s = np.array([inf, 1.0, -2.0])
    t = np.array([4.0, 3.0, inf])
    g = g_r(kern, s, t, 0.1)
    ds, dt = g_r_partials(kern, s, t, 0.1)
    assert g[0] == 4.0 and g[2] == -2.0 and g[1] == g_r(kern, 1.0, 3.0, 0.1)
    assert (ds[0], dt[0], ds[2], dt[2]) == (0.0, 1.0, 1.0, 0.0)
    assert (ds[1], dt[1]) == g_r_partials(kern, 1.0, 3.0, 0.1)


@pytest.mark.parametrize("selector", POWER)
def test_power_closed_form_matches_generic_composition(selector):
    # s, t on both sides of 0 down to 1e-3 in size; the two forms round
    # differently, so g is compared in units of max(|g|, r), the scale of g
    # near its zero (psi(s/r) + psi(t/r) = 1), where both cancel
    kern, ref = kernel_from_selector(selector), generic(selector)
    v = np.concatenate((-np.geomspace(10.0, 1e-3, 17), [0.0], np.geomspace(1e-3, 10.0, 17)))
    s, t = (a.ravel() for a in np.meshgrid(v, v))
    for r in (1e-3, 0.1, 1.0, 10.0):
        g, g_ref = g_r(kern, s, t, r), g_r(ref, s, t, r)
        assert np.all(np.abs(g - g_ref) <= 4e-15 * np.maximum(np.abs(g_ref), r))
        for d, d_ref in zip(g_r_partials(kern, s, t, r), g_r_partials(ref, s, t, r)):
            assert np.all(np.abs(d - d_ref) <= 2e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("selector", POWER + ["phi:1.002"])
def test_power_closed_form_entry_bits_do_not_depend_on_the_call(selector):
    # an entry's bits do not depend on the other entries of its call (an
    # appended off-branch pair, a shorter array), and two real scalars, a
    # 0-d call, give an array entry's bits
    kern = kernel_from_selector(selector)
    rng = np.random.default_rng(17)
    for r in (1e-12, 1e-3, 1.0, 37.0):
        s = 10.0 ** rng.uniform(-3.0, 16.0, 40) * r
        t = 10.0 ** rng.uniform(-3.0, 16.0, 40) * r
        t[::5] = -0.2 * r * rng.uniform(0.0, 1.0, 8)  # below 0, above every x0 here
        g, (ds, dt) = g_r(kern, s, t, r), g_r_partials(kern, s, t, r)
        s_off, t_off = np.append(s, -1e3 * r), np.append(t, math.inf)
        assert g.tobytes() == g_r(kern, s_off, t_off, r)[:-1].tobytes()
        ds_off, dt_off = g_r_partials(kern, s_off, t_off, r)
        assert ds.tobytes() == ds_off[:-1].tobytes()
        assert dt.tobytes() == dt_off[:-1].tobytes()
        assert g[:7].tobytes() == g_r(kern, s[:7], t[:7], r).tobytes()
        for i in range(0, 40, 3):
            assert g_r(kern, float(s[i]), float(t[i]), r) == g[i]
            assert g_r_partials(kern, float(s[i]), float(t[i]), r) == (ds[i], dt[i])


# s/r on both sides of x0 = -1/2 (x0 itself is added), up to 1e303, where
# 1 + s/r rounds to s/r
ACCURACY_RATIOS = [-1e3, -1.3, -0.6, -0.4, -0.1, 0.0, 1e-3, 0.3, 1.0, 37.0, 1e6, 1e16, 1e303]
ACCURACY_RADII = [1e-12, 1.0, 1e2]


def _softmin_errors(kern, params, s, t, r):
    """(g error, worst partial error) against the decimal reference, or None
    where the kernel's soft-min raises or is not finite.

    g's error is in ulps of max(|g|, r): near g = 0, where psi(s/r) +
    psi(t/r) = 1, the value cancels in any float evaluation.  The partials,
    in (0, 1], are compared in ulps of their own value.
    """
    g_ref, ds_ref, dt_ref = reference(params, s, t, r)
    try:
        with np.errstate(all="ignore"):
            g = g_r(kern, s, t, r)
            ds, dt = g_r_partials(kern, s, t, r)
    except (FloatingPointError, ArithmeticError):
        return None
    if not all(map(math.isfinite, (g, ds, dt))):
        return None
    scale = max(abs(float(g_ref)), r)
    g_err = abs(Fraction(g) - Fraction(g_ref)) / Fraction(math.ulp(scale))
    return float(g_err), max(ulps(ds, ds_ref), ulps(dt, dt_ref))


@pytest.mark.parametrize("lam", [3.0, 1.5, 2.0, 4.0, 1.25, 1.002], ids=POWER + ["phi:1.002"])
def test_power_closed_form_accuracy(lam):
    # against a 60-digit decimal evaluation of the same float kernel: finite
    # everywhere, g <= min(s, t) with no tolerance, and wherever the generic
    # composition is finite the closed form's worst error is no larger
    params = power_kernel(lam)
    selector = f"phi:{lam:g}"
    kern, ref = kernel_from_selector(selector), generic(selector)
    ratios = ACCURACY_RATIOS + [params[1]]
    closed, generic_worst, shared = (0.0, 0.0), (0.0, 0.0), 0
    for a, b in itertools.product(ratios, ratios):
        for r in ACCURACY_RADII:
            s, t = a * r, b * r
            assert g_r(kern, s, t, r) <= min(s, t)
            err = _softmin_errors(kern, params, s, t, r)
            assert err is not None, (s, t, r)
            ref_err = _softmin_errors(ref, params, s, t, r)
            if ref_err is not None:
                shared += 1
                closed = tuple(map(max, closed, err))
                generic_worst = tuple(map(max, generic_worst, ref_err))
    assert shared > 0
    assert closed[0] <= generic_worst[0], (closed, generic_worst)
    assert closed[1] <= generic_worst[1], (closed, generic_worst)


def test_rational_huge_arguments_stay_finite(rational):
    # s / r overflows: the composition raised here, and its partials a bare
    # ValueError that the solver's ArithmeticError handler does not catch
    g = g_r(rational, 1e300, 1e300, 1e-16)
    ds, dt = g_r_partials(rational, 1e300, 1e300, 1e-16)
    assert g == pytest.approx(5e299, rel=1e-15) and g <= 1e300
    assert (ds, dt) == (0.25, 0.25)
    # s + t overflows: evaluated at half scale
    with np.errstate(over="ignore"):
        assert g_r(rational, 1e308, 1.5e308, 1e-3) == pytest.approx(6e307, rel=1e-15)
        assert g_r_partials(rational, 1e308, 1e308, 1e-3) == (0.25, 0.25)
        with pytest.raises(FloatingPointError):
            g_r(rational, -1e308, -1.5e308, 1e-3)


# --- the rational float path ---------------------------------------------------
#
# Arguments of at most _SMALL_N entries are evaluated on Python floats, longer
# ones by numpy.  Both must give the same bits, so each short call is checked
# against the same arguments tiled past _SMALL_N entries, and each scalar call
# against a constant array of _SMALL_N + 1 entries.

SIZES = [1, _SMALL_N, _SMALL_N + 1]
entries = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2.2250738585072014e-308]),
)
small_radii = st.one_of(st.floats(1e-16, 10.0), st.sampled_from([1e-16, 5e-8, 1.0]))


def _call(f, *args):
    """f(*args) without overflow warnings, or "raises" for a FloatingPointError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return f(*args)
    except FloatingPointError:
        return "raises"


def _bits(out, n=None):
    """The bytes of out's first n entries; a tuple of them for the partials."""
    if isinstance(out, tuple):
        return tuple(_bits(v, n) for v in out)
    if isinstance(out, str):
        return out
    return np.atleast_1d(np.asarray(out, dtype=float))[:n].tobytes()


def _assert_float_path_matches_numpy(kernel, s, t, r):
    long = _SMALL_N // s.size + 1
    for f in (g_r, g_r_partials):
        short = _call(f, kernel, s, t, r)
        numpy_path = _call(f, kernel, np.tile(s, long), np.tile(t, long), r)
        assert _bits(short) == _bits(numpy_path, s.size), (f.__name__, s, t, r)
        if not isinstance(short, str):
            for v in short if isinstance(short, tuple) else (short,):
                assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == s.shape
        for si, ti in zip(s.tolist(), t.tolist()):
            one = _call(f, kernel, si, ti, r)
            full = _call(f, kernel, np.full(_SMALL_N + 1, si), np.full(_SMALL_N + 1, ti), r)
            assert _bits(one) == _bits(full, 1), (f.__name__, si, ti, r)


@given(data=st.data())
def test_rational_float_path_matches_numpy_bit_for_bit(rational, data):
    n = data.draw(st.sampled_from(SIZES))
    r = data.draw(small_radii)
    # pairs drawn freely, or exactly on s t = r^2: the power-of-two scaling
    # is exact away from the ends of the float range
    on_boundary = st.integers(-40, 40).map(lambda k: (r * 2.0**k, r * 2.0**-k))
    # up to 8 drawn pairs, repeated to n entries: drawing n pairs is slow
    pairs = data.draw(st.lists(st.one_of(st.tuples(entries, entries), on_boundary),
                               min_size=1, max_size=8))
    s, t = (np.resize(np.array(v, dtype=float), n) for v in zip(*pairs))
    _assert_float_path_matches_numpy(rational, s, t, r)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "bad",
    [(math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0), (2.0, -math.inf),
     (math.inf, math.inf), (math.inf, 2.0), (-3.0, math.inf),
     (1e308, 1.5e308), (-1e308, -1.5e308)],
)
def test_rational_float_path_non_finite_like_numpy(rational, n, bad):
    # a non-finite s + t sends the whole call to numpy, which raises, takes
    # g(s, +inf) = s or evaluates at half scale
    s, t = np.linspace(0.5, 2.0, n), np.linspace(-1.0, 3.0, n)
    s[-1], t[-1] = bad
    _assert_float_path_matches_numpy(rational, s, t, 0.1)
    handled = bad in ((math.inf, 2.0), (-3.0, math.inf), (1e308, 1.5e308))
    assert isinstance(_call(g_r, rational, s, t, 0.1), np.ndarray) == handled


@given(s=st.lists(args, min_size=1, max_size=40), r=st.floats(1e-16, 1.0))
def test_exponential_partials_are_the_two_sided_sigmoid(exponential, s, r):
    # the reference takes each weight from the side where exp's argument is <= 0
    s = np.array(s)
    t = s[::-1] + 0.125
    z = (t - s) / r
    ws = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0.0 else 1.0 - 1.0 / (1.0 + np.exp(v))
                   for v in z])
    ds, dt = g_r_partials(exponential, s, t, r)
    assert ds.tobytes() == ws.tobytes()
    assert dt.tobytes() == (1.0 - ws).tobytes()


@given(s=st.lists(args, min_size=1, max_size=40), r=st.floats(1e-16, 1.0))
def test_exponential_value_is_its_written_formula(exponential, s, r):
    # with the test above, this pins the one exponential that g and the
    # partials share: exp(-|s - t|/r) is exp(-|z|) bit for bit
    s = np.array(s)
    t = s[::-1] + 0.125
    want = np.minimum(s, t) - r * np.log1p(np.exp(-np.abs(s - t) / r))
    assert g_r(exponential, s, t, r).tobytes() == want.tobytes()


def test_exponential_partials_saturate_cleanly(exponential):
    # |s - t| / r = 1e6: the sigmoid underflows and the weights pin to {0, 1}
    assert g_r_partials(exponential, 1e4, 0.0, 1e-2) == (0.0, 1.0)
    assert g_r(exponential, 1e4, 0.0, 1e-2) == 0.0
    # so they do where s - t overflows (1e308, -1e308, 1) or (s - t)/r does
    # (1e300, 2, 1e-10): g is min(s, t), with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, t, r in ((1e308, -1e308, 1.0), (1e300, 2.0, 1e-10)):
            for a, b in ((s, t), (np.array([s, 1.0]), np.array([t, 1.5]))):
                g, ds, dt = _g_r_with_partials(exponential, a, b, r)
                assert (np.ravel(g)[0], np.ravel(ds)[0], np.ravel(dt)[0]) == (t, 0.0, 1.0)
                assert np.array_equal(g, g_r(exponential, a, b, r))
                assert np.array_equal((ds, dt), g_r_partials(exponential, a, b, r))


# --- g and its partials from one evaluation ----------------------------------------
#
# _g_r_with_partials runs a shipped kernel's fused closed form, which must
# give (g_r, *g_r_partials) bit for bit, types included, and raise as g_r does.

SHIPPED = ["rational", "exp", "phi:3", "phi:1.5", "phi:2", "phi:4", "phi:1.25", "phi:1.002"]


@pytest.mark.parametrize("selector", SHIPPED)
def test_real_scalars_give_the_bits_of_one_entry_arrays(selector):
    kernel = kernel_from_selector(selector)
    for s, t, r in ((1.0, 2.0, 1.0), (0.3, 7.5, 1e-3), (-0.1, 40.0, 2.0), (2.5, -0.4, 0.3),
                    (1.5, 3, 0.5), (4, -2.0, 0.1), (np.float64(0.5), 3.0, 1e-2),
                    (2.0, np.float64(-1.0), 1.0)):
        one = np.array([float(s)]), np.array([float(t)])
        g = g_r(kernel, s, t, r)
        assert type(g) is float
        assert np.array([g]).tobytes() == g_r(kernel, *one, r).tobytes()
        ds, dt = g_r_partials(kernel, s, t, r)
        assert type(ds) is float and type(dt) is float
        assert np.array([ds, dt]).tobytes() == np.concatenate(g_r_partials(kernel, *one, r)).tobytes()


def _typed_bits(out):
    return [(type(v), np.shape(v), np.asarray(v).dtype.str, np.asarray(v).tobytes())
            for v in out]


def _assert_fused_matches(kernel, s, t, r):
    want = (g_r(kernel, s, t, r), *g_r_partials(kernel, s, t, r))
    got = _g_r_with_partials(kernel, s, t, r)
    assert len(got) == 3
    assert _typed_bits(got) == _typed_bits(want), (kernel.name, s, t, r)


def _fused_arguments(n, rng):
    # magnitudes from 1e-6 to 1e6 of either sign, zeros of both signs and
    # arguments below the splice point x0 = -r/2 of the power kernels
    mag = 10.0 ** rng.uniform(-6.0, 6.0, (2, n))
    pair = mag * rng.choice([-1.0, 1.0], (2, n), p=[0.2, 0.8])
    pick = rng.random((2, n))
    pair[pick < 0.1] = 0.0
    pair[(0.1 <= pick) & (pick < 0.15)] = -0.0
    return pair[0], pair[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("selector", SHIPPED)
def test_fused_soft_min_is_bit_identical_to_the_two_calls(selector):
    kernel = kernel_from_selector(selector)
    assert kernel.softmin_partials_override.func is kernel.softmin_override
    rng = np.random.default_rng(29)
    for r in (1.0, 1e-3, 7.5):
        for n in (1, 28, 32, 33, 100):
            s, t = _fused_arguments(n, rng)
            _assert_fused_matches(kernel, s, t, r)
            # one +inf argument
            s[n // 2] = math.inf
            _assert_fused_matches(kernel, s, t, r)
        for s, t in ((1.0, 2.0), (0.3, 7.5), (2, 5), (np.float64(0.5), 3.0),
                     (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.4 * r, 2.0),
                     (-3.0 * r, -5.0 * r), (-1e3, 4.0), (math.inf, 2.0), (-2.0, math.inf)):
            _assert_fused_matches(kernel, s, t, r)
    # the 28 scaled points (s/r, t/r) at which check_speed_bound(kernel, 2.5,
    # 3.7, 0.3) evaluates the fused form at r = 1, out to 3.7e8
    r = np.concatenate((0.3 * np.geomspace(1.0, 1e-6, 25), [1e-6, 1e-7, 1e-8]))
    _assert_fused_matches(kernel, 2.5 / r, 3.7 / r, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("selector", SHIPPED)
@pytest.mark.parametrize(
    "pair", [(math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0), (2.0, -math.inf),
             (math.inf, math.inf)],
)
@pytest.mark.parametrize("n", [0, 1, 28, 33])
def test_fused_soft_min_raises_as_g_r_does(selector, pair, n):
    # n = 0 is the scalar call; arrays carry the bad pair in their last entry
    kernel = kernel_from_selector(selector)
    if n:
        s, t = np.linspace(0.5, 2.0, n), np.linspace(-0.1, 3.0, n)
        s[-1], t[-1] = pair
    else:
        s, t = pair
    with pytest.raises(Exception) as want:
        g_r(kernel, s, t, 0.1)
    with pytest.raises(want.type) as got:
        _g_r_with_partials(kernel, s, t, 0.1)
    assert type(got.value) is want.type and str(got.value) == str(want.value)


@given(data=st.data())
def test_fused_rational_float_path_is_bit_identical(rational, data):
    # small inputs take the rational kernel's one float loop, which serves g,
    # the partials and the fused form alike, so the fused call is drawn over
    # the same edge values as test_rational_float_path_matches_numpy_bit_for_bit
    n = data.draw(st.sampled_from(SIZES))
    r = data.draw(small_radii)
    pairs = data.draw(st.lists(st.tuples(entries, entries), min_size=1, max_size=8))
    s, t = (np.resize(np.array(v, dtype=float), n) for v in zip(*pairs))
    want = _call(lambda: (g_r(rational, s, t, r), *g_r_partials(rational, s, t, r)))
    got = _call(lambda: _g_r_with_partials(rational, s, t, r))
    if isinstance(want, str):
        assert got == want
    else:
        assert _typed_bits(got) == _typed_bits(want), (s, t, r)


# --- the smoothed system ------------------------------------------------------


def newton_matrix(problem, kernel, x, r):
    """The Newton matrix D1 + D2 JF(x) of H_r, in the form the solver factors."""
    d1, d2 = g_r_partials(kernel, x, problem.F(x), r)
    return _newton_matrix(d1, d2, problem.jacobian(x), problem.tridiagonal)


def test_h_frozen_on_analytic2d(exponential, analytic2d_problem):
    x = np.array([0.0, 1.0])
    h = g_r(exponential, x, analytic2d_problem.F(x), 0.1)
    np.testing.assert_allclose(
        h, [-2.061153620314381e-10, -4.539889921686465e-06], rtol=1e-15)
    # F(0, 1) = (2, 0): both components are exact soft-min overrides
    np.testing.assert_allclose(
        h,
        [-0.1 * math.log1p(math.exp(-20.0)), -0.1 * math.log1p(math.exp(-10.0))],
        rtol=1e-15,
    )


@pytest.mark.parametrize("selector", ["analytic2d", "ks"])
@pytest.mark.parametrize("r", [1.0, 1e-2])
def test_jacobian_matches_finite_differences(kernel, selector, r):
    problem = problem_from_selector(selector)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(0.1, 3.0, size=problem.n)
        jac = newton_matrix(problem, kernel, x, r)
        fd = fd_jacobian(lambda y: g_r(kernel, y, problem.F(y), r), x, rel_step=1e-7)
        scale = 1.0 + np.abs(jac).max()
        assert np.abs(jac - fd).max() / scale < 1e-6


def test_identity_problem_jacobian_is_identity(exponential):
    # F(x) = x makes both soft-min arguments equal, so the two partials are
    # each 1/2 and their partition sum puts exact ones on the diagonal
    problem = NcpProblem(
        name="identity3",
        n=3,
        eval_F=lambda x: x.copy(),
        eval_JF=lambda x: np.eye(3),
        known_solutions=[np.zeros(3)],
    )
    jac = newton_matrix(problem, exponential, np.array([0.3, 1.0, 2.5]), 0.2)
    assert np.array_equal(jac, np.eye(3))


@pytest.mark.parametrize("n", [1, 4, 33])
def test_newton_matrix_is_diagonal_plus_scaled_jacobian(n):
    rng = np.random.default_rng(n)
    d1, d2 = rng.uniform(0.0, 1.0, (2, n))
    jf = rng.normal(size=(n, n))
    dense = np.diag(d1) + d2[:, None] * jf
    assert (_newton_matrix(d1, d2, jf, False) == dense).all()
    # the bands of a tridiagonal jf give the three diagonals of that matrix
    bands = np.zeros((3, n))
    bands[0, 1:], bands[1], bands[2, :-1] = jf.diagonal(1), jf.diagonal(), jf.diagonal(-1)
    dl, diag, du = _newton_matrix(d1, d2, bands, True)
    assert (dl == dense.diagonal(-1)).all()
    assert (diag == dense.diagonal()).all()
    assert (du == dense.diagonal(1)).all()


def test_fd_jacobian_on_quadratic():
    fd = fd_jacobian(lambda x: x**2, np.array([1.0, 2.0]))
    np.testing.assert_allclose(fd, np.diag([2.0, 4.0]), rtol=1e-6)
