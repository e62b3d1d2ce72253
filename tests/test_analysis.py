"""Curvature and limit diagnostics for the soft-min family."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothncp import analysis
from smoothncp import (
    AnalyticBranch,
    SmoothingKernel,
    check_concavity,
    check_speed_bound,
    check_subadditivity,
    g_hessian_entries,
    g_r,
    g_r_deriv_r,
    g_r_partials,
    kernel_from_selector,
    l_function,
    limit_probe,
    log_grid,
    v_function,
)

from decimal_softmin import power_kernel, reference, ulps

CONCAVE_KERNELS = ["rational", "exp", "phi:3"]


def tilted_kernel():
    """Convex decreasing psi whose soft-min is nowhere concave.

    Built from w(x) = 1 + x - 0.1 x^2 via psi' = -1/w.  Since w is concave,
    sigma = psi''/(psi')^2 = w' decreases, which flips the sign of the
    Hessian diagonal of the soft-min for every argument pair.
    """
    s14 = math.sqrt(1.4)
    a = (1.0 + s14) / 0.2
    b = (s14 - 1.0) / 0.2
    c = 1.0 / s14

    def psi(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - c * np.log(a * (x + b) / (b * (a - x)))

    def dpsi(x):
        x = np.asarray(x, dtype=float)
        return -1.0 / (1.0 + x - 0.1 * x * x)

    def d2psi(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - 0.2 * x) / (1.0 + x - 0.1 * x * x) ** 2

    def psi_inv(y):
        y = np.asarray(y, dtype=float)
        e = np.exp((1.0 - y) / c)
        return a * b * (e - 1.0) / (a + b * e)

    branch = AnalyticBranch(psi, dpsi, d2psi, psi_inv, x_low=-0.9)
    return SmoothingKernel(
        name="tilted",
        theta=lambda t: 1.0 - psi(t),
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        psi_inv=psi_inv,
        analytic=branch,
    )


# --- V and its subadditivity ---------------------------------------------------


def test_v_frozen_values(rational, exponential):
    assert v_function(rational, 0.5) == 0.25
    assert v_function(rational, 2.0) == -1.0
    assert v_function(exponential, 0.5) == 0.34657359027997264


def test_v_closed_forms(rational, exponential):
    inner = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(v_function(rational, inner), inner - inner**2, rtol=1e-13)
    outer = np.linspace(1.05, 4.0, 12)
    np.testing.assert_allclose(v_function(rational, outer), 1.0 - outer, rtol=1e-13)
    y = np.linspace(0.05, 4.0, 40)
    np.testing.assert_allclose(v_function(exponential, y), -y * np.log(y), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_v_is_subadditive(selector):
    kern = kernel_from_selector(selector)
    grid = np.linspace(0.05, 5.0, 120)
    rep = check_subadditivity(lambda y: v_function(kern, y), grid, name=f"V[{selector}]")
    assert rep.holds
    assert rep.outcome == "holds"
    assert rep.witness is None


def test_subadditivity_detects_violation():
    rep = check_subadditivity(lambda y: y * y, np.linspace(0.1, 5.0, 50), name="square")
    assert not rep.holds
    assert rep.outcome == "violated"
    assert rep.witness["f(alpha+beta)"] > rep.witness["f(alpha)+f(beta)"]


# --- L and its closed-form laws -------------------------------------------------


def test_l_frozen_values(rational, exponential):
    assert l_function(rational, 2.0) == -1.0
    assert l_function(rational, 0.5) == -0.25
    assert l_function(exponential, 1.0) == -1.0
    assert l_function(exponential, 0.25) == -0.25
    assert l_function(kernel_from_selector("phi:3"), 0.9) == -0.30000000000000004


def test_l_closed_form_laws(rational, exponential):
    alpha = np.linspace(1e-3, 10.0, 400)
    assert np.abs(l_function(rational, alpha) + alpha / 2.0).max() <= 1e-9
    assert np.abs(l_function(exponential, alpha) + alpha).max() <= 1e-9
    phi3 = kernel_from_selector("phi:3")
    assert np.abs(l_function(phi3, alpha) + alpha / 3.0).max() <= 1e-9


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
@pytest.mark.parametrize(
    "arg", [[math.nan, 1.0], [math.inf], [-1.0]], ids=["nan", "inf", "negative"]
)
def test_v_and_l_reject_points_outside_the_range_of_psi(selector, arg):
    kernel = kernel_from_selector(selector)
    with pytest.raises(ValueError, match="v_function's y must be finite and positive"):
        v_function(kernel, arg)
    with pytest.raises(ValueError, match="l_function's alpha must be finite and positive"):
        l_function(kernel, arg)


# --- soft-min Hessian ------------------------------------------------------------


def test_hessian_frozen_entries(rational, exponential):
    r_e, t_e, s_e = g_hessian_entries(exponential, 1.0, 1.0)
    assert (r_e, t_e, s_e) == pytest.approx((-0.25, -0.25, 0.25), abs=1e-15)
    r_r, t_r, s_r = g_hessian_entries(rational, 2.0, 3.0)
    assert r_r == pytest.approx(-0.09329446064139943, rel=1e-14)
    assert t_r == pytest.approx(-0.05247813411078717, rel=1e-14)
    assert s_r == pytest.approx(0.06997084548104957, rel=1e-14)
    # scale invariance of the rational soft-min makes the Hessian singular
    assert r_r * t_r - s_r * s_r == 0.0


@given(s=st.floats(0.1, 10.0), t=st.floats(0.1, 10.0))
def test_hessian_negative_semidefinite(kernel, s, t):
    r_e, t_e, s_e = g_hessian_entries(kernel, s, t)
    assert r_e <= 1e-15
    assert t_e <= 1e-15
    assert r_e * t_e - s_e * s_e >= -1e-12


def test_hessian_entries_raise_when_the_psi_sum_underflows():
    # psi(10) = 11^-500 underflows to 0 for phi:1.002; the Hessian, on the
    # analytic branch, raises, while g_r's log-domain closed form forms no
    # psi value and computes
    kernel = kernel_from_selector("phi:1.002")
    message = "soft-min evaluation left the representable range of psi"
    with pytest.raises(FloatingPointError, match=message):
        g_hessian_entries(kernel, np.array([1.0, 10.0]), np.array([1.0, 10.0]))
    g = g_r(kernel, 10.0, 10.0, 1.0)
    assert math.isfinite(g) and g <= 10.0
    assert ulps(g, reference(power_kernel(1.002), 10.0, 10.0, 1.0)[0]) <= 1.0


def test_concavity_raises_when_the_hessian_denominator_underflows():
    # psi(G) is a positive sum here, but psi'(G)^3 underflows to 0, which
    # made R, T and S 0/0 = NaN and the check report "violated"
    kernel = kernel_from_selector("phi:1.002")
    message = "soft-min evaluation left the representable range of psi"
    with pytest.raises(FloatingPointError, match=message):
        g_hessian_entries(kernel, 1.0, 2.0)
    with pytest.raises(FloatingPointError, match=message):
        check_concavity(kernel, np.geomspace(0.1, 1.0, 33))


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_concavity_check_holds(selector):
    rep = check_concavity(kernel_from_selector(selector), np.geomspace(0.1, 10.0, 65))
    assert rep.holds
    assert rep.witness is None
    assert rep.details["hessian_route"] == "holds"
    assert rep.details["l_route"] == "holds"


def test_concavity_check_flags_violation():
    rep = check_concavity(tilted_kernel(), np.geomspace(0.2, 1.2, 33))
    assert not rep.holds
    assert rep.outcome == "violated"
    assert rep.details["hessian_route"] == "violated"
    assert rep.details["l_route"] == "violated"
    assert rep.max_defect > 0.0
    # the recorded pair really has a positive diagonal entry
    assert rep.witness["R"] > 0.0 or rep.witness["T"] > 0.0


def test_concavity_report_does_not_depend_on_hessian_blocks(monkeypatch):
    grid = np.geomspace(0.2, 1.2, 40)
    for kernel in (tilted_kernel(), kernel_from_selector("phi:3")):
        whole = check_concavity(kernel, grid)
        for block in (7 * grid.size, 1):
            monkeypatch.setattr(analysis, "_HESSIAN_BLOCK", block)
            assert check_concavity(kernel, grid) == whole
        monkeypatch.undo()


HESSIAN_GRID = np.geomspace(0.2, 1.2, 40)
_TILTED = tilted_kernel().analytic
# the soft-min G(s, s) = psi_inv(2 psi(s)) at the grid's points 5 and 30
NAN_MIDS = _TILTED.psi_inv(2.0 * _TILTED.psi(HESSIAN_GRID[[5, 30]]))


def nan_kernel():
    """tilted_kernel() with an analytic psi'' that is NaN near NAN_MIDS.

    psi'' is NaN within 1e-9 relative of G(s, s) at two grid points s, a band
    that holds no grid point and no G(s, t) of any other grid pair, so the
    Hessian defect is NaN at the diagonal points (5, 5) and (30, 30) only:
    rows 0 to 4 are finite.
    """
    kernel = tilted_kernel()
    br = kernel.analytic

    def d2psi(x):
        x = np.asarray(x, dtype=float)
        near = np.isclose(x[..., None], NAN_MIDS, rtol=1e-9, atol=0.0).any(axis=-1)
        return np.where(near, np.nan, br.d2psi(x))

    return dataclasses.replace(kernel, analytic=dataclasses.replace(br, d2psi=d2psi))


def hessian_defects(kernel):
    """The Hessian-route defects and entries (R, T, S) on the whole
    HESSIAN_GRID x HESSIAN_GRID grid."""
    grid = HESSIAN_GRID
    r_e, t_e, s_e = g_hessian_entries(kernel, grid[:, None], grid[None, :])
    det_defect = s_e**2 - r_e * t_e - analysis.HESSIAN_DET_SLACK
    return np.maximum(np.maximum(r_e, t_e), det_defect), (r_e, t_e, s_e)


def hessian_reference(kernel):
    """Worst Hessian-route defect on the whole HESSIAN_GRID x HESSIAN_GRID grid.

    Returns the defect, its (s, t) index as np.argmax gives it (the first
    NaN in row-major order, else the first largest entry) and the entries
    (R, T, S) there.
    """
    defect, (r_e, t_e, s_e) = hessian_defects(kernel)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    return float(defect.max()), int(i), int(j), (r_e[i, j], t_e[i, j], s_e[i, j])


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1-row", "7-rows"])
@pytest.mark.parametrize(
    "make",
    [tilted_kernel, lambda: kernel_from_selector("phi:3"), nan_kernel],
    ids=["tilted", "phi:3", "nan"],
)
def test_hessian_route_matches_whole_grid(monkeypatch, make, rows):
    # 7 rows do not divide the 40 s points, so the last block is short
    if rows is not None:
        monkeypatch.setattr(analysis, "_HESSIAN_BLOCK", rows * HESSIAN_GRID.size)
    kernel = make()
    rep = check_concavity(kernel, HESSIAN_GRID)
    worst, i, j, (r_e, t_e, s_e) = hessian_reference(kernel)
    l_worst = (rep.details["l_monotonicity_defect"], rep.details["l_subadditivity_defect"])
    np.testing.assert_equal(rep.max_defect, max(worst, *l_worst))
    if worst <= 0.0:
        assert rep.details["hessian_route"] == "holds"
        return
    assert rep.details["hessian_route"] == "violated"
    expected = {
        "s": HESSIAN_GRID[i], "t": HESSIAN_GRID[j], "R": r_e, "T": t_e, "S": s_e,
        "route": "hessian",
    }
    np.testing.assert_equal(rep.witness, expected)


def test_hessian_route_first_nan_wins():
    # the finite defects are positive everywhere, yet the first NaN row wins
    worst, i, j, _ = hessian_reference(nan_kernel())
    assert math.isnan(worst) and (i, j) == (5, 5)
    assert hessian_reference(tilted_kernel())[0] > 0.0
    defect = hessian_defects(nan_kernel())[0]
    assert np.argwhere(np.isnan(defect)).tolist() == [[5, 5], [30, 30]]


@pytest.mark.parametrize(
    "grid",
    [
        np.array([]),
        np.array([1.0]),
        np.geomspace(0.1, 10.0, 9).reshape(3, 3),
        np.array([0.5, np.nan, 2.0]),
        np.array([0.5, np.inf]),
        np.array([0.0, 1.0]),
    ],
    ids=["empty-s", "one-point-s", "2d-s", "nan-s", "inf-s", "zero-s"],
)
def test_concavity_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="1-d array of at least two finite positive"):
        check_concavity(kernel_from_selector("phi:3"), grid)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_concavity_memory_is_bounded_by_the_blocks(selector):
    kernel = kernel_from_selector(selector)
    grid = np.geomspace(0.1, 10.0, 512)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        check_concavity(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    # a whole 512 x 512 float array alone is 2.1 MB
    assert peak < 2e6


def test_subadditivity_report_does_not_depend_on_blocks(monkeypatch):
    grid = np.linspace(0.1, 5.0, 40)
    kern = kernel_from_selector("phi:3")
    # the last one first fails on a row past the first, at alpha + 5 > 9
    late = lambda y: np.where(y > 9.0, 1.0, -y)  # noqa: E731
    for f in (lambda y: v_function(kern, y), lambda y: y * y, late):
        whole = check_subadditivity(f, grid)
        for block in (1, grid.size - 1, 7 * grid.size):
            monkeypatch.setattr(analysis, "_SUBADD_BLOCK", block)
            assert check_subadditivity(f, grid) == whole
        monkeypatch.undo()
    assert check_subadditivity(late, grid).witness["alpha"] == grid[grid + 5.0 > 9.0][0]


def test_subadditivity_nan_defect_is_a_violation_with_witness(monkeypatch):
    grid = np.linspace(0.1, 5.0, 40)
    for block in (1, 7 * grid.size):
        monkeypatch.setattr(analysis, "_SUBADD_BLOCK", block)
        rep = check_subadditivity(lambda y: np.where(y > 4.0, np.nan, 0.0), grid)
        assert rep.outcome == "violated" and math.isnan(rep.max_defect)
        # the first pair in row-major order whose sum leaves the domain
        assert rep.witness["alpha"] == grid[0]
        assert rep.witness["beta"] == grid[np.argmax(grid[0] + grid > 4.0)]


# --- r -> 0 limits ---------------------------------------------------------------


def test_limit_probe_frozen(rational, exponential):
    est = limit_probe(rational, 1.0, 2.0)
    assert est.consistent
    assert est.limit == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert limit_probe(rational, 3.0, 3.0).limit == pytest.approx(1.5, rel=1e-9)
    est = limit_probe(exponential, 1.0, 2.0)
    assert est.consistent
    assert est.limit == pytest.approx(1.0, rel=1e-9)
    assert limit_probe(exponential, 0.5, 0.3).limit == pytest.approx(0.3, rel=1e-9)


def test_limit_probe_zero_case(rational, exponential):
    for kern in (rational, exponential):
        est = limit_probe(kern, 0.0, 2.0)
        assert abs(est.limit) <= 1e-6
        assert len(est.r_values) == len(est.g_values)
        assert np.all(np.diff(est.r_values) < 0.0)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_limit_probe_and_deriv_reject_non_finite_arguments(selector):
    kernel = kernel_from_selector(selector)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, t in ((math.inf, 1.0), (1.0, math.nan), (-math.inf, 2.0)):
            with pytest.raises(ValueError, match="s and t must be finite"):
                limit_probe(kernel, s, t)
            with pytest.raises(ValueError, match="s and t must be finite"):
                g_r_deriv_r(kernel, s, t, 1.0)
        with pytest.raises(ValueError, match="s and t must be finite"):
            g_r_deriv_r(kernel, np.array([1.0, 2.0]), np.array([0.5, math.inf]), 1.0)
        # s/r or t/r overflows at the smallest r of the probe, or at r
        for s, t in ((1e301, 1.0), (1.0, -1e301)):
            with pytest.raises(ValueError, match="finite at the smallest r"):
                limit_probe(kernel, s, t)
        for s, t in ((1e300, 2.0), (1e300, 1e300), (2.0, -1e300)):
            with pytest.raises(ValueError, match="s/r and t/r must be finite"):
                g_r_deriv_r(kernel, s, t, 1e-10)
        with pytest.raises(ValueError, match="s/r and t/r must be finite"):
            g_r_deriv_r(kernel, np.array([1.0, 1e300]), np.array([0.5, 2.0]), 1e-10)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_limit_probe_keeps_zero_negative_and_large_arguments(selector):
    kernel = kernel_from_selector(selector)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(limit_probe(kernel, 0.0, 0.0).limit) <= 1e-6
        assert limit_probe(kernel, -1.0, 2.0).limit == pytest.approx(-1.0, rel=1e-6)
        # s + t overflows inside the rational soft-min, with no warning
        est = limit_probe(kernel, 1e300, 1e300)
        assert math.isfinite(est.limit)
        # s - t overflows inside the exponential one, whose value is still
        # min(s, t)
        est = limit_probe(kernel, 1.5e300, -1.5e300)
        assert est.g_values == (-1.5e300,) * 3 and est.limit == -1.5e300
        assert math.isfinite(g_r_deriv_r(kernel, 1e308, -1e308, 1.0))


# --- d g_r / d r ------------------------------------------------------------------


@given(s=st.floats(0.5, 10.0), t=st.floats(0.5, 10.0), r=st.floats(1e-3, 0.4))
def test_deriv_r_closed_form(rational, s, t, r):
    expected = -2.0 * (s * t + r * (s + t) + r * r) / (s + t + 2.0 * r) ** 2
    assert g_r_deriv_r(rational, s, t, r) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("s,t,r", [(1.0, 2.0, 0.3), (0.4, 0.6, 0.1), (2.0, 2.0, 0.5)])
def test_deriv_r_matches_finite_differences(kernel, s, t, r):
    h = 1e-6 * r
    fd = (g_r(kernel, s, t, r + h) - g_r(kernel, s, t, r - h)) / (2.0 * h)
    assert g_r_deriv_r(kernel, s, t, r) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("s,t", [(0.5, 2.0), (1.0, 3.0), (0.7, 0.9)])
def test_rational_speed_defect_closed_form(rational, s, t):
    # r f'(r) - (f(r) - f(0+)) = -r^2 (s-t)^2 / ((s+t)(s+t+2r)^2) on s t >= r^2;
    # the bound r f' <= f(r) - f(0+) is tight only as r -> 0
    def defect(r):
        f0 = s * t / (s + t)
        return r * g_r_deriv_r(rational, s, t, r) - (g_r(rational, s, t, r) - f0)

    for r in (1e-2, 1e-4):
        expected = -(r * r) * (s - t) ** 2 / ((s + t) * (s + t + 2.0 * r) ** 2)
        assert defect(r) == pytest.approx(expected, rel=1e-6, abs=1e-16)
    # vanishes quadratically, so two decades in r buy four in the defect
    if s != t:
        assert abs(defect(1e-4)) < 1e-3 * abs(defect(1e-2))


def test_rational_speed_defect_zero_on_diagonal(rational):
    f0 = 0.5
    r = 1e-4
    got = r * g_r_deriv_r(rational, 1.0, 1.0, r) - (g_r(rational, 1.0, 1.0, r) - f0)
    assert got == pytest.approx(0.0, abs=1e-14)


def test_speed_bound_reports(kernel):
    rng = np.random.default_rng(11)
    for _ in range(50):
        s, t = rng.uniform(0.1, 5.0, size=2)
        r0 = rng.uniform(1e-3, 0.5)
        rep = check_speed_bound(kernel, s, t, r0)
        assert rep.holds
        assert rep.property == "speed_bound"


def _speed_bound_per_r(kernel, s, t, r0):
    """The speed-bound check with one scalar soft-min call per r.

    Returns (outcome, max_defect, witness) as check_speed_bound reports them.
    """
    slack = 1e-9
    probe = [float(g_r(kernel, s, t, r)) for r in (1e-6, 1e-7, 1e-8)]
    f0 = probe[2] + (probe[2] - probe[1]) * 1e-8 / (1e-7 - 1e-8)
    fr0 = float(g_r(kernel, s, t, r0))
    max_defect, witness = -math.inf, None
    for r in map(float, np.geomspace(r0, r0 * 1e-6, 25)):
        fr = float(g_r(kernel, s, t, r))
        ps, pt = g_r_partials(kernel, s, t, r)
        rdf = fr - (s * float(ps) + t * float(pt))
        defects = {
            "upper": fr - f0 - slack,
            "lower": f0 - r * (f0 - fr0) / r0 - fr - slack,
            "derivative": rdf - (fr - f0) - slack,
        }
        worst = max(defects.values())
        max_defect = max(max_defect, worst)
        if worst > 0.0 and witness is None:
            witness = {"r": r, "side": max(defects, key=defects.get)}
    return ("holds" if witness is None else "violated"), max_defect, witness


def _speed_bound_by_parts(kernel, s, t, r0):
    """check_speed_bound's report, built from limit_probe, the sweep
    r * g_1(s/r, t/r), whose first r is r0, and g_r_deriv_r at (s/r, t/r, 1)."""
    rs = r0 * np.geomspace(1.0, 1e-6, 25)
    f0 = limit_probe(kernel, s, t).limit
    fr = rs * np.asarray(g_r(kernel, s / rs, t / rs, 1.0), dtype=float)
    fr0 = float(fr[0])
    rdf = rs * g_r_deriv_r(kernel, s / rs, t / rs, 1.0)
    sides = {
        "upper": fr - f0 - analysis.SPEED_SLACK,
        "lower": f0 - rs * (f0 - fr0) / r0 - fr - analysis.SPEED_SLACK,
        "derivative": rdf - (fr - f0) - analysis.SPEED_SLACK,
    }
    worst = np.maximum(np.maximum(sides["upper"], sides["lower"]), sides["derivative"])
    rep = {
        "property": "speed_bound",
        "grid": f"s={s:g}, t={t:g}, r0={r0:g}, {rs.size} r values",
        "max_defect": float(worst.max()),
    }
    bad = np.flatnonzero(worst > 0.0)
    if bad.size:
        k = int(bad[0])
        rep["witness"] = {
            "r": float(rs[k]),
            "f(r)": float(fr[k]),
            "f(0)": f0,
            "side": max(sides, key=lambda side: sides[side][k]),
        }
    return analysis.AnalysisReport(**rep)


def _assert_same_report(kernel, s, t, r0):
    # repr spells every float exactly, its type included, and NaN as nan
    got = check_speed_bound(kernel, s, t, r0)
    want = _speed_bound_by_parts(kernel, s, t, r0)
    assert repr(got) == repr(want), (kernel.name, s, t, r0)


def _assert_matches_per_r(kernel, s, t, r0):
    rep = check_speed_bound(kernel, s, t, r0)
    _assert_same_report(kernel, s, t, r0)
    outcome, max_defect, witness = _speed_bound_per_r(kernel, s, t, r0)
    assert rep.outcome == outcome, (kernel.name, s, t, r0)
    assert abs(rep.max_defect - max_defect) <= 1e-12, (kernel.name, s, t, r0)
    if witness is not None:
        assert rep.witness["r"] == witness["r"]
        assert rep.witness["side"] == witness["side"]
    return rep


@pytest.mark.parametrize("selector", ["rational", "exp", "phi:3"])
def test_speed_bound_sweep_matches_per_r_loop(selector):
    kernel = kernel_from_selector(selector)
    rng = np.random.default_rng(8)
    for _ in range(200):
        s = float(rng.uniform(0.05, 10.0))
        t = float(rng.uniform(0.05, 10.0))
        r0 = float(rng.uniform(1e-3, 1.0))
        assert _assert_matches_per_r(kernel, s, t, r0).holds
        est = limit_probe(kernel, s, t)
        expected = [float(g_r(kernel, s, t, r)) for r in est.r_values]
        np.testing.assert_allclose(est.g_values, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS + ["phi:1.5"])
def test_speed_bound_is_bit_identical_to_its_parts(selector):
    # the triples are drawn on the benchmark's ranges
    kernel = kernel_from_selector(selector)
    rng = np.random.default_rng(13)
    for _ in range(150):
        s, t = rng.uniform(0.05, 10.0, 2).tolist()
        r0 = float(rng.uniform(1e-3, 1.0))
        _assert_same_report(kernel, s, t, r0)


def _overriding(softmin, partials, selector="rational"):
    """The selector's kernel with its soft-min and partials replaced.

    Both overrides are homogeneous, g_r(s, t) = r * g_1(s/r, t/r), as every
    kernel's soft-min is.
    """
    return dataclasses.replace(
        kernel_from_selector(selector),
        name="override",
        softmin_override=softmin,
        softmin_partials_override=partials,
    )


def _min_partials(s, t, r):
    below = np.asarray(s) <= np.asarray(t)
    return np.where(below, 1.0, 0.0), np.where(below, 0.0, 1.0)


def test_speed_bound_witness_upper():
    # overshoots min(s, t) by r: f(0) = min, so f(r) <= f(0) + slack fails
    # once r > slack, first at r0; exact partials of min keep the derivative
    # side at zero
    kernel = _overriding(lambda s, t, r: np.minimum(s, t) + r, _min_partials)
    rep = _assert_matches_per_r(kernel, 1.0, 2.0, 0.1)
    assert rep.outcome == "violated"
    assert rep.witness["r"] == 0.1
    assert rep.witness["side"] == "upper"
    assert rep.witness["f(0)"] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_defect == pytest.approx(0.1, rel=1e-6)


def test_speed_bound_witness_lower():
    # f(r) = m - r (1 - exp(-m/r)) with m = min(s, t) lies below its chord
    # from f(0) = m to f(r0); the partials of min make r f'(r) = f(r) - f(0)
    def softmin(s, t, r):
        m = np.minimum(s, t)
        return m - r * (1.0 - np.exp(-m / r))

    kernel = _overriding(softmin, _min_partials)
    rep = _assert_matches_per_r(kernel, 1.0, 2.0, 1.0)
    assert rep.outcome == "violated"
    assert rep.witness["r"] == np.geomspace(1.0, 1e-6, 25)[1]
    assert rep.witness["side"] == "lower"


def test_speed_bound_witness_derivative():
    # below min(s, t), but zero partials make r f'(r) = f(r) ~ min(s, t)
    kernel = _overriding(
        lambda s, t, r: np.minimum(s, t) - r,
        lambda s, t, r: (np.zeros_like(s), np.zeros_like(t)),
    )
    rep = _assert_matches_per_r(kernel, 1.0, 2.0, 0.1)
    assert rep.outcome == "violated"
    assert rep.witness["r"] == 0.1
    assert rep.witness["side"] == "derivative"


def test_speed_bound_nan_defect_does_not_hide_a_violation():
    # for (1, 2) and r0 = 0.1 the sweep is r_k = 0.1 * 10^(-k/4): f(r) = min
    # for r_0 to r_2, NaN where 50 < min(s, t)/r < 500 (r_3 to r_6), and an
    # overshoot by r from r_7 on, where the limit probe lies too
    def softmin(s, t, r):
        m = np.minimum(s, t)
        return np.where(m / r < 50.0, m, np.where(m / r < 500.0, math.nan, m + r))

    kernel = _overriding(softmin, _min_partials)
    rep = check_speed_bound(kernel, 1.0, 2.0, 0.1)
    _assert_same_report(kernel, 1.0, 2.0, 0.1)
    assert math.isnan(rep.max_defect)
    assert rep.outcome == "violated"
    assert rep.witness["r"] == 0.1 * np.geomspace(1.0, 1e-6, 25)[7]
    assert rep.witness["side"] == "upper"


def _counting(fn, calls, key, keep_attributes):
    """fn, counting its calls in calls[key]; with keep_attributes the wrapper
    copies fn's attributes, as functools.wraps does."""

    def counted(*args):
        calls[key] += 1
        return fn(*args)

    return functools.wraps(fn)(counted) if keep_attributes else counted


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
@pytest.mark.parametrize("replaced", ["softmin", "partials", "both"])
@pytest.mark.parametrize("keep_attributes", [False, True])
def test_speed_bound_calls_replaced_overrides(selector, replaced, keep_attributes):
    # a kernel whose overrides are not the pair its fused form was built from
    # must reach the replaced functions, and report as its parts do
    shipped = kernel_from_selector(selector)
    calls = {"softmin": 0, "partials": 0}
    softmin, partials = shipped.softmin_override, shipped.softmin_partials_override
    if replaced != "partials":
        softmin = _counting(softmin, calls, "softmin", keep_attributes)
    if replaced != "softmin":
        partials = _counting(partials, calls, "partials", keep_attributes)
    kernel = dataclasses.replace(
        shipped, softmin_override=softmin, softmin_partials_override=partials
    )
    rng = np.random.default_rng(29)
    for _ in range(20):
        s, t = rng.uniform(0.05, 10.0, 2).tolist()
        r0 = float(rng.uniform(1e-3, 1.0))
        before = dict(calls)
        got = check_speed_bound(kernel, s, t, r0)
        assert repr(got) == repr(check_speed_bound(shipped, s, t, r0))
        for key in ("softmin", "partials"):
            if replaced in (key, "both"):
                assert calls[key] == before[key] + 1
        _assert_same_report(kernel, s, t, r0)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
@pytest.mark.parametrize("unset", ["softmin_override", "softmin_partials_override", "both"])
def test_speed_bound_with_generic_composition(selector, unset):
    # an unset override takes the generic psi_inv(psi + psi) composition
    fields = ["softmin_override", "softmin_partials_override"] if unset == "both" else [unset]
    kernel = dataclasses.replace(
        kernel_from_selector(selector), **{f: None for f in fields}
    )
    rng = np.random.default_rng(30)
    for _ in range(20):
        s, t = rng.uniform(0.05, 10.0, 2).tolist()
        r0 = float(rng.uniform(1e-3, 1.0))
        if selector == "exp":
            # exp(-s/r) underflows at the smallest r, so the generic soft-min
            # and its partials raise, in the check as in its parts
            message = "left the representable range of psi"
            with pytest.raises(FloatingPointError, match=message):
                check_speed_bound(kernel, s, t, r0)
            with pytest.raises(FloatingPointError, match=message):
                _speed_bound_by_parts(kernel, s, t, r0)
            continue
        assert check_speed_bound(kernel, s, t, r0).holds
        _assert_same_report(kernel, s, t, r0)


@pytest.mark.parametrize("bad", [None, -0.0])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_speed_bound_rejects_unusable_argument_types(rational, bad, position):
    args = [1.5, 2.5, 0.5]
    args[position] = bad
    with pytest.raises(ValueError, match="^s, t and r0 must be finite and positive$"):
        check_speed_bound(rational, *args)
    for bad_value, error in (("abc", ValueError), ([1.5], ValueError),
                             (np.array([1.5]), ValueError), (1 + 0j, TypeError)):
        args[position] = bad_value
        with pytest.raises(error):
            check_speed_bound(rational, *args)


@pytest.mark.parametrize(
    "value, plain",
    [("1.5", 1.5), (np.float32(1.5), 1.5), (np.array(1.5), 1.5), (True, 1.0), (2, 2.0),
     (np.float64(1.5), 1.5)],
    ids=["str", "float32", "0-d-array", "bool", "int", "float64"],
)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_speed_bound_accepts_real_arguments_as_floats(rational, value, plain, position):
    args, plain_args = [1.5, 2.5, 0.5], [1.5, 2.5, 0.5]
    args[position], plain_args[position] = value, plain
    assert repr(check_speed_bound(rational, *args)) == repr(
        check_speed_bound(rational, *plain_args)
    )


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
def test_speed_bound_default_sweep_is_r0_times_a_fixed_sweep(selector):
    # f(r) = min(s, t) + r at and below a cut, min(s, t) above it: the witness
    # is the first r of the sweep at or below the cut, so placing the cut at
    # each sweep point in turn reads the whole sweep back from the reports.
    # With r0 >= 0.1, r = 1e-7 and 1e-8 of the limit probe overshoot too,
    # so that f(0) = min(s, t).
    unit = np.geomspace(1.0, 1e-6, 25)
    for r0 in (1.0, 0.1, 0.37, 0.9):
        sweep = r0 * unit
        # exact end points; numpy's geomspace rounds the interior points of
        # np.geomspace(r0, r0 * 1e-6, 25) to within about 10 eps of these
        assert sweep[0] == r0 and sweep[-1] == r0 * 1e-6
        np.testing.assert_allclose(sweep, np.geomspace(r0, r0 * 1e-6, 25), rtol=4e-15)
        for r in sweep:
            cut = 1.0 / r  # min(s, t) / r at s = 1, as the check computes it

            def softmin(s, t, rr, cut=cut):
                m = np.minimum(s, t)
                return np.where(m / rr >= cut, m + rr, m)

            kernel = _overriding(softmin, _min_partials, selector)
            rep = check_speed_bound(kernel, 1.0, 2.0, r0)
            assert rep.grid.endswith(", 25 r values")
            assert rep.witness["r"] == r and rep.witness["side"] == "upper", (r0, r)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
@pytest.mark.parametrize(
    "s, t, r0, message",
    [
        (1.0, math.inf, 0.5, "finite and positive"),
        (math.inf, 1.0, 0.5, "finite and positive"),
        (math.nan, 1.0, 0.5, "finite and positive"),
        (0.0, 1.0, 0.5, "finite and positive"),
        (1.0, 2.0, math.inf, "finite and positive"),
        (1.0, 2.0, -0.5, "finite and positive"),
        # the smallest sweep r, r0 * 1e-6, makes s/r overflow, or is 0
        (1.0, 2.0, 1e-310, "keep s/r and t/r finite"),
        (1.0, 2.0, 5e-320, "keep s/r and t/r finite"),
        # the limit probe's r = 1e-8 makes s/r overflow
        (1e301, 2.0, 1.0, "keep s/r and t/r finite"),
    ],
    ids=[
        "inf-t", "inf-s", "nan-s", "zero-s", "inf-r0", "negative-r0",
        "tiny-r0", "r0-sweep-underflows", "huge-s",
    ],
)
def test_speed_bound_rejects_bad_inputs(selector, s, t, r0, message):
    with pytest.raises(ValueError, match=message):
        check_speed_bound(kernel_from_selector(selector), s, t, r0)


# Outside the supported scales the check failed in the kernel's arithmetic or
# gave a false verdict: phi:3 raised ArithmeticError ("psi' vanished") at
# (1, 2, 1e-290) and (1e299, 1e299, 1); r0 = 1e300 warned of overflow for
# every kernel, as rational did at (1e300, 1e300, 1); and each kernel reported
# false violations, exp at (1e300, 1e300, 1) with max_defect 1.5e284 and all
# three at (1e8, 1e8, 1) and (1e-8, 2e-8, 5e-9).
@pytest.mark.parametrize("selector", CONCAVE_KERNELS)
@pytest.mark.parametrize(
    "s, t, r0, message",
    [
        (1.0, 2.0, 1e-290, "keep s/r and t/r finite"),
        (1e299, 1e299, 1.0, "keep s/r and t/r finite"),
        (1e300, 1e300, 1.0, "keep s/r and t/r finite"),
        (1.0, 2.0, 1e-11, "keep s/r and t/r finite"),
        (1.0, 2.0, 1e300, "r0 must be at most"),
        (1.0, 2.0, 1e8, "r0 must be at most"),
        (1e8, 1e8, 1.0, "s and t must lie in"),
        (1e7, 2e7, 0.5, "s and t must lie in"),
        (1e-8, 2e-8, 5e-9, "s and t must lie in"),
        (1e-7, 2e-7, 5e-8, "s and t must lie in"),
        (1.0, 2e-5, 1.0, "s and t must lie in"),
    ],
    ids=[
        "tiny-r0", "huge-s-t", "huge-s-t-exp", "ratio-over-1e16",
        "huge-r0", "large-r0", "large-s-t", "large-s-t-uneven", "tiny-s-t",
        "small-s-t", "small-t",
    ],
)
def test_speed_bound_rejects_unsupported_scales(selector, s, t, r0, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            check_speed_bound(kernel_from_selector(selector), s, t, r0)


@pytest.mark.parametrize("selector", CONCAVE_KERNELS + ["phi:1.5", "phi:2"])
def test_speed_bound_holds_across_the_supported_scales(selector):
    # the corners of the supported box, then log-uniform draws inside it;
    # r0 reaches down to where the sweep's s/r and t/r are 1e15
    kernel = kernel_from_selector(selector)
    cases = [
        (s, t, r0)
        for s in (1e-4, 1.0, 1e4)
        for t in (1e-4, 1.0, 1e4)
        for r0 in (max(s, t) * 1e-9, 1e-3, 1.0, 1e4)
    ]
    rng = np.random.default_rng(12)
    for _ in range(150):
        s, t = 10.0 ** rng.uniform(-4.0, 4.0, 2)
        r0 = 10.0 ** rng.uniform(math.log10(max(s, t)) - 9.0, 4.0)
        cases.append((float(s), float(t), float(r0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, t, r0 in cases:
            rep = check_speed_bound(kernel, s, t, r0)
            assert rep.holds, (selector, s, t, r0, rep.max_defect, rep.witness)


# --- grid helper ------------------------------------------------------------------


def test_log_grid_shape():
    g = log_grid(0.1, 10.0, points_per_decade=8)
    assert g.size == 17
    assert g[0] == 0.1 and g[-1] == 10.0
    np.testing.assert_allclose(g[1:] / g[:-1], 10.0 ** (1.0 / 8.0), rtol=1e-12)
    assert log_grid(1.0, 1000.0).size == 3 * 64 + 1
    for lo, hi in [(1.0, 1.0), (0.0, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="log_grid requires 0 < lo < hi < inf"):
            log_grid(lo, hi)
    for density in [0, -3, 0.5, math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError, match="points_per_decade must be finite and >= 1"):
            log_grid(0.01, 100.0, density)
