"""Curvature and limit diagnostics for the soft-min family."""

import dataclasses
import math

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
        assert est.limit_is_zero
        assert len(est.r_values) == len(est.g_values)
        assert np.all(np.diff(est.r_values) < 0.0)


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


def _speed_bound_per_r(kernel, s, t, r0, r_seq=None):
    """The speed-bound check with one scalar soft-min call per r.

    Returns (outcome, max_defect, witness) as check_speed_bound reports them.
    """
    slack = 1e-9
    probe = [float(g_r(kernel, s, t, r)) for r in (1e-6, 1e-7, 1e-8)]
    f0 = probe[2] + (probe[2] - probe[1]) * 1e-8 / (1e-7 - 1e-8)
    fr0 = float(g_r(kernel, s, t, r0))
    rs = np.geomspace(r0, r0 * 1e-6, 25) if r_seq is None else r_seq
    max_defect, witness = -math.inf, None
    for r in map(float, rs):
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


def _assert_matches_per_r(kernel, s, t, r0, r_seq=None):
    rep = check_speed_bound(kernel, s, t, r0, r_seq)
    outcome, max_defect, witness = _speed_bound_per_r(kernel, s, t, r0, r_seq)
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


def test_speed_bound_explicit_r_seq(kernel):
    r_seq = (0.3, 1e-4, 0.05, 0.5, 2e-9)
    rep = _assert_matches_per_r(kernel, 1.5, 0.7, 0.5, r_seq)
    assert rep.holds
    assert rep.grid.endswith("5 r values")
    for bad in ((0.3, 0.6), (0.3, 0.0), (-1e-3,)):
        with pytest.raises(ValueError, match=r"\(0, r0\]"):
            check_speed_bound(kernel, 1.5, 0.7, 0.5, bad)


def _overriding(softmin, partials):
    """Rational kernel with its soft-min and partials replaced.

    Both overrides are homogeneous, g_r(s, t) = r * g_1(s/r, t/r), as every
    kernel's soft-min is.
    """
    return dataclasses.replace(
        kernel_from_selector("rational"),
        name="override",
        softmin_override=softmin,
        softmin_partials_override=partials,
    )


def _min_partials(s, t, r):
    below = np.asarray(s) <= np.asarray(t)
    return np.where(below, 1.0, 0.0), np.where(below, 0.0, 1.0)


def test_speed_bound_witness_upper():
    # overshoots min(s, t) by r: f(0) = min, so f(r) <= f(0) + slack fails
    # once r > slack; exact partials of min keep the derivative side at zero
    kernel = _overriding(lambda s, t, r: np.minimum(s, t) + r, _min_partials)
    rep = _assert_matches_per_r(kernel, 1.0, 2.0, 0.1, (1e-10, 1e-3, 1e-2))
    assert rep.outcome == "violated"
    assert rep.witness["r"] == 1e-3
    assert rep.witness["side"] == "upper"
    assert rep.witness["f(0)"] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_defect == pytest.approx(1e-2, rel=1e-6)


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


# --- grid helper ------------------------------------------------------------------


def test_log_grid_shape():
    g = log_grid(0.1, 10.0, points_per_decade=8)
    assert g.size == 17
    assert g[0] == 0.1 and g[-1] == 10.0
    np.testing.assert_allclose(g[1:] / g[:-1], 10.0 ** (1.0 / 8.0), rtol=1e-12)
    assert log_grid(1.0, 1000.0).size == 3 * 64 + 1
