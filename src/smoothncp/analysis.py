"""Numerical verification of the structural properties of the soft-min.

This module checks, on explicit grids, the facts the solver relies on:
the halving condition psi(s) <= psi(a*s)/2 on the kernel's tail,
monotonicity of g_r in r (via sub-additivity of the V function), concavity of
the induced soft-min on the positive orthant (via the Hessian entries and,
independently, via the L function), the r -> 0 limit dichotomy, and the
linear speed bound for g_r as a function of r.

The halving check returns a HaReport; every other check returns an
AnalysisReport, which holds exactly when it carries no witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import SmoothingKernel
from .smoothing import _check_r, _g_r_with_partials, _psi_sum, g_r, g_r_partials

__all__ = [
    "AnalysisReport",
    "HaReport",
    "LimitEstimate",
    "check_Ha",
    "log_grid",
    "v_function",
    "l_function",
    "check_subadditivity",
    "g_hessian_entries",
    "check_concavity",
    "limit_probe",
    "g_r_deriv_r",
    "check_speed_bound",
]

SUBADD_SLACK = 1e-12
HESSIAN_DET_SLACK = 1e-10
SPEED_SLACK = 1e-9
_HESSIAN_BLOCK = 8192  # grid points per block of check_concavity's Hessian route
_SUBADD_BLOCK = 8192  # pairs per block of check_subadditivity


def _finite_positive(values, name: str, grid: bool = False) -> np.ndarray:
    """values as a float array, if every entry is finite and positive.

    With grid=True the array must also be 1-d with at least two points.
    Anything else, NaN included, raises ValueError naming the argument.
    """
    arr = np.asarray(values, dtype=float)
    ok = ((0.0 < arr) & (arr < math.inf)).all()
    if grid:
        ok = ok and arr.ndim == 1 and arr.size >= 2
    if not ok:
        form = (
            "a 1-d array of at least two finite positive points" if grid
            else "finite and positive"
        )
        raise ValueError(f"{name} must be {form}")
    return arr


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one property check on one grid.

    max_defect is the worst signed slack seen: positive values mean the
    property was violated by that amount, negative values are margin.
    witness is the point where the check failed, or None, and outcome
    follows from it: "violated" exactly when a witness is given.
    """

    property: str
    grid: str
    outcome: str = field(init=False)
    max_defect: float
    witness: dict | None = None
    details: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "outcome", "holds" if self.holds else "violated")

    @property
    def holds(self) -> bool:
        return self.witness is None


def log_grid(lo: float, hi: float, points_per_decade: int = 64) -> np.ndarray:
    """Geometric grid with a fixed point density per decade, which must be
    finite and at least 1."""
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("log_grid requires 0 < lo < hi < inf")
    if not 1.0 <= points_per_decade < math.inf:
        raise ValueError("log_grid's points_per_decade must be finite and >= 1")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class HaReport:
    """Result of scanning the halving condition psi(s) <= psi(a*s)/2.

    holds_from is the smallest grid point from which the condition holds at
    every remaining grid point; violated_at is the largest failing grid point
    when failures persist into the last decade scanned.  Exactly one of the
    two is set.
    """

    kernel: str
    a: float
    s_max: float
    grid_points: int
    holds_from: float | None = None
    violated_at: float | None = None

    @property
    def satisfied(self) -> bool:
        return self.holds_from is not None


def check_Ha(kernel: SmoothingKernel, a: float, s_max: float) -> HaReport:
    """Scan psi(s) <= psi(a*s)/2 on a geometric grid ending at s_max.

    The scan covers the 6 decades below s_max with 64 points each.
    Failures inside the last decade are reported as a violation; otherwise
    the empirical threshold is returned.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("check_Ha requires 0 < a < 1")
    _finite_positive(s_max, "check_Ha's s_max")
    n = 6 * 64 + 1
    grid = np.geomspace(s_max * 1e-6, s_max, n)
    ok = kernel.psi(grid) <= 0.5 * kernel.psi(a * grid)
    if bool(ok.all()):
        return HaReport(kernel.name, a, s_max, n, holds_from=float(grid[0]))
    last_fail = int(np.flatnonzero(~ok)[-1])
    if grid[last_fail] > s_max / 10.0:
        return HaReport(kernel.name, a, s_max, n, violated_at=float(grid[last_fail]))
    return HaReport(kernel.name, a, s_max, n, holds_from=float(grid[last_fail + 1]))


def v_function(kernel: SmoothingKernel, y):
    """V(y) = -psi'(psi_inv(y)) * psi_inv(y) on the range of psi.

    Sub-additivity of V is equivalent to g_r(s, t) being non-increasing in r.
    """
    s = kernel.psi_inv(_finite_positive(y, "v_function's y"))
    return -kernel.dpsi(s) * s


def l_function(kernel: SmoothingKernel, alpha):
    """L(alpha) = -(psi')^2 / psi'' evaluated at psi_inv(alpha).

    Uses the kernel's globally convex analytic branch; the soft-min
    G(s, t) = psi_inv(psi(s) + psi(t)) is concave iff L is non-increasing and
    sub-additive.  Raises if psi'' is not positive at the requested point.
    """
    if kernel.analytic is None:
        raise ValueError(f"kernel {kernel.name} has no analytic branch")
    s = kernel.analytic.psi_inv(_finite_positive(alpha, "l_function's alpha"))
    dd = np.asarray(kernel.analytic.d2psi(s), dtype=float)
    if np.any(dd <= 0.0):
        raise ValueError("l_function requires psi'' > 0 at psi_inv(alpha)")
    return -np.asarray(kernel.analytic.dpsi(s)) ** 2 / dd


def check_subadditivity(
    f: Callable, grid: np.ndarray, name: str = "f"
) -> AnalysisReport:
    """Check f(a + b) <= f(a) + f(b) + slack for all pairs from the grid.

    f must accept numpy arrays and act on them elementwise.  The pairs run
    in blocks of whole rows, of up to _SUBADD_BLOCK pairs (one row if that
    is longer), and only each block's maximum is kept.  The memory in use
    is bounded by the block size, not by the number of pairs.  The first
    violation (or NaN defect) in row-major pair order is reported as the
    witness.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    vals = np.asarray(f(grid), dtype=float)
    rows = max(1, _SUBADD_BLOCK // grid.size)
    block_max = []
    witness = None
    for i0 in range(0, grid.size, rows):
        sums = grid[i0:i0 + rows, None] + grid[None, :]
        lhs = np.asarray(f(sums.ravel()), dtype=float).reshape(sums.shape)
        defect = lhs - vals[i0:i0 + rows, None] - vals[None, :] - SUBADD_SLACK
        block_max.append(defect.max())
        if witness is None and not block_max[-1] <= 0.0:
            bad = ~(defect <= 0.0)
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            witness = {
                "alpha": float(grid[i0 + i]),
                "beta": float(grid[j]),
                "f(alpha+beta)": float(lhs[i, j]),
                "f(alpha)+f(beta)": float(vals[i0 + i] + vals[j]),
            }
    return AnalysisReport(
        property=f"subadditivity({name})",
        grid=f"{grid.size} pts in [{grid[0]:g}, {grid[-1]:g}], all pairs",
        max_defect=float(np.max(block_max)),
        witness=witness,
    )


def g_hessian_entries(kernel: SmoothingKernel, s, t):
    """Hessian entries (R, T, S) of G(s, t) = psi_inv(psi(s) + psi(t)).

    R = G_ss, T = G_tt, S = G_st, computed on the kernel's analytic branch:

        R = (psi''(s) W^2 - psi'(s)^2 U) / W^3,     W = psi'(G), U = psi''(G).

    Arguments must lie inside the analytic domain (x > x_low).  Where
    psi(s) + psi(t) is not finite and positive, or W^3 underflows to 0,
    FloatingPointError is raised, as g_r raises it for the sum.
    """
    if kernel.analytic is None:
        raise ValueError(f"kernel {kernel.name} has no analytic branch")
    br = kernel.analytic
    s_ = np.asarray(s, dtype=float)
    t_ = np.asarray(t, dtype=float)
    if np.any(s_ <= br.x_low) or np.any(t_ <= br.x_low):
        raise ValueError(
            f"arguments must exceed the analytic-domain bound {br.x_low:g}"
        )
    mid = br.psi_inv(_psi_sum(br.psi, s_, t_))
    w = np.asarray(br.dpsi(mid), dtype=float)
    u = np.asarray(br.d2psi(mid), dtype=float)
    w3 = w**3
    if np.any(w3 == 0.0):
        raise FloatingPointError("soft-min evaluation left the representable range of psi")
    r_entry = (br.d2psi(s_) * w**2 - br.dpsi(s_) ** 2 * u) / w3
    t_entry = (br.d2psi(t_) * w**2 - br.dpsi(t_) ** 2 * u) / w3
    s_entry = -br.dpsi(s_) * br.dpsi(t_) * u / w3
    return r_entry, t_entry, s_entry


def check_concavity(kernel: SmoothingKernel, grid: np.ndarray) -> AnalysisReport:
    """Check concavity of the soft-min on a positive grid, two ways.

    Route one verifies R <= 0, T <= 0 and R*T - S^2 >= -slack at every point
    (s, t) of grid x grid.  Route two verifies that L is non-increasing and
    sub-additive on the alpha-grid induced by psi.  The property holds only if both routes
    agree that it does; a disagreement is reported as a violation with the
    failing route in the witness.

    Both routes run in blocks of whole rows, of up to _HESSIAN_BLOCK grid
    points and _SUBADD_BLOCK alpha pairs (one row if that is longer), and
    keep only a running worst defect.  The memory in use is bounded by the
    block sizes, not by the grid size.  The Hessian witness is the first
    NaN defect in row-major (s, t) order, else the first largest one.
    """
    grid = _finite_positive(grid, "grid", grid=True)
    # the Hessian route runs over blocks of s rows and keeps only the worst
    # defect and its row-major position: the first NaN, else the first max
    rows = max(1, _HESSIAN_BLOCK // grid.size)
    hess_max, worst = -math.inf, 0
    for i0 in range(0, grid.size, rows):
        r_e, t_e, s_e = g_hessian_entries(
            kernel, grid[i0:i0 + rows, None], grid[None, :]
        )
        det_defect = s_e**2 - r_e * t_e - HESSIAN_DET_SLACK
        defect = np.maximum(np.maximum(r_e, t_e), det_defect)
        k = int(np.argmax(defect))
        d = float(defect.flat[k])
        if d > hess_max or (math.isnan(d) and not math.isnan(hess_max)):
            hess_max, worst = d, i0 * grid.size + k
    hess_ok = hess_max <= 0.0

    alphas = np.sort(np.asarray(kernel.analytic.psi(grid), dtype=float))
    lvals = np.asarray(l_function(kernel, alphas), dtype=float)
    mono_defect = float((lvals[1:] - lvals[:-1]).max() - SUBADD_SLACK)
    sub_report = check_subadditivity(
        lambda a: l_function(kernel, a), alphas, name="L"
    )
    l_ok = mono_defect <= 0.0 and sub_report.holds

    span = f"[{grid[0]:g}, {grid[-1]:g}]"
    details = {
        "hessian_route": "holds" if hess_ok else "violated",
        "l_route": "holds" if l_ok else "violated",
        "l_monotonicity_defect": mono_defect,
        "l_subadditivity_defect": sub_report.max_defect,
    }
    witness = None
    if not hess_ok:
        i, j = divmod(worst, grid.size)
        r_e, t_e, s_e = g_hessian_entries(kernel, grid[i], grid[j])
        witness = {
            "s": float(grid[i]),
            "t": float(grid[j]),
            "R": float(r_e),
            "T": float(t_e),
            "S": float(s_e),
            "route": "hessian",
        }
    elif sub_report.witness is not None:
        witness = {**sub_report.witness, "route": "L-subadditivity"}
    elif not l_ok:
        k = int(np.argmax(lvals[1:] - lvals[:-1]))
        witness = {
            "alpha": float(alphas[k]),
            "alpha_next": float(alphas[k + 1]),
            "L(alpha)": float(lvals[k]),
            "L(alpha_next)": float(lvals[k + 1]),
            "route": "L-monotonicity",
        }
    return AnalysisReport(
        property="concavity",
        grid=f"{grid.size}x{grid.size} pts in {span}x{span}",
        max_defect=max(hess_max, mono_defect, sub_report.max_defect),
        witness=witness,
        details=details,
    )


# the r sequence of limit_probe
_PROBE = (1e-6, 1e-7, 1e-8)
_PROBE_R = np.array(_PROBE)
_PROBE_R.flags.writeable = False


@dataclass(frozen=True)
class LimitEstimate:
    """g_r values along a decreasing r sequence and the extrapolated limit.

    The limit is a Richardson-style linear extrapolation from the two
    smallest r values (exact for g_r affine in r); `consistent` records
    whether the increments contract as a linear-in-r tail predicts.
    """

    s: float
    t: float
    r_values: tuple
    g_values: tuple
    limit: float
    consistent: bool


def limit_probe(kernel: SmoothingKernel, s: float, t: float) -> LimitEstimate:
    """Probe the r -> 0 limit of g_r(s, t) along r = 1e-6, 1e-7, 1e-8.

    Unlike the sweep of check_speed_bound, r0 times a fixed 25-point sweep
    from 1 to 1e-6, the probe does not scale with r0.  The whole sequence is
    evaluated in one call through the homogeneity
    g_r(s, t) = r * g_1(s/r, t/r).  s and t must be finite, and so must s/r
    and t/r at the smallest r; otherwise ValueError is raised.
    """
    s, t = float(s), float(t)
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("limit_probe's s and t must be finite")
    if not (math.isfinite(s / _PROBE[-1]) and math.isfinite(t / _PROBE[-1])):
        raise ValueError("limit_probe's s/r and t/r must be finite at the smallest r")
    # s - t can overflow inside a closed form whose value is still right
    with np.errstate(over="ignore"):
        g1 = np.asarray(g_r(kernel, s / _PROBE_R, t / _PROBE_R, 1.0), dtype=float)
    gs = tuple((_PROBE_R * g1).tolist())
    consistent = abs(gs[2] - gs[1]) <= 0.75 * abs(gs[1] - gs[0]) + 1e-12
    return LimitEstimate(
        s=s, t=t, r_values=_PROBE, g_values=gs, limit=_extrapolate(gs),
        consistent=consistent,
    )


def _extrapolate(gs) -> float:
    """The r -> 0 limit from g at the probe's r: the line through the last
    two points, evaluated at r = 0."""
    r1, r2 = _PROBE[1:]
    return gs[2] + (gs[2] - gs[1]) * r2 / (r1 - r2)


def g_r_deriv_r(kernel: SmoothingKernel, s, t, r: float):
    """Derivative of r -> g_r(s, t) through the closed identity

        r * f'(r) = f(r) - (s * dG/ds + t * dG/dt),

    which follows from Euler's relation for the degree-one homogeneous map
    (s, t, r) -> g_r(s, t).  Scalars and same-shape arrays s, t are both
    accepted; scalar input gives a float.  A NaN or infinite entry of s, t,
    s/r or t/r raises ValueError.  Once |s|/r and |t|/r pass about 1/eps,
    f(r) and s * dG/ds + t * dG/dt agree in every digit and the identity
    cancels: at (s, t, r) = (1e300, 1e300, 1) it gives 0.0 for the rational
    kernel, where the exact value is -0.5.
    """
    s_, t_ = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not (np.isfinite(s_).all() and np.isfinite(t_).all()):
        raise ValueError("g_r_deriv_r's s and t must be finite")
    _check_r(r)
    # s/r can overflow here, and s - t inside a closed form whose value is
    # still right
    with np.errstate(over="ignore"):
        if not (np.isfinite(s_ / r).all() and np.isfinite(t_ / r).all()):
            raise ValueError("g_r_deriv_r's s/r and t/r must be finite")
        ps, pt = g_r_partials(kernel, s, t, r)
        f = g_r(kernel, s, t, r)
    d = (f - (s_ * ps + t_ * pt)) / r
    return float(d) if d.ndim == 0 else d


_SPEED_SIDES = ("upper", "lower", "derivative")
# The scales check_speed_bound supports.  Above _SPEED_MAX the rounding of
# f(r) passes the absolute SPEED_SLACK (false violations from about 1e5
# for phi:1.5), and below _SPEED_MIN the limit probe's r = 1e-8 no longer
# resolves f(0) (from about 3e-6 for exp).  s/r and t/r stay at most
# _SPEED_MAX_RATIO, about 1/eps, past which the Euler relation that gives
# r f'(r) cancels (see g_r_deriv_r).  Power kernels with lambda near 1 fall
# short inside these scales: their partials carry p + 1 = lambda/(lambda - 1)
# times the rounding of log1p(c1 s/r), which the Euler relation multiplies
# by s.  Over 3,000 log-uniform triples of the supported scales, phi:1.002
# and phi:1.01 report false violations on 16 and 10, all on the derivative
# side with s and t above 580; rational, exp, phi:3, phi:1.5, phi:2 and
# phi:1.05 report none.
_SPEED_MIN, _SPEED_MAX = 1e-4, 1e4
_SPEED_MAX_RATIO = 1e16
# the r-sweep of check_speed_bound, in units of r0
_UNIT_SWEEP = np.geomspace(1.0, 1e-6, 25)
_UNIT_SWEEP.flags.writeable = False


def check_speed_bound(kernel: SmoothingKernel, s: float, t: float, r0: float) -> AnalysisReport:
    """Check the linear envelope of r -> f(r) = g_r(s, t) on (0, r0].

    Verifies, at every r of a sweep, the two-sided bound

        f(0) - r * (f(0) - f(r0)) / r0 - slack <= f(r) <= f(0) + slack

    and the differential inequality r * f'(r) <= f(r) - f(0) + slack using
    the closed-form derivative.  f(0) is limit_probe's estimate.  The sweep
    is r0 times a fixed 25-point geometric sweep from 1 down to 1e-6, whose
    end points are r0 and r0 * 1e-6 exactly (np.geomspace(r0, r0 * 1e-6, 25)
    bit for bit at r0 = 1, within 1e-14 relative elsewhere).

    s, t and r0 must be finite and positive, keep s/r and t/r at most 1e16
    at the smallest r of the sweep and limit_probe, and lie in the supported
    scales: s and t in [1e-4, 1e4], r0 at most 1e4.  Otherwise ValueError
    is raised: outside these scales the verdict can be false or the
    kernel's arithmetic can fail.  Inside them it can be false for a power
    kernel with lambda near 1 (phi:1.002, phi:1.01; see _SPEED_MAX).

    By the homogeneity g_r(s, t) = r * g_1(s/r, t/r), one evaluation of the
    soft-min and its partials at (s/r, t/r, 1), over the sweep followed by
    r = 1e-6, 1e-7, 1e-8 (smoothing._g_r_with_partials), gives f(r), f(r0)
    as its first value, f(0) by limit_probe's extrapolation, and r * f'(r)
    from the partials, homogeneous of degree zero, by the Euler relation of
    g_r_deriv_r.  So the report is the one that limit_probe, the sweep and
    g_r_deriv_r at (s/r, t/r, 1) give, bit for bit.  As the closed forms are
    homogeneous only up to rounding, max_defect can differ from a per-r
    evaluation by a few ulps of 1e4: by up to 6.2e-12 for rational, exp,
    phi:3, phi:1.5 and phi:2 over 3,000 random triples of the supported
    scales.  The witness is the first violating r in sweep order, with the
    side of largest defect (ties go to upper, then lower, then derivative).
    """
    # Python floats are checked as they are: the sum is finite only if no
    # argument is NaN or infinite; anything else is converted as a whole
    if not (type(s) is type(t) is type(r0) is float
            and math.isfinite(s + t + r0) and min(s, t, r0) > 0.0):
        s, t, r0 = _finite_positive((s, t, r0), "s, t and r0").tolist()
    rs = r0 * _UNIT_SWEEP
    r_min = min(float(rs[-1]), _PROBE[-1])
    if not (r_min > 0.0 and max(s, t) / r_min <= _SPEED_MAX_RATIO):
        raise ValueError(
            "the smallest r of the check must be positive and keep s/r and t/r "
            f"finite, at most {_SPEED_MAX_RATIO:g}"
        )
    if not (
        _SPEED_MIN <= s <= _SPEED_MAX and _SPEED_MIN <= t <= _SPEED_MAX
        and r0 <= _SPEED_MAX
    ):
        raise ValueError(
            f"s and t must lie in [{_SPEED_MIN:g}, {_SPEED_MAX:g}] and r0 must "
            f"be at most {_SPEED_MAX:g}"
        )
    # one soft-min evaluation at (s/r, t/r, 1) for the sweep and the limit
    # probe, with the partials; the sweep's first r is r0, so its first
    # value is f(r0)
    n = rs.size
    r_all = np.concatenate((rs, _PROBE_R))
    s_r, t_r = s / r_all, t / r_all
    g1, ps, pt = _g_r_with_partials(kernel, s_r, t_r, 1.0, g_r, g_r_partials)
    f_all = r_all * g1
    f0 = _extrapolate(f_all[n:].tolist())
    fr = f_all[:n]
    fr0 = float(fr[0])
    # g_r_deriv_r's Euler relation at r = 1, where its division is exact
    rdf = rs * (g1 - (s_r * ps + t_r * pt))[:n]
    rise = fr - f0
    upper = rise - SPEED_SLACK
    lower = f0 - rs * (f0 - fr0) / r0 - fr - SPEED_SLACK
    derivative = rdf - rise - SPEED_SLACK
    worst = np.maximum(np.maximum(upper, lower), derivative)
    max_defect = float(worst.max())
    # a NaN max_defect takes the scan below: a NaN defect hides no violation
    violated = () if max_defect <= 0.0 else np.flatnonzero(worst > 0.0)
    witness = None
    if len(violated):
        k = int(violated[0])
        witness = {
            "r": float(rs[k]),
            "f(r)": float(fr[k]),
            "f(0)": f0,
            "side": _SPEED_SIDES[int(np.argmax((upper[k], lower[k], derivative[k])))],
        }
    return AnalysisReport(
        property="speed_bound",
        grid=f"s={s:g}, t={t:g}, r0={r0:g}, {rs.size} r values",
        max_defect=max_defect,
        witness=witness,
    )
