"""Numerical verification of the structural properties of the soft-min.

This module checks, on explicit grids, the facts the solver relies on:
monotonicity of g_r in r (via sub-additivity of the V function), concavity of
the induced soft-min on the positive orthant (via the Hessian entries and,
independently, via the L function), the r -> 0 limit dichotomy, and the
linear speed bound for g_r as a function of r.

Every check returns an AnalysisReport with an explicit outcome and, when the
property fails, a witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .kernels import SmoothingKernel
from .smoothing import g_r, g_r_partials

__all__ = [
    "AnalysisReport",
    "LimitEstimate",
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
LIMIT_ZERO_TOL = 1e-6
_HESSIAN_BLOCK = 32768  # grid points per block of check_concavity's Hessian route
_SUBADD_BLOCK = 32768  # pairs per block of check_subadditivity


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one property check on one grid.

    max_defect is the worst signed slack seen: positive values mean the
    property was violated by that amount, negative values are margin.
    witness is present exactly when outcome == "violated".
    """

    property: str
    grid: str
    outcome: str
    max_defect: float
    witness: dict | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.outcome not in ("holds", "violated"):
            raise ValueError("outcome must be 'holds' or 'violated'")
        if self.outcome == "violated" and self.witness is None:
            raise ValueError("violated reports require a witness")

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"


def log_grid(lo: float, hi: float, points_per_decade: int = 64) -> np.ndarray:
    """Geometric grid with a fixed point density per decade."""
    if not 0.0 < lo < hi:
        raise ValueError("log_grid requires 0 < lo < hi")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


def v_function(kernel: SmoothingKernel, y):
    """V(y) = -psi'(psi_inv(y)) * psi_inv(y) on the range of psi.

    Sub-additivity of V is equivalent to g_r(s, t) being non-increasing in r.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("v_function is defined on the range of psi (y > 0)")
    s = kernel.psi_inv(arr)
    return -kernel.dpsi(s) * s


def l_function(kernel: SmoothingKernel, alpha):
    """L(alpha) = -(psi')^2 / psi'' evaluated at psi_inv(alpha).

    Uses the kernel's globally convex analytic branch; the soft-min
    G(s, t) = psi_inv(psi(s) + psi(t)) is concave iff L is non-increasing and
    sub-additive.  Raises if psi'' is not positive at the requested point.
    """
    if kernel.analytic is None:
        raise ValueError(f"kernel {kernel.name} has no analytic branch")
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("l_function is defined on the range of psi (alpha > 0)")
    s = kernel.analytic.psi_inv(arr)
    dd = np.asarray(kernel.analytic.d2psi(s), dtype=float)
    if np.any(dd <= 0.0):
        raise ValueError("l_function requires psi'' > 0 at psi_inv(alpha)")
    return -np.asarray(kernel.analytic.dpsi(s)) ** 2 / dd


def check_subadditivity(
    f: Callable, grid: np.ndarray, name: str = "f"
) -> AnalysisReport:
    """Check f(a + b) <= f(a) + f(b) + slack for all pairs from the grid.

    f must accept numpy arrays and act on them elementwise.  The pairs run
    in blocks of rows, so that the temporaries stay at a block's size.  The
    first violation (or NaN defect) in row-major pair order is reported as
    the witness.
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
    max_defect = float(np.max(block_max))
    desc = f"{grid.size} pts in [{grid[0]:g}, {grid[-1]:g}], all pairs"
    if max_defect <= 0.0:
        return AnalysisReport(
            property=f"subadditivity({name})",
            grid=desc,
            outcome="holds",
            max_defect=max_defect,
        )
    return AnalysisReport(
        property=f"subadditivity({name})",
        grid=desc,
        outcome="violated",
        max_defect=max_defect,
        witness=witness,
    )


def g_hessian_entries(kernel: SmoothingKernel, s, t):
    """Hessian entries (R, T, S) of G(s, t) = psi_inv(psi(s) + psi(t)).

    R = G_ss, T = G_tt, S = G_st, computed on the kernel's analytic branch:

        R = (psi''(s) W^2 - psi'(s)^2 U) / W^3,     W = psi'(G), U = psi''(G).

    Arguments must lie inside the analytic domain (x > x_low).
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
    y = br.psi(s_) + br.psi(t_)
    mid = br.psi_inv(y)
    w = np.asarray(br.dpsi(mid), dtype=float)
    u = np.asarray(br.d2psi(mid), dtype=float)
    w3 = w**3
    r_entry = (br.d2psi(s_) * w**2 - br.dpsi(s_) ** 2 * u) / w3
    t_entry = (br.d2psi(t_) * w**2 - br.dpsi(t_) ** 2 * u) / w3
    s_entry = -br.dpsi(s_) * br.dpsi(t_) * u / w3
    return r_entry, t_entry, s_entry


def check_concavity(
    kernel: SmoothingKernel,
    s_grid: np.ndarray,
    t_grid: np.ndarray | None = None,
) -> AnalysisReport:
    """Check concavity of the soft-min on a positive grid, two ways.

    Route one verifies R <= 0, T <= 0 and R*T - S^2 >= -slack at every grid
    point.  Route two verifies that L is non-increasing and sub-additive on
    the alpha-grid induced by psi.  The property holds only if both routes
    agree that it does; a disagreement is reported as a violation with the
    failing route in the witness.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = s_grid if t_grid is None else np.asarray(t_grid, dtype=float)
    if np.any(s_grid <= 0.0) or np.any(t_grid <= 0.0):
        raise ValueError("concavity grids must be positive")
    # the Hessian route runs over blocks of s rows, so that its temporaries
    # stay at a block's size while only the defect grid is kept whole
    rows = max(1, _HESSIAN_BLOCK // t_grid.size)
    hess_defect = np.empty((s_grid.size, t_grid.size))
    for i0 in range(0, s_grid.size, rows):
        r_e, t_e, s_e = g_hessian_entries(
            kernel, s_grid[i0:i0 + rows, None], t_grid[None, :]
        )
        det_defect = s_e**2 - r_e * t_e - HESSIAN_DET_SLACK
        hess_defect[i0:i0 + rows] = np.maximum(np.maximum(r_e, t_e), det_defect)
    hess_max = float(hess_defect.max())
    hess_ok = hess_max <= 0.0

    alphas = np.sort(np.asarray(kernel.analytic.psi(s_grid), dtype=float))
    lvals = np.asarray(l_function(kernel, alphas), dtype=float)
    mono_defect = float((lvals[1:] - lvals[:-1]).max() - SUBADD_SLACK)
    sub_report = check_subadditivity(
        lambda a: l_function(kernel, a), alphas, name="L"
    )
    l_ok = mono_defect <= 0.0 and sub_report.holds

    desc = (
        f"{s_grid.size}x{t_grid.size} pts in "
        f"[{s_grid[0]:g}, {s_grid[-1]:g}]x[{t_grid[0]:g}, {t_grid[-1]:g}]"
    )
    details = {
        "hessian_route": "holds" if hess_ok else "violated",
        "l_route": "holds" if l_ok else "violated",
        "l_monotonicity_defect": mono_defect,
        "l_subadditivity_defect": sub_report.max_defect,
    }
    max_defect = max(hess_max, mono_defect, sub_report.max_defect)
    if hess_ok and l_ok:
        return AnalysisReport(
            property="concavity",
            grid=desc,
            outcome="holds",
            max_defect=max_defect,
            details=details,
        )
    if not hess_ok:
        i, j = np.unravel_index(int(np.argmax(hess_defect)), hess_defect.shape)
        r_e, t_e, s_e = g_hessian_entries(kernel, s_grid[i], t_grid[j])
        witness = {
            "s": float(s_grid[i]),
            "t": float(t_grid[j]),
            "R": float(r_e),
            "T": float(t_e),
            "S": float(s_e),
            "route": "hessian",
        }
    elif sub_report.witness is not None:
        witness = dict(sub_report.witness)
        witness["route"] = "L-subadditivity"
    else:
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
        grid=desc,
        outcome="violated",
        max_defect=max_defect,
        witness=witness,
        details=details,
    )


_DEFAULT_PROBE = (1e-6, 1e-7, 1e-8)


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

    @property
    def limit_is_zero(self) -> bool:
        return abs(self.limit) <= LIMIT_ZERO_TOL


def limit_probe(
    kernel: SmoothingKernel, s: float, t: float, r_seq: Sequence[float] | None = None
) -> LimitEstimate:
    """Probe the r -> 0 limit of g_r(s, t) along a decreasing r sequence.

    The whole sequence is evaluated in one call through the homogeneity
    g_r(s, t) = r * g_1(s/r, t/r).
    """
    rs = tuple(float(r) for r in (_DEFAULT_PROBE if r_seq is None else r_seq))
    if not rs or any(r <= 0.0 for r in rs) or any(
        a <= b for a, b in zip(rs, rs[1:])
    ):
        raise ValueError("r_seq must be positive and strictly decreasing")
    gs = tuple(float(g) for g in _g_sweep(kernel, s, t, np.asarray(rs)))
    if len(rs) >= 2:
        r1, r2 = rs[-2], rs[-1]
        f1, f2 = gs[-2], gs[-1]
        limit = f2 + (f2 - f1) * r2 / (r1 - r2)
    else:
        limit = gs[-1]
    if len(rs) >= 3:
        d_prev = abs(gs[-2] - gs[-3])
        d_last = abs(gs[-1] - gs[-2])
        consistent = d_last <= 0.75 * d_prev + 1e-12
    else:
        consistent = True
    return LimitEstimate(
        s=float(s), t=float(t), r_values=rs, g_values=gs, limit=limit,
        consistent=consistent,
    )


def _g_sweep(kernel: SmoothingKernel, s: float, t: float, rs: np.ndarray):
    """g_r(s, t) at every r of the array rs, as rs * g_1(s/rs, t/rs)."""
    return rs * np.asarray(g_r(kernel, s / rs, t / rs, 1.0), dtype=float)


def g_r_deriv_r(kernel: SmoothingKernel, s, t, r: float):
    """Derivative of r -> g_r(s, t) through the closed identity

        r * f'(r) = f(r) - (s * dG/ds + t * dG/dt),

    which follows from Euler's relation for the degree-one homogeneous map
    (s, t, r) -> g_r(s, t).  Scalars and same-shape arrays s, t are both
    accepted; scalar input gives a float.
    """
    ps, pt = g_r_partials(kernel, s, t, r)
    f = g_r(kernel, s, t, r)
    s_ = np.asarray(s, dtype=float)
    t_ = np.asarray(t, dtype=float)
    d = (f - (s_ * ps + t_ * pt)) / r
    return float(d) if d.ndim == 0 else d


_SPEED_SIDES = ("upper", "lower", "derivative")


def check_speed_bound(
    kernel: SmoothingKernel,
    s: float,
    t: float,
    r0: float,
    r_seq: Sequence[float] | None = None,
) -> AnalysisReport:
    """Check the linear envelope of r -> f(r) = g_r(s, t) on (0, r0].

    Verifies, at every r in r_seq (default: geometric sweep below r0), the
    two-sided bound

        f(0) - r * (f(0) - f(r0)) / r0 - slack <= f(r) <= f(0) + slack

    and the differential inequality r * f'(r) <= f(r) - f(0) + slack using
    the closed-form derivative.  f(0) is taken from limit_probe.

    The sweep is evaluated at once through the homogeneity
    g_r(s, t) = r * g_1(s/r, t/r): f(r) in one call and f'(r) as
    g_r_deriv_r at (s/r, t/r, 1) in another, since the partials are
    homogeneous of degree zero.  max_defect can therefore differ from a
    per-r evaluation by rounding, up to about 1e-15: the exponential closed
    form is homogeneous only up to rounding, and f'(r) is rounded at
    (s/r, t/r).  The witness is the first violating r in sequence order,
    with the side of largest defect (ties go to upper, then lower, then
    derivative).
    """
    if not (s > 0.0 and t > 0.0):
        raise ValueError("speed bound check requires s, t > 0")
    if not r0 > 0.0:
        raise ValueError("speed bound check requires r0 > 0")
    if r_seq is None:
        rs = np.geomspace(r0, r0 * 1e-6, 25)
    else:
        rs = np.array([float(r) for r in r_seq])
        if not np.all((rs > 0.0) & (rs <= r0)):
            raise ValueError("r_seq must lie in (0, r0]")
    f0 = limit_probe(kernel, s, t).limit
    fr0 = float(g_r(kernel, s, t, r0))
    fr = _g_sweep(kernel, s, t, rs)
    rdf = rs * g_r_deriv_r(kernel, s / rs, t / rs, 1.0)
    defects = np.stack([
        fr - f0 - SPEED_SLACK,
        f0 - rs * (f0 - fr0) / r0 - fr - SPEED_SLACK,
        rdf - (fr - f0) - SPEED_SLACK,
    ])
    worst = defects.max(axis=0)
    max_defect = float(worst.max(initial=-math.inf))
    desc = f"s={s:g}, t={t:g}, r0={r0:g}, {rs.size} r values"
    violated = np.flatnonzero(worst > 0.0)
    if violated.size == 0:
        return AnalysisReport(
            property="speed_bound", grid=desc, outcome="holds", max_defect=max_defect
        )
    k = int(violated[0])
    witness = {
        "r": float(rs[k]),
        "f(r)": float(fr[k]),
        "f(0)": f0,
        "side": _SPEED_SIDES[int(np.argmax(defects[:, k]))],
    }
    return AnalysisReport(
        property="speed_bound",
        grid=desc,
        outcome="violated",
        max_defect=max_defect,
        witness=witness,
    )
