"""Smoothing kernels for the soft-min reformulation of complementarity.

A kernel is an increasing function theta with theta(0) = 0, theta(t) -> 1 as
t -> +inf and theta(t) < 0 for t < 0, packaged together with psi = 1 - theta,
the derivatives of psi and the inverse of psi.  Everything downstream (the
soft-min operator, the smoothed residual map, the curvature analysis and the
continuation solver) is parameterised by one of these objects.

Two named kernels are provided: the rational kernel theta(t) = t/(t+1) on
t >= 0 (extended linearly below zero) and the exponential kernel
theta(t) = 1 - exp(-t).  A one-parameter family phi_lambda interpolates
between them through the ODE (psi')^2 = (1/lambda) * psi * psi''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "SmoothnessClass",
    "AnalyticBranch",
    "SmoothingKernel",
    "PhiLambdaParams",
    "HaReport",
    "make_rational",
    "make_exponential",
    "make_phi_lambda",
    "theta_r",
    "check_Ha",
    "kernel_from_selector",
]


class SmoothnessClass(Enum):
    C2_EVERYWHERE = "C2_everywhere"
    PIECEWISE_C2 = "piecewise_C2"


def _piecewise(t, in_main, main_fn, other_fn):
    """Evaluate main_fn where in_main(t) holds and other_fn elsewhere.

    Accepts scalars or arrays and preserves the input kind.
    """
    arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(arr)
    out = np.empty_like(flat)
    m = in_main(flat)
    if m.any():
        out[m] = main_fn(flat[m])
    rest = ~m
    if rest.any():
        out[rest] = other_fn(flat[rest])
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _require_positive(y, name):
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} is defined on positive arguments only")
    return arr


def _require_finite_min(lo):
    # the sum of squares is NaN or inf when an entry is, and costs half of
    # isfinite(lo).all(); it also overflows above 1e154, so a non-finite sum
    # only sends lo to the entrywise check
    if not math.isfinite(np.vdot(lo, lo)) and not np.isfinite(lo).all():
        raise FloatingPointError("soft-min of NaN, -inf or two +inf arguments")


# Soft-min arguments with at most this many entries are evaluated element by
# element on Python floats.  The rational closed forms take about a dozen
# numpy calls, 11 us whatever the size up to n ~ 100, against 1.2 us + 0.26
# us per entry (g_r) and 1.7 us + 0.31 us per entry (partials) on floats
# (2-core Xeon, Python 3.11, numpy 2.4).  The float path wins up to n ~ 38
# for g_r and n ~ 28 for the partials; a Newton step makes one partials call
# and at least one g_r call, and their sum crosses at n ~ 33.
_SMALL_N = 32
_REAL = (int, float)


class _OffFloatPath(Exception):
    """Raised by a float closed form for arguments it leaves to numpy."""


def _small_pair(s, t):
    """s and t as lists of floats if both are 1-D float64 arrays of one shape
    with at most _SMALL_N entries, else None."""
    if (
        type(s) is np.ndarray
        and type(t) is np.ndarray
        and s.ndim == 1
        and s.shape == t.shape
        and s.shape[0] <= _SMALL_N
        and s.dtype == t.dtype == np.float64
    ):
        return s.tolist(), t.tolist()
    return None


@dataclass(frozen=True)
class AnalyticBranch:
    """Globally convex C^2 representative of psi, used by curvature analysis.

    For kernels whose solver form is only piecewise C^2 (the rational kernel
    has a linear piece with psi'' = 0) this carries the smooth closed form on
    its natural domain x > x_low, with psi_inv defined on all of (0, inf).
    """

    psi: Callable = field(repr=False)
    dpsi: Callable = field(repr=False)
    d2psi: Callable = field(repr=False)
    psi_inv: Callable = field(repr=False)
    x_low: float = -math.inf


@dataclass(frozen=True)
class SmoothingKernel:
    """Increasing theta with theta(0) = 0, theta(+inf) = 1, and psi = 1 - theta.

    theta_dominates_reference records whether theta(t) >= t/(t+1) holds on a
    log grid of positive arguments; the residual bound x_i * F_i <= r^2 at
    roots of the smoothed system is only guaranteed for such kernels.

    softmin_override / softmin_partials_override are numerically stable
    closed forms for the induced soft-min and its partial derivatives.  The
    rational kernel and the exponential family ship them; the phi_lambda
    kernels with lam > 1 leave them unset and use the generic
    psi_inv(psi + psi) composition.
    """

    name: str
    theta: Callable = field(repr=False)
    psi: Callable = field(repr=False)
    dpsi: Callable = field(repr=False)
    d2psi: Callable = field(repr=False)
    psi_inv: Callable = field(repr=False)
    smoothness_class: SmoothnessClass = SmoothnessClass.C2_EVERYWHERE
    analytic: AnalyticBranch | None = field(default=None, repr=False)
    theta_dominates_reference: bool = False
    softmin_override: Callable | None = field(default=None, repr=False)
    softmin_partials_override: Callable | None = field(default=None, repr=False)


@dataclass(frozen=True)
class PhiLambdaParams:
    """Parameters of the phi_lambda kernel family.

    lam = 1 gives the exponential kernel with rate d; lam > 1 gives
    psi(x) = (c1*x + 1)^(-1/(lam-1)) on its power branch.  lam = 2, c1 = 1
    reproduces the rational kernel on t >= 0.
    """

    lam: float
    c1: float = 1.0
    d: float = 1.0

    def __post_init__(self):
        if not self.lam >= 1.0:
            raise ValueError("phi_lambda requires lam >= 1")
        if not self.c1 > 0.0:
            raise ValueError("phi_lambda requires c1 > 0")
        if not self.d > 0.0:
            raise ValueError("phi_lambda requires d > 0")


_REFERENCE_GRID = np.logspace(-8.0, 8.0, 16 * 64 + 1)


def _dominates_reference(theta):
    """Exact check theta(t) >= t/(t+1) on a log grid of positive t."""
    vals = theta(_REFERENCE_GRID)
    ref = _REFERENCE_GRID / (_REFERENCE_GRID + 1.0)
    return bool(np.all(vals >= ref))


def make_rational() -> SmoothingKernel:
    """Kernel with theta(t) = t/(t+1) for t >= 0 and theta(t) = t below.

    psi is C^1 everywhere but psi'' jumps at 0 (2 from the right, 0 from the
    left); derivative values at 0 use the right branch.

    The soft-min g_r and its partials are closed forms.  Let lo = min(s, t),
    hi = max(s, t) and den = max(s, 0) + max(t, 0) + 2r.  Where
    max(s, 0) max(t, 0) >= r^2 (the psi-sum is at most 1)

        g = lo (hi/den) - r (r/den),  dg/ds = ((r+t)/den)^2,

    and elsewhere

        g = lo (r/(r + max(lo, 0))) - q(hi),  dg/ds = (r/(r + max(s, 0)))^2,

    with q(u) = r (r/(r+u)) for u >= 0 and r - u below; dg/dt swaps s and
    t.  Every quotient factor is at most 1 and q >= 0, so g <= min(s, t)
    holds in floating point.  g(s, +inf) = s with partials (0, 1); NaN,
    -inf and two +inf arguments raise FloatingPointError.
    """

    def _nonneg(u):
        return u >= 0.0

    def theta(t):
        return _piecewise(t, _nonneg, lambda u: u / (u + 1.0), lambda u: u)

    def psi(t):
        return _piecewise(t, _nonneg, lambda u: 1.0 / (u + 1.0), lambda u: 1.0 - u)

    def dpsi(t):
        return _piecewise(
            t, _nonneg, lambda u: -1.0 / (u + 1.0) ** 2, lambda u: -np.ones_like(u)
        )

    def d2psi(t):
        return _piecewise(
            t, _nonneg, lambda u: 2.0 / (u + 1.0) ** 3, lambda u: np.zeros_like(u)
        )

    def psi_inv(y):
        arr = _require_positive(y, "psi_inv")
        return _piecewise(
            arr, lambda v: v <= 1.0, lambda v: 1.0 / v - 1.0, lambda v: 1.0 - v
        )

    def a_psi(x):
        return 1.0 / (1.0 + np.asarray(x, dtype=float))

    def a_dpsi(x):
        return -1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2

    def a_d2psi(x):
        return 2.0 / (1.0 + np.asarray(x, dtype=float)) ** 3

    def a_psi_inv(y):
        return 1.0 / _require_positive(y, "psi_inv") - 1.0

    def _outside_main(sp, tp, r):
        # s t < r^2 or a negative argument, compared through square roots so
        # that neither side can overflow or underflow
        return np.sqrt(sp) * np.sqrt(tp) < r

    # Each result array is allocated before the temporaries and filled in
    # place: allocated after them, the result outlives them between their
    # freed blocks, and a solve's heap fragments into holes too small for
    # the next long-lived array.
    def _softmin(lo, hi, r):
        g = np.empty(np.shape(lo))
        lop, hp = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        den = (lop + hp) + 2.0 * r
        np.divide(hp, den, out=g)
        g *= lop
        g -= r * (r / den)
        other = lo * (r / (r + lop)) - (r * (r / (r + hp)) - np.minimum(hi, 0.0))
        np.copyto(g, other, where=_outside_main(lop, hp, r))
        return g

    def _partials(s, t, r):
        # (dg/ds, dg/dt) as the rows of one array, so each step of the
        # formula is one call for both; swapping s and t swaps the rows
        d = np.empty((2,) + np.shape(s))
        st = np.maximum(np.stack((s, t)), 0.0)
        sp, tp = st
        ab = r + st
        den = (sp + tp) + 2.0 * r
        np.divide(ab[::-1], den, out=d)
        np.copyto(d, r / ab, where=_outside_main(sp, tp, r))
        d *= d
        return d[0], d[1]

    # The same formulas on Python floats, operation for operation and with
    # numpy's choice of argument on ties, so that both paths round alike.
    # A pair whose sum is not finite is left to the numpy path.
    def _softmin_float(s, t, r):
        if not -math.inf < s + t < math.inf:
            raise _OffFloatPath
        lo = s if s < t else t
        hi = s if s > t else t
        lop = lo if lo > 0.0 else 0.0
        hp = hi if hi > 0.0 else 0.0
        if math.sqrt(lop) * math.sqrt(hp) < r:
            return lo * (r / (r + lop)) - (r * (r / (r + hp)) - (hi if hi < 0.0 else 0.0))
        den = (lop + hp) + 2.0 * r
        return hp / den * lop - r * (r / den)

    def _partials_float(s, t, r):
        if not -math.inf < s + t < math.inf:
            raise _OffFloatPath
        sp = s if s > 0.0 else 0.0
        tp = t if t > 0.0 else 0.0
        if math.sqrt(sp) * math.sqrt(tp) < r:
            ds = r / (r + sp)
            dt = r / (r + tp)
        else:
            den = (sp + tp) + 2.0 * r
            ds = (r + tp) / den
            dt = (r + sp) / den
        return ds * ds, dt * dt

    # Off the fast path (an infinite argument, or s + t overflows) the
    # identities g(s, t, r) = 2 g(s/2, t/2, r/2) and its degree-0 analogue
    # for the partials keep every intermediate sum in range.
    def softmin(s, t, r):
        try:
            if isinstance(s, _REAL) and isinstance(t, _REAL):
                return _softmin_float(float(s), float(t), float(r))
            pair = _small_pair(s, t)
            if pair is not None:
                r_ = float(r)
                return np.array(
                    [_softmin_float(a, b, r_) for a, b in zip(*pair)], dtype=float
                )
        except _OffFloatPath:
            pass
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        if np.isfinite(lo + hi).all():
            g = _softmin(lo, hi, r)
        else:
            _require_finite_min(lo)
            inf = hi == math.inf
            half = _softmin(0.5 * lo, 0.5 * np.where(inf, lo, hi), 0.5 * r)
            g = np.where(inf, lo, 2.0 * half)
            if not np.isfinite(g).all():
                raise FloatingPointError("soft-min overflows the float range")
        return float(g) if g.ndim == 0 else g

    def softmin_partials(s, t, r):
        try:
            if isinstance(s, _REAL) and isinstance(t, _REAL):
                return _partials_float(float(s), float(t), float(r))
            pair = _small_pair(s, t)
            if pair is not None:
                r_ = float(r)
                d = [_partials_float(a, b, r_) for a, b in zip(*pair)]
                return (
                    np.array([ds for ds, _ in d], dtype=float),
                    np.array([dt for _, dt in d], dtype=float),
                )
        except _OffFloatPath:
            pass
        s_, t_ = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        if np.isfinite(s_ + t_).all():
            ds, dt = _partials(s_, t_, r)
        else:
            _require_finite_min(np.minimum(s_, t_))
            s_inf, t_inf = s_ == math.inf, t_ == math.inf
            ds, dt = _partials(
                0.5 * np.where(s_inf, t_, s_), 0.5 * np.where(t_inf, s_, t_), 0.5 * r
            )
            ds = np.where(s_inf, 0.0, np.where(t_inf, 1.0, ds))
            dt = np.where(t_inf, 0.0, np.where(s_inf, 1.0, dt))
        if ds.ndim == 0:
            return float(ds), float(dt)
        return ds, dt

    analytic = AnalyticBranch(a_psi, a_dpsi, a_d2psi, a_psi_inv, x_low=-1.0)
    return SmoothingKernel(
        name="rational",
        theta=theta,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        psi_inv=psi_inv,
        smoothness_class=SmoothnessClass.PIECEWISE_C2,
        analytic=analytic,
        theta_dominates_reference=_dominates_reference(theta),
        softmin_override=softmin,
        softmin_partials_override=softmin_partials,
    )


def _make_exponential_family(rate: float, name: str) -> SmoothingKernel:
    d = float(rate)

    def theta(t):
        return -np.expm1(-d * np.asarray(t, dtype=float))

    def psi(t):
        return np.exp(-d * np.asarray(t, dtype=float))

    def dpsi(t):
        return -d * np.exp(-d * np.asarray(t, dtype=float))

    def d2psi(t):
        return d * d * np.exp(-d * np.asarray(t, dtype=float))

    def psi_inv(y):
        return -np.log(_require_positive(y, "psi_inv")) / d

    # NaN, -inf and two +inf arguments are exactly those with a non-finite
    # min(s, t); checked before s - t, which is NaN for two infinities.
    def softmin(s, t, r):
        s_ = np.asarray(s, dtype=float)
        t_ = np.asarray(t, dtype=float)
        lo = np.minimum(s_, t_)
        _require_finite_min(lo)
        gap = np.abs(s_ - t_)
        g = lo - (r / d) * np.log1p(np.exp(-d * gap / r))
        return float(g) if g.ndim == 0 else g

    def softmin_partials(s, t, r):
        # softmax weights; computed so the pair sums to 1.0 exactly.  q is
        # the weight of the larger argument, with exp(-|z|) <= 1
        s_ = np.asarray(s, dtype=float)
        t_ = np.asarray(t, dtype=float)
        _require_finite_min(np.minimum(s_, t_))
        z = d * (t_ - s_) / r
        q = 1.0 / (1.0 + np.exp(-np.abs(z)))
        ws = np.where(z >= 0.0, q, 1.0 - q)
        wt = 1.0 - ws
        if ws.ndim == 0:
            return float(ws), float(wt)
        return ws, wt

    analytic = AnalyticBranch(psi, dpsi, d2psi, psi_inv, x_low=-math.inf)
    return SmoothingKernel(
        name=name,
        theta=theta,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        psi_inv=psi_inv,
        smoothness_class=SmoothnessClass.C2_EVERYWHERE,
        analytic=analytic,
        theta_dominates_reference=_dominates_reference(theta),
        softmin_override=softmin,
        softmin_partials_override=softmin_partials,
    )


def make_exponential() -> SmoothingKernel:
    """Kernel with theta(t) = 1 - exp(-t); C^2 everywhere.

    Satisfies the halving condition psi(s) <= psi(a*s)/2 for every a in (0,1)
    once s >= ln(2)/(1-a), so the induced soft-min converges to the exact min.
    """
    return _make_exponential_family(1.0, "exp")


def make_phi_lambda(params: PhiLambdaParams) -> SmoothingKernel:
    """Kernel from the family (psi')^2 = (1/lam) * psi * psi''.

    lam = 1 returns the exponential kernel with rate d (identical to
    make_exponential() when d = 1).  For lam > 1 the power form
    psi(x) = (c1*x + 1)^(-1/(lam-1)) holds on x >= x0 = -1/(2*c1) and is
    continued affinely below x0 with matching value and slope, keeping theta
    increasing and C^1 on all of R.
    """
    if params.lam == 1.0:
        if params.d == 1.0:
            return make_exponential()
        return _make_exponential_family(params.d, f"phi:1:{params.d:g}")

    lam = float(params.lam)
    c = float(params.c1)
    p = 1.0 / (lam - 1.0)
    x0 = -1.0 / (2.0 * c)
    psi0 = 2.0**p
    slope = -p * c * 2.0 ** (p + 1.0)  # psi'(x0)

    def _power_side(u):
        return u >= x0

    def _psi_pow(u):
        return np.exp(-p * np.log1p(c * u))

    def _theta_pow(u):
        if p == 1.0:
            return c * u / (c * u + 1.0)
        return -np.expm1(-p * np.log1p(c * u))

    def theta(t):
        return _piecewise(
            t, _power_side, _theta_pow, lambda u: 1.0 - (psi0 + slope * (u - x0))
        )

    def psi(t):
        return _piecewise(t, _power_side, _psi_pow, lambda u: psi0 + slope * (u - x0))

    def dpsi(t):
        return _piecewise(
            t,
            _power_side,
            lambda u: -p * c * np.exp(-(p + 1.0) * np.log1p(c * u)),
            lambda u: np.full_like(u, slope),
        )

    def d2psi(t):
        return _piecewise(
            t,
            _power_side,
            lambda u: p * (p + 1.0) * c * c * np.exp(-(p + 2.0) * np.log1p(c * u)),
            lambda u: np.zeros_like(u),
        )

    def _psi_inv_pow(y):
        return np.expm1(-np.log(y) / p) / c

    def psi_inv(y):
        arr = _require_positive(y, "psi_inv")
        return _piecewise(
            arr,
            lambda v: v <= psi0,
            _psi_inv_pow,
            lambda v: x0 + (v - psi0) / slope,
        )

    def a_psi_inv(y):
        return _psi_inv_pow(_require_positive(y, "psi_inv"))

    def a_dpsi(x):
        u = np.asarray(x, dtype=float)
        return -p * c * np.exp(-(p + 1.0) * np.log1p(c * u))

    def a_d2psi(x):
        u = np.asarray(x, dtype=float)
        return p * (p + 1.0) * c * c * np.exp(-(p + 2.0) * np.log1p(c * u))

    def a_psi(x):
        return _psi_pow(np.asarray(x, dtype=float))

    analytic = AnalyticBranch(a_psi, a_dpsi, a_d2psi, a_psi_inv, x_low=-1.0 / c)
    name = f"phi:{lam:g}" if c == 1.0 else f"phi:{lam:g}:{c:g}"
    return SmoothingKernel(
        name=name,
        theta=theta,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        psi_inv=psi_inv,
        smoothness_class=SmoothnessClass.PIECEWISE_C2,
        analytic=analytic,
        theta_dominates_reference=_dominates_reference(theta),
    )


def theta_r(kernel: SmoothingKernel, t, r: float):
    """Scaled kernel theta_r(t) = theta(t/r); r must be positive."""
    if not r > 0.0:
        raise ValueError("theta_r requires r > 0")
    return kernel.theta(np.asarray(t, dtype=float) / r)


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


def check_Ha(
    kernel: SmoothingKernel,
    a: float,
    s_max: float,
    decades: int = 6,
    points_per_decade: int = 64,
) -> HaReport:
    """Scan psi(s) <= psi(a*s)/2 on a geometric grid ending at s_max.

    The scan covers `decades` decades below s_max with points_per_decade
    points each.  Failures inside the last decade are reported as a
    violation; otherwise the empirical threshold is returned.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("check_Ha requires 0 < a < 1")
    if not s_max > 0.0:
        raise ValueError("check_Ha requires s_max > 0")
    n = decades * points_per_decade + 1
    grid = np.geomspace(s_max * 10.0 ** (-decades), s_max, n)
    ok = kernel.psi(grid) <= 0.5 * kernel.psi(a * grid)
    if bool(ok.all()):
        return HaReport(kernel.name, a, s_max, n, holds_from=float(grid[0]))
    last_fail = int(np.flatnonzero(~ok)[-1])
    if grid[last_fail] > s_max / 10.0:
        return HaReport(kernel.name, a, s_max, n, violated_at=float(grid[last_fail]))
    return HaReport(kernel.name, a, s_max, n, holds_from=float(grid[last_fail + 1]))


def kernel_from_selector(selector: str) -> SmoothingKernel:
    """Build a kernel from a CLI selector.

    Accepted forms: "rational", "exp", "phi:<lambda>[:<c1-or-d>]" where the
    trailing value is c1 for lambda > 1 and the rate d for lambda = 1.
    """
    sel = selector.strip()
    if sel == "rational":
        return make_rational()
    if sel == "exp":
        return make_exponential()
    if sel.startswith("phi:"):
        parts = sel.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"malformed kernel selector {selector!r}")
        try:
            lam = float(parts[1])
            extra = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValueError(f"malformed kernel selector {selector!r}") from exc
        return make_phi_lambda(PhiLambdaParams(lam=lam, c1=extra, d=extra))
    raise ValueError(f"unknown kernel selector {selector!r}")
