"""Smoothing kernels for the soft-min reformulation of complementarity.

A kernel is an increasing function theta with theta(0) = 0, theta(t) -> 1 as
t -> +inf and theta(t) < 0 for t < 0, packaged together with psi = 1 - theta,
the derivatives of psi and the inverse of psi.  Everything downstream (the
soft-min operator, the smoothed residual map, the curvature analysis and the
continuation solver) is parameterised by one of these objects.

Two named kernels are provided: the rational kernel theta(t) = t/(t+1) on
t >= 0 (extended linearly below zero) and the exponential kernel
theta(t) = 1 - exp(-t).  A one-parameter family phi_lambda interpolates
between them through the ODE (psi')^2 = (1/lambda) * psi * psi''.  A
selector names each of them (kernel_from_selector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["AnalyticBranch", "SmoothingKernel", "kernel_from_selector"]


def _piecewise(t, in_main, main_fn, other_fn):
    """Evaluate main_fn where in_main(t) holds and other_fn elsewhere.

    Accepts scalars or arrays and preserves the input kind.  Both pieces
    are evaluated on every entry, so the warnings of each piece outside
    its own domain are silenced.  A scalar is evaluated as a 1-element
    array: numpy's scalar power can round differently from its array loop.
    """
    arr = np.asarray(t, dtype=float)
    u = np.atleast_1d(arr)
    with np.errstate(all="ignore"):
        out = np.where(in_main(u), main_fn(u), other_fn(u))
    return float(out[0]) if arr.ndim == 0 else out


def _require_positive(y, name):
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} is defined on positive arguments only")
    return arr


def _all_finite(v):
    """Whether every entry of v is finite."""
    # the sum of squares is NaN or inf when an entry is, and costs half of
    # isfinite(v).all(); it also overflows above 1e154, so a non-finite sum
    # only sends v to the entrywise check (np.vdot, unlike v @ v, gives no
    # overflow warning)
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _require_finite_min(lo):
    if not _all_finite(lo):
        raise FloatingPointError("soft-min of NaN, -inf or two +inf arguments")


def _sums_finite(a, b):
    """Whether every a + b is finite, with no warning for -inf + inf or for
    a sum that overflows."""
    # sums of squares below the overflow threshold bound every entry by
    # 1e154, so that every a + b is finite; this costs less than the sums
    if math.isfinite(np.vdot(a, a) + np.vdot(b, b)):
        return True
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.isfinite(a + b).all())


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


def _fused(softmin, partials, with_partials) -> dict:
    """The override pair, with with_partials, their one evaluation of
    (g, dg/ds, dg/dt), attached to softmin along with the pair it stands for."""
    softmin._with_partials = (softmin, partials, with_partials)
    return dict(softmin_override=softmin, softmin_partials_override=partials)


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

    softmin_override / softmin_partials_override are numerically stable
    closed forms for the induced soft-min and its partial derivatives.
    Every kernel kernel_from_selector builds ships them: the rational
    kernel, the exponential family, and the phi_lambda kernels with lam > 1
    in the log domain (_power.softmin_overrides).  A kernel built with them
    unset uses the generic psi_inv(psi + psi) composition of smoothing.g_r.
    The shipped pairs carry a fused form giving g and both partials from one
    evaluation (_fused); a kernel that replaces either override makes the
    two calls instead.
    """

    name: str
    theta: Callable = field(repr=False)
    psi: Callable = field(repr=False)
    dpsi: Callable = field(repr=False)
    d2psi: Callable = field(repr=False)
    psi_inv: Callable = field(repr=False)
    analytic: AnalyticBranch | None = field(default=None, repr=False)
    softmin_override: Callable | None = field(default=None, repr=False)
    softmin_partials_override: Callable | None = field(default=None, repr=False)


def _spliced(branch: AnalyticBranch, theta_main, x0, psi0, slope) -> dict:
    """theta, psi, dpsi, d2psi, psi_inv and analytic of a spliced kernel.

    The splice rule: follow the analytic branch on x >= x0 and continue
    affinely below, psi(x) = psi0 + slope * (x - x0), with psi0 and slope
    the branch's psi and psi' at x0, so psi is C^1 and psi'' = 0 below x0.
    psi_inv follows branch.psi_inv on (0, psi0]; theta is theta_main on
    x >= x0 and (1 - psi0) - slope * (x - x0) below.  branch.psi_inv makes
    the only positivity check: _piecewise evaluates it on every entry.
    """
    if not all(map(math.isfinite, (x0, psi0, slope))):
        raise ValueError(
            f"a kernel splice needs finite x0, psi0, slope: {x0:g}, {psi0:g}, {slope:g}"
        )

    def spliced(main_fn, affine_fn, in_main=lambda u: u >= x0):
        return lambda t: _piecewise(t, in_main, main_fn, affine_fn)

    return dict(
        theta=spliced(theta_main, lambda u: (1.0 - psi0) - slope * (u - x0)),
        psi=spliced(branch.psi, lambda u: psi0 + slope * (u - x0)),
        dpsi=spliced(branch.dpsi, lambda u: np.full_like(u, slope)),
        d2psi=spliced(branch.d2psi, np.zeros_like),
        psi_inv=spliced(
            branch.psi_inv, lambda v: x0 + (v - psi0) / slope, lambda v: v <= psi0
        ),
        analytic=branch,
    )


def _make_rational() -> SmoothingKernel:
    """Kernel with theta(t) = t/(t+1) for t >= 0 and theta(t) = t below.

    The branch psi(x) = 1/(1+x) is spliced at x0 = 0 (see _spliced): psi''
    jumps at 0 (2 from the right, 0 from the left), and values at 0 use the
    right branch.

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

    Their fused form shares the region test, den and quotients per entry on
    the float path of up to _SMALL_N entries, and makes the two calls on any
    other arguments or once either override is replaced.
    """

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
        if _sums_finite(lo, hi):
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
        if _sums_finite(s_, t_):
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

    # _softmin_float and _partials_float in one pass.  Their (lo, hi) is
    # (s, t) where s < t and (t, s) elsewhere (on ties hi is s up to the sign
    # of a zero, which max(hi, 0) and min(hi, 0) do not see), so max(lo, 0)
    # and max(hi, 0) are sp and tp in that order: the region test, den and
    # the quotients r/(r + sp), r/(r + tp) are shared bit for bit.
    def softmin_with_partials(s, t, r):
        pair = _small_pair(s, t)
        if pair is None or not _sums_finite(s, t):
            return (softmin(s, t, r), *softmin_partials(s, t, r))
        r, gs, dss, dts = float(r), [], [], []
        for s, t in zip(*pair):
            sp = s if s > 0.0 else 0.0
            tp = t if t > 0.0 else 0.0
            if math.sqrt(sp) * math.sqrt(tp) < r:
                ds, dt = r / (r + sp), r / (r + tp)
                if s < t:
                    gs.append(s * ds - (r * dt - (t if t < 0.0 else 0.0)))
                else:
                    gs.append(t * dt - (r * ds - (s if s < 0.0 else 0.0)))
            else:
                den = (sp + tp) + 2.0 * r
                gs.append((tp / den * sp if s < t else sp / den * tp) - r * (r / den))
                ds, dt = (r + tp) / den, (r + sp) / den
            dss.append(ds * ds)
            dts.append(dt * dt)
        return np.array(gs), np.array(dss), np.array(dts)

    branch = AnalyticBranch(
        psi=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
        dpsi=lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
        d2psi=lambda x: 2.0 / (1.0 + np.asarray(x, dtype=float)) ** 3,
        psi_inv=lambda y: 1.0 / _require_positive(y, "psi_inv") - 1.0,
        x_low=-1.0,
    )
    return SmoothingKernel(
        "rational", **_spliced(branch, lambda u: u / (u + 1.0), 0.0, 1.0, -1.0),
        **_fused(softmin, softmin_partials, softmin_with_partials),
    )


def _make_exponential_family(rate: float, name: str) -> SmoothingKernel:
    """Kernel with theta(t) = 1 - exp(-d t), d = rate; C^2 everywhere.

    Satisfies the halving condition psi(s) <= psi(a*s)/2 for every a in (0,1)
    once s >= ln(2)/(d (1-a)), so the induced soft-min converges to the exact
    min.
    """
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

    # Both of the above from one exponential: t - s = -(s - t) exactly, so
    # exp(-|z|) is exp(-d gap/r) bit for bit.
    def softmin_with_partials(s, t, r):
        s_, t_ = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        lo = np.minimum(s_, t_)
        _require_finite_min(lo)
        z = d * (t_ - s_) / r
        e = np.exp(-np.abs(z))
        g = lo - (r / d) * np.log1p(e)
        q = 1.0 / (1.0 + e)
        ws = np.where(z >= 0.0, q, 1.0 - q)
        wt = 1.0 - ws
        if g.ndim == 0:
            return float(g), float(ws), float(wt)
        return g, ws, wt

    analytic = AnalyticBranch(psi, dpsi, d2psi, psi_inv, x_low=-math.inf)
    return SmoothingKernel(
        name=name,
        theta=theta,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        psi_inv=psi_inv,
        analytic=analytic,
        **_fused(softmin, softmin_partials, softmin_with_partials),
    )


def _make_phi_lambda(lam: float, c1: float = 1.0, d: float = 1.0) -> SmoothingKernel:
    """Kernel from the family (psi')^2 = (1/lam) * psi * psi''.

    lam = 1 returns the exponential kernel with rate d (the "exp" kernel when
    d = 1).  For lam > 1 the power branch psi(x) = (c1*x + 1)^(-1/(lam-1))
    is spliced at x0 = -1/(2*c1) (see _spliced); lam = 2, c1 = 1 reproduces
    the rational kernel on t >= 0.  Its soft-min and partials are closed
    forms in the log domain (see _power.softmin_overrides).  ValueError is
    raised unless lam >= 1 and c1, d > 0 are finite, and where x0, psi(x0)
    or psi'(x0) overflows: lam within about 1e-3 of 1, or an extreme c1.
    It is also raised for a kernel that is degenerate in floating point,
    with psi(1) rounding to 1 or to a subnormal or zero value: a
    p = 1/(lam-1) or a rate d so small or so large that psi cannot be told
    from a constant.
    """
    if not 1.0 <= lam < math.inf:
        raise ValueError("phi_lambda requires a finite lam >= 1")
    if not 0.0 < c1 < math.inf:
        raise ValueError("phi_lambda requires a finite c1 > 0")
    if not 0.0 < d < math.inf:
        raise ValueError("phi_lambda requires a finite d > 0")
    if lam == 1.0:
        name = "exp" if d == 1.0 else f"phi:1:{d:g}"
        return _nondegenerate(_make_exponential_family(d, name))

    p = 1.0 / (lam - 1.0)
    x0 = -1.0 / (2.0 * c1)
    try:
        psi0, slope = 2.0**p, -p * c1 * 2.0 ** (p + 1.0)  # psi and psi' at x0
    except OverflowError:
        psi0 = slope = math.inf  # rejected by _spliced

    def _pow(x, q):
        # (1 + c1 x)^(-q)
        return np.exp(-q * np.log1p(c1 * np.asarray(x, dtype=float)))

    def _theta_main(u):  # 1 - psi on the branch, free of cancellation
        return c1 * u / (c1 * u + 1.0) if p == 1.0 else -np.expm1(-p * np.log1p(c1 * u))

    branch = AnalyticBranch(
        psi=lambda x: _pow(x, p),
        dpsi=lambda x: -p * c1 * _pow(x, p + 1.0),
        d2psi=lambda x: p * (p + 1.0) * c1 * c1 * _pow(x, p + 2.0),
        psi_inv=lambda y: np.expm1(-np.log(_require_positive(y, "psi_inv")) / p) / c1,
        x_low=-1.0 / c1,
    )
    name = f"phi:{lam:g}" if c1 == 1.0 else f"phi:{lam:g}:{c1:g}"
    pieces = _spliced(branch, _theta_main, x0, psi0, slope)
    # imported with the first power kernel, so that `import smoothncp` does
    # not compile it: without cached bytecode that took 1.3 ms per import
    from ._power import softmin_overrides

    overrides = _fused(*softmin_overrides(p, c1, x0, psi0, slope))
    kernel = SmoothingKernel(name=name, **pieces, **overrides)
    return _nondegenerate(kernel)


def _nondegenerate(kernel: SmoothingKernel) -> SmoothingKernel:
    """The kernel, or ValueError unless psi(1) is a normal float below 1."""
    psi1 = kernel.psi(1.0)
    if not np.finfo(float).tiny <= psi1 < 1.0:
        raise ValueError(f"kernel {kernel.name} is degenerate in floating point: psi(1) = {psi1:g}")
    return kernel


def kernel_from_selector(selector: str) -> SmoothingKernel:
    """Build a kernel from a CLI selector.

    Accepted forms: "rational", "exp", "phi:<lambda>[:<c1-or-d>]" where the
    trailing value is c1 for lambda > 1 and the rate d for lambda = 1.
    """
    sel = selector.strip()
    if sel == "rational":
        return _make_rational()
    if sel == "exp":
        return _make_phi_lambda(1.0)
    if sel.startswith("phi:"):
        parts = sel.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"malformed kernel selector {selector!r}")
        try:
            lam = float(parts[1])
            extra = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValueError(f"malformed kernel selector {selector!r}") from exc
        return _make_phi_lambda(lam, d=extra) if lam == 1.0 else _make_phi_lambda(lam, c1=extra)
    raise ValueError(f"unknown kernel selector {selector!r}")
