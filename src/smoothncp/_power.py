"""The log-domain soft-min of the power kernels phi_lambda, lam > 1.

kernels._make_phi_lambda imports this module when it builds the first such
kernel, so that a program using only the rational and exponential kernels
does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _all_finite, _require_finite_min


def softmin_overrides(p, x0, psi0, slope):
    """The closed form of a power kernel's soft-min, closed_form(s, t, r,
    value=True, partials=False), giving g, (dg/ds, dg/dt) or all three from
    one _compose (see kernels._fused).

    psi is (1 + x)^(-p) on x >= x0 and psi0 + slope (x - x0) below (see
    _make_phi_lambda).  g and its partials are formed in the log domain.  With
    a = s/r, b = t/r, u = log1p(x), m = -slope and xz = x0 + psi0/m, the
    zero of the affine piece,

        log psi(x) = -p u  on x >= x0,  log m + log(xz - x)  below,

    and L = logaddexp(log psi(a), log psi(b)) = log psi(G) at G = g/r:

        G = expm1(-L/p)  where L <= log psi0,  xz - (wa + wb)  above,

    with w = psi/m (xz - x on the affine piece, exp(-p u - log m) on the
    branch); g = r G, clamped to min(s, t).  Each partial is
    psi'(arg)/psi'(G).  Where L <= log psi0, both G and arg lie on the
    branch and log1p(G) = -L/p, so

        dg/ds = exp((p + 1) (-L/p - u(a))),

    and above, psi'(G) = slope: dg/ds = exp((p + 1) (v0 - max(u(a), v0)))
    with v0 = -log(psi0)/p = log1p(x0), which is 1 on the affine piece.
    dg/dt is alike.  The exponent is formed without rounding (see
    _exp_p1), so the partials lose no more than the rounding of u and L.
    No psi value is formed, so nothing underflows where psi does (phi:1.002
    on ordinary grids).  g(s, +inf) = s with partials (1, 0); NaN, -inf and
    two +inf arguments raise FloatingPointError.  So do a soft-min that
    overflows and a finite argument whose s/r or t/r overflows, except to
    +inf beside an argument whose ratio stays finite: g is then that
    argument.  a and b are the rows of one array, real scalars its 0-d
    case; an entry's bits do not depend on the other entries.
    """
    m = -slope
    log_m, lp0, xz = math.log(m), math.log(psi0), x0 + psi0 / m
    v0 = lp0 / -p
    p1_head = _head(p + 1.0)
    p1_tail = (p + 1.0) - p1_head

    def _exp_p1(v_g, u):
        # exp((p + 1) (v_g - u)) with its exponent exact to far below an
        # ulp: near 55, each rounding of the exponent costs up to 3.6e-15,
        # 16 ulps of the partial.  d = v_g - u comes with its rounding
        # error (Fast2Sum, exact where |u| >= |v_g|), p1_head times the
        # head of d is exact, and the rest is rounded into e, whose own
        # rounding error enters as the factor 1 + (rest - (e - hi)).
        d = v_g - u
        d_head = _head(d)
        hi = p1_head * d_head
        rest = (p1_head * (d - d_head) + p1_tail * d) + (p + 1.0) * (v_g - (d + u))
        e = hi + rest
        return np.exp(e) * (1.0 + (rest - (e - hi)))

    def _compose(s, t, r):
        # min(s, t), x = (a, b), u = (u(a), u(b)) and L
        s_, t_ = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        if s_.shape != t_.shape:
            s_, t_ = np.broadcast_arrays(s_, t_)
        x = np.array((s_, t_)) / r
        u = np.log1p(x)  # NaN below -1
        lp = np.where(x >= x0, -p * u, log_m + np.log(xz - x))
        big_l = np.logaddexp(lp[0], lp[1])
        # L is NaN for a NaN argument, +inf for -inf and -inf for two +inf
        if not _all_finite(big_l):
            _require_finite_min(np.minimum(s_, t_))
            # no NaN, no -inf and not two +inf: a finite argument over r overflowed
            raise FloatingPointError("soft-min's s/r or t/r overflows at a finite argument")
        return np.minimum(s_, t_), x, u, big_l

    @np.errstate(all="ignore")
    def closed_form(s, t, r, value=True, partials=False):
        lo, x, u, big_l = _compose(s, t, r)
        if value:
            # G = g/r; on the affine piece it sums w = psi/m of both arguments
            big_g = np.expm1(big_l / -p)
            if big_l.max(initial=-math.inf) > lp0:
                w = np.where(x < x0, xz - x, np.exp(-p * u - log_m))
                big_g = np.where(big_l > lp0, xz - (w[0] + w[1]), big_g)
            g = np.minimum(r * big_g, lo)
            # u = +inf at +inf: g is the other argument
            g = np.where(u[0] == math.inf, t, np.where(u[1] == math.inf, s, g))
            if not _all_finite(g):
                raise FloatingPointError("soft-min overflows the float range")
            g = float(g) if g.ndim == 0 else g
            if not partials:
                return g
        v_g = big_l / -p  # log1p(G) where G is on the branch
        if big_l.max(initial=-math.inf) > lp0:
            # np.fmax takes v0 over the NaN u of arguments below -1
            above = big_l > lp0
            v_g = np.where(above, v0, v_g)
            u = np.where(above, np.fmax(u, v0), u)
        # u = +inf at +inf, where the partial is 0 and the other one is 1
        # (v_g - u there is a rounded -L/p - u, not 0)
        inf = u == math.inf
        d = np.where(inf, 0.0, np.where(inf[::-1], 1.0, _exp_p1(v_g, u)))
        ds, dt = (float(d[0]), float(d[1])) if d.ndim == 1 else (d[0], d[1])
        return (g, ds, dt) if value else (ds, dt)

    return closed_form


def _head(v):
    """v rounded to its 26 leading bits (Veltkamp's split): the product of
    two such heads is exact in float64."""
    c = 134217729.0 * v  # 2^27 + 1
    return c - (c - v)
