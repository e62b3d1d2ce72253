"""A 60-digit reference for the soft-min of the phi_lambda kernels, lam > 1.

The reference evaluates the kernel as it is built in floating point: the
parameters p = 1/(lam - 1), x0 = -1/2, psi0 and slope are the
kernel's own float values, taken exactly, and everything after them runs in
60-digit decimal arithmetic.  So it measures the rounding of the soft-min's
evaluation alone.
"""

import math
from decimal import Decimal, localcontext

PRECISION = 60


def power_kernel(lam: float):
    """The float parameters (p, x0, psi0, slope) of phi:<lam>, computed as
    kernels._make_phi_lambda computes them."""
    p = 1.0 / (lam - 1.0)
    return p, -0.5, 2.0**p, -p * 2.0 ** (p + 1.0)


def _log1p(z):
    # ln(1 + z) to the context's precision, also where 1 + z would round
    if abs(z) < Decimal(10) ** -30:
        return z - z * z / 2 + z * z * z / 3
    with localcontext() as ctx:
        ctx.prec += 30
        return (1 + z).ln()


def _expm1(z):
    # exp(z) - 1 to the context's precision, also where exp(z) is near 1
    if abs(z) < Decimal(10) ** -30:
        return z + z * z / 2 + z * z * z / 6
    with localcontext() as ctx:
        ctx.prec += 30
        return z.exp() - 1


def reference(params, s: float, t: float, r: float):
    """(g, dg/ds, dg/dt) at (s, t, r) as Decimals, for params as
    power_kernel returns them.

    log psi(x) and log(psi(a) + psi(b)) are formed through ln(1 + z), so
    that no digit is lost where psi(a) and psi(b) differ by more than the
    working precision, or where x is tiny.
    """
    p, x0, psi0, slope = (Decimal(v) for v in params)
    with localcontext() as ctx:
        ctx.prec = PRECISION

        def log_psi(x):
            if x >= x0:
                return -p * _log1p(x)
            return (psi0 + slope * (x - x0)).ln()

        def log_dpsi(x):  # log |psi'(x)|
            if x >= x0:
                return p.ln() - (p + 1) * _log1p(x)
            return (-slope).ln()

        a, b, r_ = Decimal(s) / Decimal(r), Decimal(t) / Decimal(r), Decimal(r)
        la, lb = log_psi(a), log_psi(b)
        hi, lo = max(la, lb), min(la, lb)
        big_l = hi + _log1p((lo - hi).exp())  # log(psi(a) + psi(b))
        if big_l <= psi0.ln():
            big_g = _expm1(-big_l / p)
        else:
            big_g = x0 + (big_l.exp() - psi0) / slope
        lw = log_dpsi(big_g)
        return +(r_ * big_g), +(log_dpsi(a) - lw).exp(), +(log_dpsi(b) - lw).exp()


def ulps(got: float, ref: Decimal) -> float:
    """|got - ref| in units of the last place of ref rounded to a float."""
    if not math.isfinite(got):
        return math.inf
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return float(abs(Decimal(got) - ref) / Decimal(math.ulp(float(ref))))
