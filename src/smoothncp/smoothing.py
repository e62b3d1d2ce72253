"""Soft-min operator g_r and its partial derivatives.

The soft minimum induced by a kernel is

    g_r(s, t) = r * psi_inv( psi(s/r) + psi(t/r) ),

which never exceeds min(s, t) and converges to it (or to zero, depending on
the kernel's tail) as r -> 0.  Applied componentwise to (x_i, F_i(x)) it
turns the complementarity conditions into the smooth square system
H_r(x) = g_r(kernel, x, problem.F(x), r) = 0, which the solver module
assembles and solves by continuation Newton.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .kernels import SmoothingKernel

__all__ = ["g_r", "g_r_partials"]


def _check_r(r):
    if not 0.0 < r < math.inf:
        raise ValueError("smoothing parameter r must be finite and positive")


def _psi_sum(psi: Callable, a, b):
    """psi(a) + psi(b) of the generic composition, which must be finite and
    positive: NaN or -inf arguments, two +inf ones and a sum that underflows
    to 0 raise FloatingPointError."""
    y = psi(a) + psi(b)
    if not np.all(np.isfinite(y)) or np.any(np.asarray(y) <= 0.0):
        raise FloatingPointError(
            "soft-min evaluation left the representable range of psi"
        )
    return y


def g_r(kernel: SmoothingKernel, s, t, r: float):
    """Soft minimum of s and t at smoothing level r.

    Symmetric, smooth in (s, t), and bounded above by min(s, t) with no
    tolerance, in floating point as well: the rational and exponential
    closed forms keep the bound by construction, and the power kernels'
    log-domain closed form and the generic composition are clamped to it.
    Scalars and same-shape arrays are both accepted; a scalar gives a float.
    """
    _check_r(r)
    if kernel.softmin_override is not None:
        return kernel.softmin_override(s, t, r)
    s_ = np.asarray(s, dtype=float)
    t_ = np.asarray(t, dtype=float)
    y = _psi_sum(kernel.psi, s_ / r, t_ / r)
    # rounding in psi, the sum and psi_inv can lift the exact value, which
    # never exceeds min(s, t), above it by an ulp at small r
    g = np.minimum(r * kernel.psi_inv(y), np.minimum(s_, t_))
    return float(g) if g.ndim == 0 else g


def g_r_partials(kernel: SmoothingKernel, s, t, r: float):
    """Partial derivatives (dG/ds, dG/dt) of the soft minimum.

    Both are psi'(arg/r) / psi'(psi_inv(psi(s/r) + psi(t/r))) and hence
    strictly positive.  For the exponential kernel they are softmax weights
    summing to one exactly.
    """
    _check_r(r)
    if kernel.softmin_partials_override is not None:
        return kernel.softmin_partials_override(s, t, r)
    s_ = np.asarray(s, dtype=float)
    t_ = np.asarray(t, dtype=float)
    w = kernel.dpsi(kernel.psi_inv(_psi_sum(kernel.psi, s_ / r, t_ / r)))
    if np.any(np.asarray(w) == 0.0):
        raise ArithmeticError("psi' vanished at the soft-min composition point")
    return kernel.dpsi(s_ / r) / w, kernel.dpsi(t_ / r) / w


def _g_r_with_partials(kernel: SmoothingKernel, s, t, r, value=g_r, partials=g_r_partials):
    """(g_r, *g_r_partials) bit for bit, from one call of the kernel's closed
    form while the partials override is that closed form with its partials
    flag set (kernels._fused), and else from value and partials, which a
    caller passes as the names its own module resolves, so that a patched
    name is the one called."""
    override = kernel.softmin_partials_override
    if isinstance(override, functools.partial) and override.func is kernel.softmin_override:
        _check_r(r)
        return override.func(s, t, r, True, True)
    return (value(kernel, s, t, r), *partials(kernel, s, t, r))
