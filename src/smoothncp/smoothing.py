"""Soft-min operator, smoothed residual map, and its Jacobian.

The soft minimum induced by a kernel is

    g_r(s, t) = r * psi_inv( psi(s/r) + psi(t/r) ),

which never exceeds min(s, t) and converges to it (or to zero, depending on
the kernel's tail) as r -> 0.  Applying it componentwise to (x_i, F_i(x))
turns the complementarity conditions into the smooth square system
H_r(x) = 0 solved by the continuation Newton method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import SmoothingKernel

__all__ = [
    "EvalCounter",
    "g_r",
    "g_r_partials",
    "h_r",
    "h_r_jacobian",
    "fd_jacobian",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


@dataclass
class EvalCounter:
    """Per-run evaluation tally; each solve owns one, so counts stay exact
    under concurrent solves of distinct runs."""

    f_evals: int = 0
    jac_evals: int = 0


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
    tolerance, in floating point as well: the kernel closed forms keep the
    bound by construction and the generic composition is clamped to it.
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
    strictly positive.  For the exponential family they are softmax weights
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


def h_r(problem, kernel: SmoothingKernel, x, r: float, counter=None) -> np.ndarray:
    """Smoothed residual H_r(x)_i = g_r(x_i, F_i(x)).

    Evaluates F exactly once; evaluation failures of F propagate unchanged.
    """
    x_ = np.asarray(x, dtype=float)
    if x_.shape != (problem.n,):
        raise ValueError(f"expected point of shape ({problem.n},), got {x_.shape}")
    fx = problem.F(x_, counter)
    return g_r(kernel, x_, fx, r)


def h_r_jacobian(
    problem, kernel: SmoothingKernel, x, r: float, counter=None, fx=None
) -> np.ndarray:
    """Jacobian D1 + D2 * JF(x) of the smoothed residual.

    D1 and D2 are the diagonal soft-min partials at (x_i, F_i(x)).  Counts as
    one Jacobian evaluation on `counter`; the finite-difference fallback used
    when the problem ships no analytic Jacobian also counts as one.
    """
    _check_r(r)
    x_ = np.asarray(x, dtype=float)
    if fx is None:
        fx = problem.F(x_, counter)
    d1, d2 = g_r_partials(kernel, x_, fx, r)
    return _newton_matrix(d1, d2, problem.jacobian(x_, counter))


def _newton_matrix(d1, d2, jf) -> np.ndarray:
    """Dense D1 + D2 * JF from the soft-min partials d1, d2 and the Jacobian
    of F; the Newton matrix the solver factors."""
    out = d2[:, None] * jf
    out.flat[:: len(d1) + 1] += d1
    return out


def fd_jacobian(f: Callable, x: np.ndarray, rel_step: float | None = None) -> np.ndarray:
    """Forward-difference Jacobian with step rel_step * (1 + |x_j|) per column."""
    step = _SQRT_EPS if rel_step is None else rel_step
    x_ = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x_), dtype=float)
    n = x_.size
    out = np.empty((f0.size, n))
    for j in range(n):
        h = step * (1.0 + abs(x_[j]))
        xp = x_.copy()
        xp[j] += h
        out[:, j] = (np.asarray(f(xp), dtype=float) - f0) / h
    return out
