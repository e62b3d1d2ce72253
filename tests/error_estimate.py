"""The paper's error estimate ||x* - x(r)|| <= h_inv(n r^2), for the tests.

Under the monotonicity assumption h(||x - y||) <= <x - y, F(x) - F(y)>,
the residual bound n r^2 of a solved level converts into a distance bound
on the exact root x(r) of H_r.  Acceptance criterion C10 checks it on a
strongly monotone problem; the modulus tests of test_ncp.py check the
functions themselves.  No library code calls them.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ErrorModulus:
    """Monotonicity modulus h with its inverse h_inv, valid on [0, eta).

    Models the assumption h(||x - y||) <= <x - y, F(x) - F(y)> near the
    solution, which converts the residual bound n * r^2 into the error bound
    ||x* - x(r)|| <= h_inv(n * r^2).
    """

    h: Callable = field(repr=False)
    h_inv: Callable = field(repr=False)
    eta: float = math.inf


def quadratic_modulus(mu: float) -> ErrorModulus:
    """Modulus family h(u) = mu * u^2, the strong-monotonicity case."""
    if not mu > 0.0:
        raise ValueError("quadratic modulus requires mu > 0")
    return ErrorModulus(
        h=lambda u: mu * np.asarray(u, dtype=float) ** 2,
        h_inv=lambda v: np.sqrt(np.asarray(v, dtype=float) / mu),
    )


def error_bound(modulus: ErrorModulus, n: int, r: float) -> float:
    """Distance bound h_inv(n * r^2); requires n * r^2 inside the modulus range."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= r < math.inf:
        raise ValueError("r must be finite and nonnegative")
    v = n * r * r
    if v >= modulus.eta:
        raise ValueError(
            f"residual level n*r^2 = {v:g} outside the modulus range [0, {modulus.eta:g})"
        )
    return float(modulus.h_inv(v))
