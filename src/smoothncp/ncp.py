"""Problem abstraction, residual metrics, and error moduli.

A complementarity problem asks for x >= 0 with F(x) >= 0 and x_i F_i(x) = 0
per component.  Progress is measured by two metrics: Res(x), the worst
componentwise product |x_i F_i(x)|, and Feas(x), the l1 mass of the negative
parts of x and F(x).  Both vanish together exactly at solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .smoothing import EvalCounter, fd_jacobian

__all__ = [
    "EvaluationError",
    "NcpProblem",
    "ErrorModulus",
    "quadratic_modulus",
    "res_metric",
    "feas_metric",
    "error_bound",
]

SOLUTION_TOL = 1e-8


class EvaluationError(Exception):
    """Raised when F (or its Jacobian) is asked for a point outside its domain."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def res_metric(x, fx) -> float:
    """Res(x) = max_i |x_i * F_i(x)|."""
    x_ = np.asarray(x, dtype=float)
    f_ = np.asarray(fx, dtype=float)
    if x_.shape != f_.shape:
        raise ValueError("x and F(x) must have matching shapes")
    return float(np.max(np.abs(x_ * f_)))


def feas_metric(x, fx) -> float:
    """Feas(x) = ||min(x, 0)||_1 + ||min(F(x), 0)||_1, never -0.0."""
    x_ = np.asarray(x, dtype=float)
    f_ = np.asarray(fx, dtype=float)
    if x_.shape != f_.shape:
        raise ValueError("x and F(x) must have matching shapes")
    return float(np.maximum(-x_, 0.0).sum() + np.maximum(-f_, 0.0).sum())


@dataclass
class NcpProblem:
    """A complementarity problem instance.

    eval_F maps an n-vector to an n-vector; eval_JF, when present, returns
    the n-by-n Jacobian (a forward-difference fallback is used otherwise).
    A problem with tridiagonal=True must supply eval_JF, and it returns the
    three diagonals as a (3, n) band array instead: row 0 holds the
    super-diagonal in columns 1:, row 1 the diagonal and row 2 the
    sub-diagonal in columns :-1 (the layout of LAPACK's banded storage with
    one band on each side); the other two entries are ignored.  jacobian()
    still returns the dense matrix, and the solver takes O(n) Newton steps
    on the bands.  known_solutions are reference points validated at
    construction time against Res <= 1e-8 and Feas <= 1e-8.  meta carries
    family-specific constants (matrices, eigenvalues, oracle solutions).
    """

    name: str
    n: int
    eval_F: Callable = field(repr=False)
    eval_JF: Callable | None = field(default=None, repr=False)
    known_solutions: list = field(default_factory=list)
    meta: dict = field(default_factory=dict, repr=False)
    tridiagonal: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("problem dimension must be at least 1")
        if self.tridiagonal and self.eval_JF is None:
            raise ValueError("a tridiagonal problem must supply eval_JF")
        self.known_solutions = [
            np.asarray(s, dtype=float) for s in self.known_solutions
        ]
        for k, sol in enumerate(self.known_solutions):
            fx = self.F(sol)
            res = res_metric(sol, fx)
            feas = feas_metric(sol, fx)
            if res > SOLUTION_TOL or feas > SOLUTION_TOL:
                raise ValueError(
                    f"known solution {k} of {self.name!r} fails validation "
                    f"(Res={res:.2e}, Feas={feas:.2e})"
                )

    def F(self, x, counter: EvalCounter | None = None) -> np.ndarray:
        """Evaluate F, tallying on `counter` when given."""
        x_ = np.asarray(x, dtype=float)
        if x_.shape != (self.n,):
            raise ValueError(f"expected point of shape ({self.n},), got {x_.shape}")
        # counted before the call, so evaluations that raise count too
        if counter is not None:
            counter.f_evals += 1
        fx = np.asarray(self.eval_F(x_), dtype=float)
        if fx.shape != (self.n,):
            raise ValueError(f"F returned shape {fx.shape}, expected ({self.n},)")
        return fx

    def jacobian(self, x, counter: EvalCounter | None = None) -> np.ndarray:
        """Jacobian of F; analytic when available, forward differences otherwise.

        Either path counts as a single Jacobian evaluation; the bands of a
        tridiagonal problem are expanded to the dense matrix.
        """
        if self.tridiagonal:
            bands = self.jacobian_bands(x, counter)
            jf = np.diag(bands[1])
            idx = np.arange(self.n - 1)
            jf[idx, idx + 1] = bands[0, 1:]
            jf[idx + 1, idx] = bands[2, :-1]
            return jf
        x_ = np.asarray(x, dtype=float)
        if counter is not None:
            counter.jac_evals += 1
        if self.eval_JF is not None:
            jf = np.asarray(self.eval_JF(x_), dtype=float)
        else:
            jf = fd_jacobian(self.eval_F, x_)
        if jf.shape != (self.n, self.n):
            raise ValueError(f"Jacobian has shape {jf.shape}, expected square")
        return jf

    def jacobian_bands(self, x, counter: EvalCounter | None = None) -> np.ndarray:
        """The (3, n) bands of a tridiagonal Jacobian, in the layout of the
        class docstring; counts as a single Jacobian evaluation."""
        if not self.tridiagonal:
            raise ValueError(f"{self.name!r} does not declare a tridiagonal Jacobian")
        x_ = np.asarray(x, dtype=float)
        if counter is not None:
            counter.jac_evals += 1
        bands = np.asarray(self.eval_JF(x_), dtype=float)
        if bands.shape != (3, self.n):
            raise ValueError(f"Jacobian bands have shape {bands.shape}, expected (3, {self.n})")
        return bands


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
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    v = n * r * r
    if v >= modulus.eta:
        raise ValueError(
            f"residual level n*r^2 = {v:g} outside the modulus range [0, {modulus.eta:g})"
        )
    return float(modulus.h_inv(v))
