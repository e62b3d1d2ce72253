"""Problem abstraction, evaluation counts and residual metrics.

A complementarity problem asks for x >= 0 with F(x) >= 0 and x_i F_i(x) = 0
per component.  Progress is measured by two metrics: Res(x), the worst
componentwise product |x_i F_i(x)|, and Feas(x), the l1 mass of the negative
parts of x and F(x).  Both vanish together exactly at solutions.  F and its
Jacobian tally their calls on an EvalCounter; a problem without an analytic
Jacobian gets forward differences (fd_jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "EvalCounter",
    "EvaluationError",
    "NcpProblem",
    "fd_jacobian",
    "res_metric",
    "feas_metric",
]

SOLUTION_TOL = 1e-8
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


@dataclass
class EvalCounter:
    """Per-run evaluation tally; each solve owns one, so counts stay exact
    under concurrent solves of distinct runs."""

    f_evals: int = 0
    jac_evals: int = 0


class EvaluationError(Exception):
    """Raised when F (or its Jacobian) is asked for a point outside its domain."""


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


def res_metric(x, fx) -> float:
    """Res(x) = max_i |x_i * F_i(x)|; inf or NaN, without a warning, where
    a product leaves the floats."""
    x_ = np.asarray(x, dtype=float)
    f_ = np.asarray(fx, dtype=float)
    if x_.shape != f_.shape:
        raise ValueError("x and F(x) must have matching shapes")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(x_ * f_)))


def feas_metric(x, fx) -> float:
    """Feas(x) = ||min(x, 0)||_1 + ||min(F(x), 0)||_1, never -0.0."""
    x_ = np.asarray(x, dtype=float)
    f_ = np.asarray(fx, dtype=float)
    if x_.shape != f_.shape:
        raise ValueError("x and F(x) must have matching shapes")
    return float(np.maximum(-x_, 0.0).sum() + np.maximum(-f_, 0.0).sum())


@dataclass(eq=False)
class NcpProblem:
    """A complementarity problem instance.

    eval_F maps an n-vector to an n-vector; eval_JF, when present, returns
    the n-by-n Jacobian (a forward-difference fallback is used otherwise).
    A problem with tridiagonal=True must supply eval_JF, and it returns the
    three diagonals as a (3, n) band array instead: row 0 holds the
    super-diagonal in columns 1:, row 1 the diagonal and row 2 the
    sub-diagonal in columns :-1 (the layout of LAPACK's banded storage with
    one band on each side); the other two entries are ignored.  jacobian()
    returns the bands too, and the solver takes O(n) Newton steps on them.
    known_solutions are reference points validated at construction time
    against Res <= 1e-8 and Feas <= 1e-8.  meta carries family-specific
    constants (matrices, eigenvalues, oracle solutions).
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
        """Jacobian of F in the problem's own form: the n-by-n matrix, or the
        (3, n) bands of the class docstring when tridiagonal.  Analytic when
        available, forward differences otherwise; either counts as a single
        Jacobian evaluation."""
        x_ = np.asarray(x, dtype=float)
        if counter is not None:
            counter.jac_evals += 1
        if self.eval_JF is not None:
            jf = np.asarray(self.eval_JF(x_), dtype=float)
        else:
            jf = fd_jacobian(self.eval_F, x_)
        shape = (3, self.n) if self.tridiagonal else (self.n, self.n)
        if jf.shape != shape:
            raise ValueError(f"Jacobian has shape {jf.shape}, expected {shape}")
        return jf
