"""Test problem catalog: analytic toys, classic benchmarks, random families.

A selector names each problem (problem_from_selector, ProblemSpec), and
every build returns a fully wired NcpProblem with an analytic Jacobian.
Randomized families are deterministic functions of (n, seed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ncp import EvaluationError, NcpProblem

__all__ = ["ProblemSpec", "problem_from_selector"]


def _analytic2d() -> NcpProblem:
    """Two dimensional polynomial problem with solutions (0,1) and (1,1).

    The first component is strictly decreasing, so the problem is not
    monotone; it still solves cleanly from the protocol starts and is
    small enough to plot full trajectories.
    """

    def eval_F(x):
        return np.array([
            2.0 - x[0] - x[0] ** 3,
            x[1] + x[1] ** 3 - 2.0,
        ])

    def eval_JF(x):
        return np.array([
            [-1.0 - 3.0 * x[0] ** 2, 0.0],
            [0.0, 1.0 + 3.0 * x[1] ** 2],
        ])

    return NcpProblem(
        name="analytic2d",
        n=2,
        eval_F=eval_F,
        eval_JF=eval_JF,
        known_solutions=[np.array([0.0, 1.0]), np.array([1.0, 1.0])],
    )


def _kojima_shindo() -> NcpProblem:
    """Classic four dimensional quadratic benchmark with two solutions.

    (1, 0, 3, 0) is nondegenerate; (sqrt(6)/2, 0, 0, 1/2) is degenerate
    with x_3 = F_3(x) = 0.
    """

    def eval_F(x):
        x1, x2, x3, x4 = x
        return np.array([
            3.0 * x1 ** 2 + 2.0 * x1 * x2 + 2.0 * x2 ** 2 + x3 + 3.0 * x4 - 6.0,
            2.0 * x1 ** 2 + x1 + x2 ** 2 + 10.0 * x3 + 2.0 * x4 - 2.0,
            3.0 * x1 ** 2 + x1 * x2 + 2.0 * x2 ** 2 + 2.0 * x3 + 9.0 * x4 - 9.0,
            x1 ** 2 + 3.0 * x2 ** 2 + 2.0 * x3 + 3.0 * x4 - 3.0,
        ])

    def eval_JF(x):
        x1, x2 = x[0], x[1]
        return np.array([
            [6.0 * x1 + 2.0 * x2, 2.0 * x1 + 4.0 * x2, 1.0, 3.0],
            [4.0 * x1 + 1.0, 2.0 * x2, 10.0, 2.0],
            [6.0 * x1 + x2, x1 + 4.0 * x2, 2.0, 9.0],
            [2.0 * x1, 6.0 * x2, 2.0, 3.0],
        ])

    root6 = float(np.sqrt(6.0))
    return NcpProblem(
        name="kojima_shindo",
        n=4,
        eval_F=eval_F,
        eval_JF=eval_JF,
        known_solutions=[
            np.array([1.0, 0.0, 3.0, 0.0]),
            np.array([root6 / 2.0, 0.0, 0.0, 0.5]),
        ],
    )


_NASH_C = np.array([10.0, 8.0, 6.0, 4.0, 2.0])
_NASH_BETA = np.array([1.2, 1.1, 1.0, 0.9, 0.8])
_NASH_GAMMA = 1.1
_NASH_CAP = 10.0
_NASH_SCALE = 5000.0


def _signed_power(u, a):
    # odd extension of u**a keeps stray negative iterates evaluable
    u = np.asarray(u, dtype=float)
    return np.sign(u) * np.abs(u) ** a


def _nash_cournot(n: int) -> NcpProblem:
    """Cournot oligopoly equilibrium with isoelastic inverse demand.

    Firm i supplies x_i at cost c_i x_i plus a capacity term; F_i is
    marginal cost minus marginal revenue at total supply Q.  Demand is
    undefined at Q <= 0, where evaluation raises EvaluationError.  The
    ten firm variant repeats the five firm parameter cycle.
    """
    reps = n // 5
    c = np.tile(_NASH_C, reps)
    beta = np.tile(_NASH_BETA, reps)
    cap_pow = _NASH_CAP ** (-1.0 / beta)
    p0 = _NASH_SCALE ** (1.0 / _NASH_GAMMA)

    def _price_terms(x):
        q_total = float(np.sum(x))
        if q_total <= 0.0:
            raise EvaluationError("inverse demand needs positive total supply")
        price = p0 * q_total ** (-1.0 / _NASH_GAMMA)
        dprice = -price / (_NASH_GAMMA * q_total)
        return q_total, price, dprice

    def eval_F(x):
        _, price, dprice = _price_terms(x)
        mc = c + cap_pow * _signed_power(x, 1.0 / beta)
        return mc - price - x * dprice

    def eval_JF(x):
        q_total, _, dprice = _price_terms(x)
        d2price = -dprice * (1.0 + 1.0 / _NASH_GAMMA) / q_total
        mc_slope = cap_pow / beta * np.abs(x) ** (1.0 / beta - 1.0)
        jac = np.tile((-dprice - x * d2price)[:, None], (1, n))
        idx = np.arange(n)
        jac[idx, idx] += mc_slope - dprice
        return jac

    return NcpProblem(
        name=f"nash_cournot_{n}",
        n=n,
        eval_F=eval_F,
        eval_JF=eval_JF,
    )


def _hp_hard(n: int, seed: int) -> NcpProblem:
    """Random linear problem Mx + q with M = A'A + skew + small diagonal.

    The symmetric part of M is positive semidefinite, so the problem is
    monotone, but conditioning degrades quickly as n grows.
    """
    from ._draws import Stream

    rng = Stream(seed)
    a = rng.uniform(-5.0, 5.0, (n, n))
    upper = np.triu(rng.uniform(-5.0, 5.0, (n, n)), 1)
    d = rng.uniform(0.0, 0.3, n)
    q = rng.uniform(-500.0, 500.0, n)
    m = a.T @ a + (upper - upper.T) + np.diag(d)

    def eval_F(x):
        return m @ x + q

    def eval_JF(x):
        return m.copy()

    return NcpProblem(
        name=f"hp_hard_{n}_s{seed}",
        n=n,
        eval_F=eval_F,
        eval_JF=eval_JF,
        meta={"M": m, "q": q},
    )


def _scalable_monotone(n: int) -> NcpProblem:
    """Tridiagonal monotone problem F(x) = Mx + arctan(x) - 1 at any size.

    M has 4 on the diagonal and -1 beside it.  It is never formed: F takes
    O(n) and the Jacobian comes as its three bands (tridiagonal=True).
    """

    def eval_F(x):
        mx = 4.0 * x
        mx[1:] -= x[:-1]
        mx[:-1] -= x[1:]
        return mx + np.arctan(x) - 1.0

    def eval_JF(x):
        bands = np.full((3, n), -1.0)
        bands[0, 0] = bands[2, -1] = 0.0
        bands[1] = 4.0 + 1.0 / (1.0 + x ** 2)
        return bands

    return NcpProblem(
        name=f"monotone_{n}",
        n=n,
        eval_F=eval_F,
        eval_JF=eval_JF,
        tridiagonal=True,
    )


def _active_set_solve(m, q, tol: float = 1e-9) -> np.ndarray:
    """Exact solution of a linear problem by complementary enumeration.

    Tries every active set S: solve M_SS x_S = -q_S with the rest of x at
    zero, keep the first candidate whose x and Mx + q are nonnegative up
    to `tol`, clip the stray negatives.  Exponential in n: _linear_spd
    calls it only for n <= 12.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = m.shape[0]
    for mask in range(2 ** n):
        active = (mask >> np.arange(n)) & 1 == 1
        x = np.zeros(n)
        if active.any():
            try:
                x[active] = np.linalg.solve(m[np.ix_(active, active)], -q[active])
            except np.linalg.LinAlgError:
                continue
        if x.min() < -tol:
            continue
        f = m @ x + q
        if f.min() < -tol:
            continue
        return np.maximum(x, 0.0)
    raise RuntimeError("no complementary basis was feasible")


def _linear_spd(n: int, seed: int) -> NcpProblem:
    """Strongly monotone linear problem with certified solution and modulus.

    M = A'A + I has lambda_min >= 1, so h(u) = lambda_min * u^2 is a valid
    monotonicity modulus.  For n <= 12 the exact solution from the active
    set oracle ships in known_solutions and meta["x_star"].
    """
    from ._draws import Stream

    rng = Stream(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    q = rng.uniform(-2.0, 2.0, n)
    m = a.T @ a + np.eye(n)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    x_star = _active_set_solve(m, q) if n <= 12 else None
    known = [] if x_star is None else [x_star]

    def eval_F(x):
        return m @ x + q

    def eval_JF(x):
        return m.copy()

    return NcpProblem(
        name=f"linear_spd_{n}_s{seed}",
        n=n,
        eval_F=eval_F,
        eval_JF=eval_JF,
        known_solutions=known,
        meta={"M": m, "q": q, "lambda_min": lam_min, "x_star": x_star},
    )


class _Head(NamedTuple):
    """One selector head of the catalog."""

    id: str  # the family id
    build: Callable
    n: int | None  # the size the head fixes, or the least n if fields > 0
    fields: int = 0  # what follows the head: 1 is :<n>, 2 is :<n>[:<seed>]


_CATALOG = {
    "analytic2d": _Head("analytic2d", _analytic2d, None),
    "ks": _Head("kojima_shindo", _kojima_shindo, None),
    "nash5": _Head("nash_cournot", _nash_cournot, 5),
    "nash10": _Head("nash_cournot", _nash_cournot, 10),
    "hphard": _Head("hp_hard", _hp_hard, 1, 2),
    "monotone": _Head("scalable_monotone", _scalable_monotone, 2, 1),
    "linspd": _Head("linear_spd", _linear_spd, 1, 2),
}


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem selector: family id plus size and seed where they apply.

    A spec is checked against the catalog when it is made, so every spec
    builds: a family whose heads fix n takes one of those sizes, and any
    other family an explicit n of at least its least size.
    """

    id: str
    n: int | None = None
    seed: int = 0

    def __post_init__(self):
        heads = [head for head in _CATALOG.values() if head.id == self.id]
        if not heads:
            raise ValueError(f"unknown problem family {self.id!r}")
        if heads[0].fields:  # its one head reads n from the selector
            if self.n is None or self.n < heads[0].n:
                raise ValueError(f"{self.id} needs an explicit n >= {heads[0].n}")
        elif self.n not in [head.n for head in heads]:
            sizes = ", ".join(str(head.n) for head in heads)
            raise ValueError(f"{self.id} needs n in {{{sizes}}}")
        if heads[0].fields == 2 and self.seed < 0:
            raise ValueError(f"{self.id} needs a seed >= 0, got {self.seed}")

    @classmethod
    def from_selector(cls, text: str) -> "ProblemSpec":
        """Parse selectors: analytic2d, ks, nash5, nash10, hphard:<n>[:<seed>],
        monotone:<n>, linspd:<n>[:<seed>].  Omitted seeds default to 0."""
        name, *fields = text.strip().split(":")
        head = _CATALOG.get(name)
        # a field is ASCII digits, where int() would also read underscores, a
        # plus sign, blanks and non-ASCII digits; a minus is let through, so
        # that a negative size or seed gets the spec's own message
        fits = head is not None and (len(fields) == head.fields or 1 <= len(fields) < head.fields)
        if not fits or not all(re.fullmatch("-?[0-9]+", field) for field in fields):
            raise ValueError(f"cannot parse problem selector {text!r}")
        return cls(head.id, *([int(field) for field in fields] or [head.n]))

    def build(self) -> NcpProblem:
        head = next(head for head in _CATALOG.values() if head.id == self.id)
        if head.fields == 2:
            return head.build(self.n, self.seed)
        return head.build() if self.n is None else head.build(self.n)


def problem_from_selector(text: str) -> NcpProblem:
    """One step convenience: parse a selector string and build the problem."""
    return ProblemSpec.from_selector(text).build()
