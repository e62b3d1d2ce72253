"""Test problem catalog: analytic toys, classic benchmarks, random families.

Every constructor returns a fully wired NcpProblem with an analytic
Jacobian.  Randomized families are deterministic functions of (n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ncp import EvaluationError, NcpProblem

__all__ = [
    "ProblemSpec",
    "analytic2d",
    "kojima_shindo",
    "nash_cournot",
    "hp_hard",
    "scalable_monotone",
    "linear_spd",
    "active_set_solve",
    "problem_from_selector",
]


def analytic2d() -> NcpProblem:
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


def kojima_shindo() -> NcpProblem:
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


def nash_cournot(n: int = 5) -> NcpProblem:
    """Cournot oligopoly equilibrium with isoelastic inverse demand.

    Firm i supplies x_i at cost c_i x_i plus a capacity term; F_i is
    marginal cost minus marginal revenue at total supply Q.  Demand is
    undefined at Q <= 0, where evaluation raises EvaluationError.  The
    ten firm variant repeats the five firm parameter cycle.
    """
    if n not in (5, 10):
        raise ValueError("nash_cournot is defined for n in {5, 10}")
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


def hp_hard(n: int, seed: int = 0) -> NcpProblem:
    """Random linear problem Mx + q with M = A'A + skew + small diagonal.

    The symmetric part of M is positive semidefinite, so the problem is
    monotone, but conditioning degrades quickly as n grows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
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


def scalable_monotone(n: int) -> NcpProblem:
    """Tridiagonal monotone problem F(x) = Mx + arctan(x) - 1 at any size.

    M has 4 on the diagonal and -1 beside it.  It is never formed: F takes
    O(n) and the Jacobian comes as its three bands (tridiagonal=True).
    """
    if n < 2:
        raise ValueError("n must be at least 2")

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


def active_set_solve(m, q, tol: float = 1e-9) -> np.ndarray:
    """Exact solution of a linear problem by complementary enumeration.

    Tries every active set S: solve M_SS x_S = -q_S with the rest of x at
    zero, keep the first candidate whose x and Mx + q are nonnegative up
    to `tol`, clip the stray negatives.  Exponential in n, hence the cap.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or q.shape != (n,):
        raise ValueError("M must be square and q conformable")
    if n > 12:
        raise ValueError("active set enumeration is exponential; n > 12 refused")
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


def linear_spd(n: int, seed: int = 0) -> NcpProblem:
    """Strongly monotone linear problem with certified solution and modulus.

    M = A'A + I has lambda_min >= 1, so h(u) = lambda_min * u^2 is a valid
    monotonicity modulus.  For n <= 12 the exact solution from the active
    set oracle ships in known_solutions and meta["x_star"].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    q = rng.uniform(-2.0, 2.0, n)
    m = a.T @ a + np.eye(n)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    x_star = active_set_solve(m, q) if n <= 12 else None
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


_FAMILIES = (
    "analytic2d",
    "kojima_shindo",
    "nash_cournot",
    "hp_hard",
    "scalable_monotone",
    "linear_spd",
)


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem selector: family id plus size and seed where they apply."""

    id: str
    n: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.id not in _FAMILIES:
            raise ValueError(f"unknown problem family {self.id!r}")
        if self.id == "nash_cournot" and self.n not in (5, 10):
            raise ValueError("nash_cournot needs n in {5, 10}")
        if self.id in ("hp_hard", "scalable_monotone", "linear_spd"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.id} needs an explicit positive n")

    @classmethod
    def from_selector(cls, text: str) -> "ProblemSpec":
        """Parse selectors: analytic2d, ks, nash5, nash10, hphard:<n>[:<seed>],
        monotone:<n>, linspd:<n>[:<seed>].  Omitted seeds default to 0."""
        parts = text.strip().split(":")
        head = parts[0]
        if head == "analytic2d" and len(parts) == 1:
            return cls(id="analytic2d")
        if head == "ks" and len(parts) == 1:
            return cls(id="kojima_shindo")
        if head in ("nash5", "nash10") and len(parts) == 1:
            return cls(id="nash_cournot", n=int(head[4:]))
        if head == "hphard" and len(parts) in (2, 3):
            seed = int(parts[2]) if len(parts) == 3 else 0
            return cls(id="hp_hard", n=int(parts[1]), seed=seed)
        if head == "monotone" and len(parts) == 2:
            return cls(id="scalable_monotone", n=int(parts[1]))
        if head == "linspd" and len(parts) in (2, 3):
            seed = int(parts[2]) if len(parts) == 3 else 0
            return cls(id="linear_spd", n=int(parts[1]), seed=seed)
        raise ValueError(f"cannot parse problem selector {text!r}")

    def build(self) -> NcpProblem:
        if self.id == "analytic2d":
            return analytic2d()
        if self.id == "kojima_shindo":
            return kojima_shindo()
        if self.id == "nash_cournot":
            return nash_cournot(self.n)
        if self.id == "hp_hard":
            return hp_hard(self.n, self.seed)
        if self.id == "scalable_monotone":
            return scalable_monotone(self.n)
        return linear_spd(self.n, self.seed)


def problem_from_selector(text: str) -> NcpProblem:
    """One step convenience: parse a selector string and build the problem."""
    return ProblemSpec.from_selector(text).build()
