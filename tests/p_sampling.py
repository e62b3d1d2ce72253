"""Sampled P-property checks of complementarity problems, and their tests.

p0_sample_test draws pairs of points from the box [0, 20]^n and checks
the P0 criterion max_i (x-y)_i (F(x)-F(y))_i >= -P0_SLACK on each pair;
p_sample_test_hr checks the strict P criterion for the smoothed map
x -> H_r(x).  Only the tests use them.  The tests below run as part of
test_ncp.py, which imports them.
"""

import math

import numpy as np
import pytest

from smoothncp import AnalysisReport, NcpProblem, g_r, problem_from_selector

P0_SLACK = 1e-12
# every coordinate of a pair is drawn from this interval
SAMPLE_BOX = (0.0, 20.0)


def _sample_pairs(problem: NcpProblem, pair_count: int, seed: int):
    rng = np.random.default_rng(seed)
    lo, hi = SAMPLE_BOX
    shape = (pair_count, 2, problem.n)
    return lo + (hi - lo) * rng.uniform(size=shape)


def _p_sample_report(problem, map_fn, pair_count, seed, strict, prop, extra):
    draws = _sample_pairs(problem, pair_count, seed)
    max_defect = -math.inf
    witness = None
    threshold = 0.0 if strict else -P0_SLACK
    for k in range(pair_count):
        x, y = draws[k, 0], draws[k, 1]
        diff = x - y
        active = diff != 0.0
        if not active.any():
            continue
        gap = np.asarray(map_fn(x), dtype=float) - np.asarray(map_fn(y), dtype=float)
        m = float(np.max(diff[active] * gap[active]))
        defect = (threshold - m) if strict else (-m - P0_SLACK)
        violated = (m <= threshold) if strict else (m < -P0_SLACK)
        if defect > max_defect:
            max_defect = defect
        if violated and witness is None:
            witness = {"pair": k, "x": x.tolist(), "y": y.tolist(), "value": m}
    desc = f"{pair_count} pairs from sample box, seed {seed}{extra}"
    return AnalysisReport(property=prop, grid=desc, max_defect=max_defect, witness=witness)


def p0_sample_test(problem: NcpProblem, pair_count: int = 200, seed: int = 0):
    """Sampled P0 check: max over differing components of (x-y)_i (F(x)-F(y))_i
    must not fall below -1e-12 on any drawn pair."""
    return _p_sample_report(
        problem, lambda z: problem.F(z), pair_count, seed,
        strict=False, prop="p0_sampled", extra="",
    )


def p_sample_test_hr(
    problem: NcpProblem,
    kernel,
    r: float,
    pair_count: int = 200,
    seed: int = 0,
):
    """Sampled strict-P check for the smoothed map x -> H_r(x).

    For P0 problems the smoothed map is a P-function for every r > 0, so the
    componentwise criterion must be strictly positive on every sampled pair.
    """
    return _p_sample_report(
        problem,
        lambda z: g_r(kernel, z, problem.F(z), r),
        pair_count,
        seed,
        strict=True,
        prop="p_sampled_hr",
        extra=f", r={r:g}",
    )


def anti_monotone():
    """F(x) = -x: the canonical failure case for every P-type property."""
    return NcpProblem(name="anti", n=1, eval_F=lambda x: -x, known_solutions=[np.zeros(1)])


# --- sampled P-properties ---------------------------------------------------------


@pytest.mark.parametrize("selector", ["analytic2d", "monotone:10", "hphard:20"])
def test_p0_sample_holds_on_shipped_problems(selector):
    rep = p0_sample_test(problem_from_selector(selector), pair_count=60, seed=3)
    assert rep.holds
    assert rep.property == "p0_sampled"


def test_p0_sample_flags_antimonotone():
    rep = p0_sample_test(anti_monotone(), pair_count=30, seed=0)
    assert not rep.holds
    assert rep.outcome == "violated"
    assert rep.witness["value"] < 0.0
    assert set(rep.witness) == {"pair", "x", "y", "value"}


def test_p_sample_hr_strictly_positive_on_monotone(rational):
    mono = problem_from_selector("monotone:10")
    rep = p_sample_test_hr(mono, rational, 0.5, pair_count=40, seed=3)
    assert rep.holds
    assert rep.property == "p_sampled_hr"


def test_p_sample_hr_flags_antimonotone(rational):
    rep = p_sample_test_hr(anti_monotone(), rational, 0.5, pair_count=30, seed=0)
    assert rep.outcome == "violated"
