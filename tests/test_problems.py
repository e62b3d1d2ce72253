"""Benchmark problem catalog, its selectors, and the active-set oracle."""

import numpy as np
import pytest

from smoothncp import (
    EvaluationError,
    ProblemSpec,
    fd_jacobian,
    feas_metric,
    problem_from_selector,
    res_metric,
)
from smoothncp.problems import _active_set_solve as active_set_solve

from p_sampling import p0_sample_test

ALL_SELECTORS = ["analytic2d", "ks", "nash5", "nash10", "hphard:20", "monotone:10", "linspd:8"]


# --- individual families --------------------------------------------------------


def test_analytic2d_values(analytic2d_problem):
    assert np.array_equal(analytic2d_problem.eval_F(np.array([0.0, 1.0])), [2.0, 0.0])
    assert np.array_equal(analytic2d_problem.eval_F(np.array([1.0, 1.0])), [0.0, 0.0])
    sols = analytic2d_problem.known_solutions
    assert len(sols) == 2
    assert np.array_equal(sols[0], [0.0, 1.0]) and np.array_equal(sols[1], [1.0, 1.0])


def test_kojima_shindo_frozen_values(ks_problem):
    assert ks_problem.n == 4
    fx = ks_problem.eval_F(np.array([1.0, 0.0, 3.0, 0.0]))
    assert np.array_equal(fx, [0.0, 31.0, 0.0, 4.0])


def test_kojima_shindo_degenerate_solution(ks_problem):
    sol = ks_problem.known_solutions[1]
    assert sol[0] == pytest.approx(np.sqrt(6.0) / 2.0, rel=1e-15)
    fx = ks_problem.eval_F(sol)
    # x_3 and F_3 vanish together: strict complementarity fails here
    assert sol[2] == 0.0
    assert abs(fx[2]) <= 1e-14
    assert res_metric(sol, fx) <= 1e-14
    assert feas_metric(sol, fx) <= 1e-14


def test_nash_frozen_values():
    nash = problem_from_selector("nash5")
    fx = nash.eval_F(np.ones(5))
    np.testing.assert_allclose(
        fx,
        [-426.49224808, -428.51574333, -430.53902801, -432.56160164, -434.58279388],
        rtol=1e-6,
    )


def test_nash_sizes():
    assert problem_from_selector("nash10").n == 10
    assert np.all(np.isfinite(problem_from_selector("nash10").eval_F(np.ones(10))))
    with pytest.raises(ValueError, match="cannot parse problem selector 'nash7'"):
        ProblemSpec.from_selector("nash7")


def test_nash_tolerates_stray_negative_components():
    nash = problem_from_selector("nash5")
    x = np.array([-0.1, 1.0, 1.0, 1.0, 1.0])
    assert np.all(np.isfinite(nash.F(x)))
    with pytest.raises(EvaluationError):
        nash.F(np.zeros(5))


def test_hp_hard_determinism_and_conditioning():
    p1, p2 = problem_from_selector("hphard:20"), problem_from_selector("hphard:20:0")
    assert np.array_equal(p1.meta["M"], p2.meta["M"])
    assert np.array_equal(p1.meta["q"], p2.meta["q"])
    assert not np.array_equal(p1.meta["M"], problem_from_selector("hphard:20:1").meta["M"])
    assert p1.name == "hp_hard_20_s0"
    sym = (p1.meta["M"] + p1.meta["M"].T) / 2.0
    assert np.linalg.eigvalsh(sym)[0] == pytest.approx(0.13984919875045895, rel=1e-10)


def test_hp_hard_jacobian_copy_safety():
    p = problem_from_selector("hphard:5")
    jf = p.jacobian(np.zeros(5))
    jf[0, 0] += 999.0
    assert np.array_equal(p.jacobian(np.zeros(5)), p.meta["M"])


def test_scalable_monotone_structure():
    p = problem_from_selector("monotone:6")
    assert p.tridiagonal
    # at x = 0 the Jacobian is M + I, arctan' being 1 there
    m = p.jacobian(np.zeros(6)) - np.eye(6)
    assert np.array_equal(np.diag(m), np.full(6, 4.0))
    assert np.array_equal(np.diag(m, 1), np.full(5, -1.0))
    assert np.array_equal(np.diag(m, -1), np.full(5, -1.0))
    assert np.count_nonzero(m) == 6 + 2 * 5
    assert np.array_equal(p.eval_F(np.zeros(6)), np.full(6, -1.0))
    x = np.arange(1.0, 7.0)
    np.testing.assert_allclose(p.eval_F(x), m @ x + np.arctan(x) - 1.0, rtol=1e-15)
    with pytest.raises(ValueError, match="scalable_monotone needs an explicit n >= 2"):
        ProblemSpec.from_selector("monotone:1")


def test_linear_spd_certificates():
    p = problem_from_selector("linspd:8:7")
    assert p.meta["lambda_min"] == pytest.approx(1.0068064863469353, rel=1e-12)
    assert p.meta["lambda_min"] >= 1.0
    x_star = p.meta["x_star"]
    assert any(np.array_equal(x_star, s) for s in p.known_solutions)
    fx = p.eval_F(x_star)
    assert res_metric(x_star, fx) <= 1e-8
    assert feas_metric(x_star, fx) <= 1e-8


def test_linear_spd_large_skips_oracle():
    p = problem_from_selector("linspd:20")
    assert p.meta["x_star"] is None
    assert p.known_solutions == []
    assert p.meta["lambda_min"] >= 1.0


@pytest.mark.parametrize("selector", ALL_SELECTORS)
def test_analytic_jacobians_match_fd(selector):
    p = problem_from_selector(selector)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, p.n)
    jac = p.jacobian(x)
    fd = fd_jacobian(p.eval_F, x, rel_step=1e-7)
    scale = 1.0 + np.abs(jac).max()
    assert np.abs(jac - fd).max() / scale < 1e-5


@pytest.mark.parametrize("selector", [s for s in ALL_SELECTORS if s != "ks"])
def test_most_problems_are_p0_on_their_box(selector):
    rep = p0_sample_test(problem_from_selector(selector), pair_count=40, seed=1)
    assert rep.holds


def test_kojima_shindo_is_not_p0(ks_problem):
    # indefinite quadratics: the sampled check finds real violations
    rep = p0_sample_test(ks_problem, pair_count=40, seed=1)
    assert rep.outcome == "violated"
    assert rep.witness["value"] < 0.0


# --- active-set oracle ------------------------------------------------------------


def test_active_set_hand_example():
    x = active_set_solve(np.eye(2), np.array([-1.0, 2.0]))
    assert np.array_equal(x, [1.0, 0.0])


def test_active_set_reports_infeasibility():
    with pytest.raises(RuntimeError, match="no complementary basis"):
        active_set_solve(np.zeros((1, 1)), np.array([-1.0]))


def test_active_set_agrees_with_certificate():
    p = problem_from_selector("linspd:6:2")
    x = active_set_solve(p.meta["M"], p.meta["q"])
    assert np.array_equal(x, p.meta["x_star"])


# --- selectors ---------------------------------------------------------------------


def test_selector_round_trips():
    cases = {
        "analytic2d": ("analytic2d", None, 0),
        "ks": ("kojima_shindo", None, 0),
        "nash5": ("nash_cournot", 5, 0),
        "nash10": ("nash_cournot", 10, 0),
        "hphard:20": ("hp_hard", 20, 0),
        "hphard:20:3": ("hp_hard", 20, 3),
        "monotone:100": ("scalable_monotone", 100, 0),
        "linspd:8:7": ("linear_spd", 8, 7),
    }
    for text, (pid, n, seed) in cases.items():
        spec = ProblemSpec.from_selector(text)
        assert (spec.id, spec.n, spec.seed) == (pid, n, seed)


def test_selector_build_dimensions():
    assert problem_from_selector("nash10").n == 10
    assert problem_from_selector("monotone:37").n == 37
    assert problem_from_selector("hphard:20:3").name == "hp_hard_20_s3"


@pytest.mark.parametrize(
    "bad", ["nash7", "hphard", "bogus:3", "analytic2d:2", "monotone:xyz", "", "monotone:2:1"])
def test_selector_rejects_garbage(bad):
    with pytest.raises(ValueError):
        ProblemSpec.from_selector(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("monotone:1", "scalable_monotone needs an explicit n >= 2"),
        ("hphard:0", "hp_hard needs an explicit n >= 1"),
        ("linspd:0", "linear_spd needs an explicit n >= 1"),
        ("nash7", "cannot parse problem selector 'nash7'"),
    ],
    ids=["monotone:1", "hphard:0", "linspd:0", "nash7"],
)
def test_selector_rejects_sizes_the_family_lacks(bad, message):
    # the size rule is checked when the selector is parsed, not at build time
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProblemSpec.from_selector(bad)


@pytest.mark.parametrize("selector", ["hphard:20:-1", "linspd:8:-3", "hphard:1:-4294967297"])
def test_selector_rejects_negative_seeds(selector):
    # at parse time, with the seed in the message, not from the build
    seed = selector.rsplit(":", 1)[1]
    with pytest.raises(ValueError, match=f"needs a seed >= 0, got {seed}$"):
        ProblemSpec.from_selector(selector)


def test_spec_rejects_negative_seeds():
    with pytest.raises(ValueError, match="hp_hard needs a seed >= 0, got -2"):
        ProblemSpec(id="hp_hard", n=5, seed=-2)
    with pytest.raises(ValueError, match="linear_spd needs a seed >= 0, got -1"):
        ProblemSpec(id="linear_spd", n=5, seed=-1)


def test_spec_field_validation():
    with pytest.raises(ValueError):
        ProblemSpec(id="unknown")
    with pytest.raises(ValueError, match=r"nash_cournot needs n in \{5, 10\}"):
        ProblemSpec(id="nash_cournot", n=7)
    with pytest.raises(ValueError, match="hp_hard needs an explicit n >= 1"):
        ProblemSpec(id="hp_hard")
    with pytest.raises(ValueError, match="scalable_monotone needs an explicit n >= 2"):
        ProblemSpec(id="scalable_monotone", n=1)
    assert ProblemSpec(id="nash_cournot", n=10).build().n == 10
