import numpy as np
import pytest

from tubereach.chance import RiskLP
from tubereach.geometry import HPolytope, box_polytope
from tubereach.montecarlo import simulate_reach_prob
from tubereach.sysmodel import (GaussianDisturbance, StochasticLTVSystem,
                                TargetTube, viability_tube)

# Frozen oracle from the 0.01-grid dynamic program on the scalar example
# (tests/conftest.py fixtures): V0 >= 0.6 on [-0.495, 0.495].
DP_06_LO, DP_06_HI = -0.495, 0.495
GRID = 0.01


def test_risk_variable_count_scalar_example(sys1d, tube1d, pwa):
    risk = RiskLP(sys1d, tube1d, 0.8, pwa)
    # two half-spaces per step over five noisy steps
    assert risk.n_risk == 10
    assert len(risk.deterministic_rows) == 0
    # each stochastic row contributes one constraint per envelope piece,
    # plus the shared budget; the box input set goes to bounds
    assert risk.rows.shape == (risk.n_risk * len(pwa.pieces) + 1,
                               risk.n_u + risk.n_risk)
    assert risk.rhs.size == risk.rows.shape[0]


def test_budget_floor_infeasible_diagnostic(sys1d, tube1d, pwa):
    res = RiskLP(sys1d, tube1d, 1.0, pwa).anchor("xmax")
    assert res.status == "empty"
    assert "floor" in res.diagnostic


def test_zero_covariance_rows_deterministic(pwa):
    sys = StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), np.zeros((1, 1)),
        box_polytope(np.zeros(1), np.array([0.5])), 3)
    tube = viability_tube(1, 1.0, 3)
    risk = RiskLP(sys, tube, 0.9, pwa)
    assert risk.n_risk == 0
    assert len(risk.deterministic_rows) == 6
    res = risk.anchor("xmax")
    assert res.feasible
    assert res.lower_bound == pytest.approx(1.0)


def test_xmax_anchor_on_scalar_example(sys1d, tube1d, pwa):
    res = RiskLP(sys1d, tube1d, 0.6, pwa).anchor("xmax")
    assert res.feasible
    assert res.lower_bound >= 0.6
    assert tube1d[0].contains(res.x_anchor, tol=1e-7)
    # anchor sits inside the DP-certified region
    assert DP_06_LO - GRID <= res.x_anchor[0] <= DP_06_HI + GRID


def test_xmax_empty_certificate_when_budget_unreachable(sys1d, tube1d, pwa):
    # the final tube box is too tight for a 0.99 requirement
    res = RiskLP(sys1d, tube1d, 0.99, pwa).anchor("xmax")
    assert res.status == "empty"
    assert res.x_anchor is None


def test_cheby_center_of_symmetric_box(pwa):
    sys = StochasticLTVSystem.lti(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.eye(2),
        np.zeros(2), 1e-6 * np.eye(2),
        box_polytope(np.zeros(2), np.ones(2)), 2)
    tube = viability_tube(2, 1.0, 2)
    res = RiskLP(sys, tube, 0.6, pwa).anchor("cheby")
    assert res.feasible
    np.testing.assert_allclose(res.x_anchor, [0.0, 0.0], atol=1e-6)
    assert res.radius == pytest.approx(1.0, abs=1e-6)


def test_cheby_matches_right_triangle_incenter(pwa):
    # legs on the axes, hypotenuse x + y <= 1; incircle radius
    # r = (a + b - c) / 2 with a = b = 1, c = sqrt(2)
    tri = HPolytope(normals=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                    offsets=np.array([0.0, 0.0, 1.0]))
    big = box_polytope(np.zeros(2), 100.0 * np.ones(2))
    sys = StochasticLTVSystem.lti(
        np.zeros((2, 2)), np.eye(2), np.zeros(2), 1e-8 * np.eye(2),
        box_polytope(np.zeros(2), np.ones(2)), 1)
    tube = TargetTube([tri, big])
    res = RiskLP(sys, tube, 0.6, pwa).anchor("cheby")
    r = (2.0 - np.sqrt(2.0)) / 2.0
    assert res.radius == pytest.approx(r, abs=1e-6)
    np.testing.assert_allclose(res.x_anchor, [r, r], atol=1e-6)


def test_cheby_scalar_example_dp_certified(sys1d, tube1d, pwa, dp1d):
    res = RiskLP(sys1d, tube1d, 0.6, pwa).anchor("cheby")
    assert res.feasible and res.radius > 0
    grid = dp1d.grids[0]
    i = int(np.argmin(np.abs(grid - res.x_anchor[0])))
    assert dp1d.values[0][i] >= 0.6 - 0.02


def test_line_search_endpoints_certified(sys1d, tube1d, pwa, dp1d):
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    grid = dp1d.grids[0]
    for d in (np.array([1.0]), np.array([-1.0])):
        ls = risk.line(anchor.x_anchor, d)
        assert ls.status == "optimal"
        assert ls.theta_star > 0
        assert ls.lower_bound >= 0.6 - 1e-9
        x = anchor.x_anchor + ls.theta_star * d
        i = int(np.argmin(np.abs(grid - x[0])))
        assert dp1d.values[0][i] >= 0.6 - 0.02


def test_line_search_outside_anchor_rejected(sys1d, tube1d, pwa):
    ls = RiskLP(sys1d, tube1d, 0.6, pwa).line(np.array([5.0]),
                                              np.array([1.0]))
    assert ls.theta_star == 0.0
    assert ls.status == "infeasible"


def test_line_search_monotone_in_alpha(sys1d, pwa):
    tube = viability_tube(1, 1.0, 5)
    thetas = {}
    for alpha in (0.6, 0.9):
        ls = RiskLP(sys1d, tube, alpha, pwa).line(np.zeros(1),
                                                  np.array([1.0]))
        thetas[alpha] = ls.theta_star
    assert thetas[0.9] <= thetas[0.6] + 1e-9


def test_budget_consistency(sys1d, tube1d, pwa):
    # the free-anchor LP: x0 = y with y unconstrained but for T_0
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    sol = risk._solve(np.zeros(1), np.eye(1))
    assert sol.status == "optimal"
    assert sol.deltas.sum() <= (1.0 - 0.6) + 1e-9
    assert np.all(sol.deltas >= risk.delta_lb - 1e-12)
    assert sol.lower_bound == pytest.approx(risk.anchor("xmax").lower_bound)


def test_near_deterministic_matches_robust_answer(pwa):
    # with vanishing noise the line search converges to the noise-free
    # reachability answer: from 0 the state can stay in [-1,1] iff
    # |x0| <= 1, so theta* ~ 1 along +1
    sys = StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), 1e-12 * np.eye(1),
        box_polytope(np.zeros(1), np.array([0.1])), 5)
    tube = viability_tube(1, 1.0, 5)
    ls = RiskLP(sys, tube, 0.8, pwa).line(np.zeros(1), np.array([1.0]))
    assert ls.theta_star == pytest.approx(1.0, abs=1e-6)


def test_conservatism_against_monte_carlo(sys1d, tube1d, pwa):
    # the certified lower bound never exceeds the empirical probability
    # beyond sampling error
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    ls = risk.line(anchor.x_anchor, np.array([1.0]))
    x = anchor.x_anchor + ls.theta_star * np.array([1.0])
    p, s = simulate_reach_prob(sys1d, tube1d, x, ls.U_star, 100_000, seed=0)
    assert p >= ls.lower_bound - 3 * s


def test_build_modes_validation(sys1d, tube1d, pwa):
    with pytest.raises(ValueError, match="alpha"):
        RiskLP(sys1d, tube1d, 1.2, pwa)
    with pytest.raises(ValueError, match="alpha"):
        RiskLP(sys1d, tube1d, 0.0, pwa)
    with pytest.raises(ValueError, match="horizon"):
        RiskLP(sys1d, viability_tube(1, 1.0, 4), 0.6, pwa)
    with pytest.raises(ValueError, match="dimension"):
        RiskLP(sys1d, viability_tube(2, 1.0, 5), 0.6, pwa)
    with pytest.raises(ValueError, match="anchor mode"):
        RiskLP(sys1d, tube1d, 0.6, pwa).anchor("bogus")


def test_controls_at_a_fixed_initial_state(sys1d, tube1d, pwa):
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    u = risk.controls(anchor.x_anchor)
    assert u.shape == (5,)
    assert np.all(np.abs(u) <= 0.1 + 1e-9)
    # far outside every tube set no input sequence keeps the risk budget
    assert risk.controls(np.array([5.0])) is None
