import numpy as np
import pytest

from tubereach import chance
from tubereach.chance import RiskLP, _interval_range
from tubereach.geometry import HPolytope, box_polytope
from tubereach.lpsolve import LinearProgram, LpSolution, solve_lp
from tubereach.montecarlo import simulate_reach_prob
from tubereach.sysmodel import (StochasticLTVSystem, TargetTube,
                                make_integrator_chain, viability_tube)

from oracles import concat_matrices

# Frozen oracle from the 0.01-grid dynamic program on the scalar example
# (tests/conftest.py fixtures): V0 >= 0.6 on [-0.495, 0.495].
DP_06_LO, DP_06_HI = -0.495, 0.495
GRID = 0.01


def test_risk_variable_count_scalar_example(sys1d, tube1d, pwa):
    risk = RiskLP(sys1d, tube1d, 0.8, pwa)
    # two half-spaces per step over five noisy steps
    assert risk.n_risk == 10
    assert len(risk.deterministic_rows) == 0
    # at a delta cap of 0.2 six pieces start at or above the cap
    assert len(risk.pieces) == len(pwa.pieces) - 6
    # each stochastic row appears once, each (row, kept piece) pair adds a
    # two-entry epigraph row, plus the shared budget; the box input set
    # goes to bounds.  Columns are [U | deltas | t].
    n_piece_rows = risk.n_risk * len(risk.pieces)
    assert risk.rows.shape == (risk.n_risk + n_piece_rows + 1,
                               risk.n_u + 2 * risk.n_risk)
    assert risk.rhs.size == risk.rows.shape[0]
    epigraph = risk.rows[risk.n_risk:risk.n_risk + n_piece_rows]
    assert np.all(np.diff(epigraph.indptr) == 2)


def test_kept_pieces_reproduce_the_envelope(sys1d, tube1d, pwa):
    for alpha in (0.5, 0.8, 0.9, 0.99):
        risk = RiskLP(sys1d, tube1d, alpha, pwa)
        grid = np.linspace(risk.delta_lb, risk.delta_cap, 20_001)
        kept = np.max([m * grid + c for m, c in risk.pieces], axis=0)
        np.testing.assert_allclose(kept, pwa.envelope(grid), rtol=0,
                                   atol=1e-12)
    assert len(RiskLP(sys1d, tube1d, 0.9, pwa).pieces) == len(pwa) - 11


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
        assert ls.status == "ok"
        assert ls.theta > 0
        assert ls.lower_bound >= 0.6 - 1e-9
        x = ls.point
        np.testing.assert_array_equal(x, anchor.x_anchor + ls.theta * d)
        i = int(np.argmin(np.abs(grid - x[0])))
        assert dp1d.values[0][i] >= 0.6 - 0.02


def test_line_search_outside_anchor_rejected(sys1d, tube1d, pwa):
    ls = RiskLP(sys1d, tube1d, 0.6, pwa).line(np.array([5.0]),
                                              np.array([1.0]))
    assert ls.theta == 0.0
    assert ls.status == "infeasible"


def test_line_search_monotone_in_alpha(sys1d, pwa):
    tube = viability_tube(1, 1.0, 5)
    thetas = {}
    for alpha in (0.6, 0.9):
        ls = RiskLP(sys1d, tube, alpha, pwa).line(np.zeros(1),
                                                  np.array([1.0]))
        thetas[alpha] = ls.theta
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
    assert ls.theta == pytest.approx(1.0, abs=1e-6)


def test_conservatism_against_monte_carlo(sys1d, tube1d, pwa):
    # the certified lower bound never exceeds the empirical probability
    # beyond sampling error
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    ls = risk.line(anchor.x_anchor, np.array([1.0]))
    p, s = simulate_reach_prob(sys1d, tube1d, ls.point, ls.U, 100_000,
                               seed=0)
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


def copied_rows_solve(sys, tube, alpha, pwa, c, E, y_lo=-np.inf,
                      radius=False, maximize=False):
    """The risk LP in its former shape, dense: every stochastic tube row
    copied once per PWA piece, x0 = c + E y, inputs as rows.  Returns
    the solution over [U | deltas | y | radius]."""
    cd = concat_matrices(sys)
    n, n_u = sys.state_dim, sys.input_dim * sys.horizon
    cov, mean = cd.G @ cd.CW @ cd.G.T, cd.G @ cd.muW
    stochastic, deterministic = [], []
    for k in range(1, sys.horizon + 1):
        s = slice((k - 1) * n, k * n)
        for p, q in zip(tube[k].normals, tube[k].offsets):
            sigma = np.sqrt(max(p @ cov[s, s] @ p, 0.0))
            row = (p @ cd.H[s], p @ cd.Acal[s] @ E, q - p @ mean[s]
                   - p @ cd.Acal[s] @ c, sigma)
            (stochastic if sigma >= 1e-12 else deterministic).append(row)
    nr, n_y = len(stochastic), E.shape[1]
    width = n_u + nr + n_y + int(radius)
    rows, rhs = [], []

    def add(u=None, delta=None, y=None, r=0.0, b=0.0):
        a = np.zeros(width)
        if u is not None:
            a[:n_u] = u
        if delta is not None:
            a[n_u:n_u + nr] = delta
        if y is not None:
            a[n_u + nr:n_u + nr + n_y] = y
        if radius:
            a[-1] = r
        rows.append(a)
        rhs.append(b)

    for slope, intercept in pwa.pieces:
        for i, (hu, hx, b, sigma) in enumerate(stochastic):
            add(u=hu, delta=sigma * slope * np.eye(nr)[i], y=hx,
                b=b - sigma * intercept)
    for hu, hx, b, _ in deterministic:
        add(u=hu, y=hx, b=b)
    add(delta=np.ones(nr), b=1.0 - alpha)
    m = sys.input_dim
    for k in range(sys.horizon):
        for a, b in zip(sys.input_set.normals, sys.input_set.offsets):
            u = np.zeros(n_u)
            u[k * m:(k + 1) * m] = a
            add(u=u, b=b)
    if n_y:
        for a, b in zip(tube[0].normals, tube[0].offsets):
            add(y=a @ E, r=np.linalg.norm(a), b=b - a @ c)
    cap = min(pwa.domain[1], 1.0 - alpha)
    bounds = [(-np.inf, np.inf)] * n_u + [(pwa.domain[0], cap)] * nr \
        + [(y_lo, np.inf)] * n_y + [(0.0, np.inf)] * int(radius)
    objective = np.zeros(width)
    if maximize:
        objective[-1] = -1.0
    else:
        objective[n_u:n_u + nr] = 1.0
    sol = solve_lp(LinearProgram(objective=objective,
                                 ineq=(np.array(rows), np.array(rhs)),
                                 bounds=bounds))
    assert sol.optimal, sol.status
    return sol.z[:n_u], sol.z[n_u:n_u + nr], sol.z[n_u + nr:]


def hexagon_input_system():
    """2-D system whose second coordinate is noise-free (deterministic
    tube rows) and whose input set is a hexagon (input rows); T_0 sits
    off centre, so the Chebyshev radius is set by the risk rows."""
    rng = np.random.default_rng(5)
    a = np.array([[1.0, 0.1], [0.0, 0.9]]) \
        + np.triu(0.05 * rng.standard_normal((2, 2)))
    b = 0.5 * rng.standard_normal((2, 2))
    angles = np.pi / 3 * np.arange(6)
    hexagon = HPolytope(np.stack([np.cos(angles), np.sin(angles)], axis=1),
                        np.full(6, 0.2))
    sys = StochasticLTVSystem.lti(a, b, np.zeros(2), np.diag([0.05, 0.0]),
                                  hexagon, 4)
    later = viability_tube(2, 1.0, 4, terminal_half_width=0.5).sets[1:]
    return sys, TargetTube([box_polytope([1.2, 0.0], [1.0, 1.0])] + later)




def room_at_delta_lb(sys, tube, pwa, x0, U):
    """rhs - mean - sigma envelope(delta_lb) of each stochastic tube row
    at (x0, U), in the risk LP's row order (step, then face)."""
    cd = concat_matrices(sys)
    n = sys.state_dim
    cov = cd.G @ cd.CW @ cd.G.T
    mean = cd.Acal @ x0 + cd.H @ U + cd.G @ cd.muW
    room = []
    for k in range(1, sys.horizon + 1):
        s = slice((k - 1) * n, k * n)
        for p, q in zip(tube[k].normals, tube[k].offsets):
            sigma = np.sqrt(max(p @ cov[s, s] @ p, 0.0))
            if sigma >= 1e-12:
                room.append(q - p @ mean[s]
                            - sigma * pwa.envelope(pwa.domain[0]))
    return np.array(room)


def line_lp_rows(monkeypatch):
    """Row counts of the LPs that chance.solve_lp receives from now on."""
    counts = []

    def solve(lp):
        counts.append(lp.ineq[0].shape[0])
        return solve_lp(lp)
    monkeypatch.setattr(chance, "solve_lp", solve)
    return counts


def chain_system(n):
    """Integrator chain in a wide box tube, as in the integrator40
    example: most tail conditions have room to spare along a slice."""
    return make_integrator_chain(n, 0.1, 5, 0.01, 1.0), \
        viability_tube(n, 10.0, 5, terminal_half_width=8.0)


@pytest.mark.parametrize("example", ["scalar", "hexagon", "chain"])
def test_epigraph_matches_copied_rows(example, sys1d, tube1d, pwa,
                                      monkeypatch):
    sys, tube = {"scalar": lambda: (sys1d, tube1d),
                 "hexagon": hexagon_input_system,
                 "chain": lambda: chain_system(6)}[example]()
    n = sys.state_dim
    risk = RiskLP(sys, tube, 0.6, pwa)
    if example == "hexagon":
        assert risk.deterministic_rows and risk.n_risk
        assert sys.input_set.as_box_bounds() is None

    solves = line_lp_rows(monkeypatch)
    full = risk.rows.shape[0] + tube[0].n_rows
    xmax = risk.anchor("xmax")
    xmax_solves = len(solves)
    # the xmax anchor has no trial
    assert solves == [full]
    _, deltas, _ = copied_rows_solve(sys, tube, 0.6, pwa, np.zeros(n),
                                     np.eye(n))
    assert xmax.feasible
    assert xmax.lower_bound == pytest.approx(1.0 - deltas.sum(), abs=1e-7)

    cheby = risk.anchor("cheby")
    cheby_solves = len(solves) - xmax_solves
    _, _, extra = copied_rows_solve(sys, tube, 0.6, pwa, np.zeros(n),
                                    np.eye(n), radius=True, maximize=True)
    assert cheby.feasible
    assert cheby.radius == pytest.approx(extra[-1], abs=1e-7)
    if example == "hexagon":
        assert 0.1 < cheby.radius < 0.9
    # a Chebyshev anchor of one solve is the trial's: every row it drops
    # holds at delta_lb, with no tolerance; otherwise the full LP was
    # solved too
    assert risk._pinned is not None
    assert cheby_solves in (1, 2)
    if cheby_solves == 1:
        room = room_at_delta_lb(sys, tube, pwa, cheby.x_anchor, cheby.U)
        assert np.all(room[risk._pinned] >= 0.0)
    else:
        assert solves[-1] == full

    # between the two anchors, so every direction has room to move; above
    # two dimensions the directions lie in the (x0, x1) slice
    origin = 0.5 * (xmax.x_anchor + cheby.x_anchor)
    angles = np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.3
    directions = [np.array([1.0]), np.array([-1.0])] if n == 1 else \
        [np.concatenate([[np.cos(t), np.sin(t)], np.zeros(n - 2)])
         for t in angles]
    for d in directions:
        ls = risk.line(origin, d)
        _, _, extra = copied_rows_solve(sys, tube, 0.6, pwa, origin,
                                        d[:, None], y_lo=0.0, maximize=True)
        assert ls.status == "ok"
        assert ls.theta > 0.0
        assert ls.theta == pytest.approx(extra[0], abs=1e-7)
        assert ls.lower_bound >= 0.6 - 1e-9
    rows = solves[xmax_solves + cheby_solves:]
    assert len(rows) == len(directions) and max(rows) <= full
    if example == "chain":
        # the windows drop rows on every direction
        assert max(rows) < full


def test_line_lp_keeps_only_rows_that_can_bind(pwa, monkeypatch):
    sys, tube = chain_system(40)
    risk = RiskLP(sys, tube, 0.6, pwa)
    start = np.zeros(40)
    d = np.zeros(40)
    d[:2] = [np.cos(0.4), np.sin(0.4)]
    rows = line_lp_rows(monkeypatch)
    ls = risk.line(start, d)
    assert len(rows) == 1 and rows[0] < risk.rows.shape[0] / 10
    assert ls.status == "ok" and ls.theta > 0.0
    assert ls.lower_bound >= 0.6 - 1e-9
    # the full LP: every window [delta_lb, cap], every row kept
    monkeypatch.setattr(risk, "_windows", lambda *_: (
        np.full(risk.n_risk, risk.delta_lb),
        np.full(risk.n_risk, risk.delta_cap),
        np.ones(risk.rhs.size, dtype=bool)))
    full = risk.line(start, d)
    assert rows[1] == risk.rows.shape[0] + tube[0].n_rows
    assert ls.theta == pytest.approx(full.theta, abs=1e-7)


def test_chain_anchor_is_one_small_trial(pwa, monkeypatch):
    sys, tube = chain_system(40)
    risk = RiskLP(sys, tube, 0.6, pwa)
    rows = line_lp_rows(monkeypatch)
    cheby = risk.anchor("cheby")
    assert len(rows) == 1 and rows[0] < risk.rows.shape[0] / 10
    assert cheby.feasible and cheby.lower_bound >= 0.6 - 1e-9
    # the full LP, without the trial, has the same radius
    monkeypatch.setattr(risk, "_pinned", None)
    full = risk.anchor("cheby")
    assert rows[1] == risk.rows.shape[0] + tube[0].n_rows
    assert cheby.radius == pytest.approx(full.radius, abs=1e-7)


def dubins_example():
    from tubereach.cli import _EXAMPLES, _instantiate
    sys, tube, _, pwa = _instantiate(_EXAMPLES["dubins"])
    return sys, tube, pwa


def test_rejected_trial_falls_back_to_the_full_lp(monkeypatch):
    sys, tube, pwa = dubins_example()
    risk = RiskLP(sys, tube, 0.8, pwa)
    assert risk._pinned is not None
    rows = line_lp_rows(monkeypatch)
    monkeypatch.setattr(risk, "_pinned_rows_hold", lambda *_: False)
    cheby = risk.anchor("cheby")
    full = risk.rows.shape[0] + tube[0].n_rows
    assert len(rows) == 2 and rows[0] < rows[1] == full
    # the anchor of the full LP alone, as without the trial
    monkeypatch.setattr(risk, "_pinned", None)
    alone = risk.anchor("cheby")
    assert rows[2:] == [full]
    np.testing.assert_array_equal(cheby.x_anchor, alone.x_anchor)
    np.testing.assert_array_equal(cheby.U, alone.U)
    assert (cheby.lower_bound, cheby.radius) == \
        (alone.lower_bound, alone.radius)


def fake_trial(monkeypatch, status):
    """Row counts of the LPs solved from now on; the first, the trial,
    ends with the given status unsolved."""
    rows = []

    def fails_first(lp):
        rows.append(lp.ineq[0].shape[0])
        if len(rows) == 1:
            return LpSolution(status=status)
        return solve_lp(lp)
    monkeypatch.setattr(chance, "solve_lp", fails_first)
    return rows


def test_trial_without_verdict_falls_back(sys2d, tube2d, pwa, monkeypatch):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    assert risk._pinned is not None
    rows = fake_trial(monkeypatch, "iteration_limit")
    anchor = risk.anchor("cheby")
    assert anchor.status == "optimal"
    assert len(rows) == 2 and rows[0] < rows[1]
    assert rows[1] == risk.rows.shape[0] + tube2d[0].n_rows


def test_infeasible_trial_is_the_verdict(sys2d, tube2d, pwa, monkeypatch):
    # the trial is a relaxation, so its infeasibility is the full LP's
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    rows = fake_trial(monkeypatch, "infeasible")
    anchor = risk.anchor("cheby")
    assert anchor.status == "empty" and anchor.x_anchor is None
    assert len(rows) == 1 and rows[0] < risk.rows.shape[0] + tube2d[0].n_rows


def test_unbounded_ray_matches_the_oracle(sys1d, pwa, monkeypatch):
    # T_0 becomes the half-line x >= -1, so the ray along +1 never leaves
    # it (TargetTube itself asks for bounded sets; the windows must not
    # depend on that)
    tube = TargetTube([box_polytope(np.zeros(1), np.array([0.5]))] * 6)
    tube.sets[0] = HPolytope(normals=np.array([[-1.0]]),
                             offsets=np.array([1.0]))
    risk = RiskLP(sys1d, tube, 0.6, pwa)
    rows = line_lp_rows(monkeypatch)
    # x0 is free at the anchor, so every row can bind there
    assert risk.anchor("xmax").feasible
    assert rows == [risk.rows.shape[0] + tube[0].n_rows]
    d = np.array([1.0])
    assert tube[0].ray_exit(np.zeros(1), d) == np.inf
    for sign in (1.0, -1.0):
        ls = risk.line(np.zeros(1), sign * d)
        _, _, extra = copied_rows_solve(sys1d, tube, 0.6, pwa, np.zeros(1),
                                        sign * d[:, None], y_lo=0.0,
                                        maximize=True)
        assert ls.status == "ok" and ls.theta > 0.0
        assert ls.theta == pytest.approx(extra[0], abs=1e-7)
        assert ls.lower_bound >= 0.6 - 1e-9
    # the opposite ray leaves T_0, and its LP drops rows
    assert rows[-1] < rows[0]


def test_interval_range_never_nan():
    coef = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 1.0]])
    lo, hi = np.array([-np.inf, 0.0]), np.array([1.0, np.inf])
    least, most = _interval_range(coef, lo, hi)
    np.testing.assert_array_equal(least, [0.0, -np.inf, 0.0, -1.0])
    np.testing.assert_array_equal(most, [np.inf, 1.0, 0.0, np.inf])


def test_windows_nan_free_when_unbounded(pwa):
    sys, tube = chain_system(2)
    # without its lower face the input set is unbounded (the system's own
    # constructor rejects this; the windows must not depend on it)
    sys.input_set = HPolytope(normals=np.array([[1.0]]),
                              offsets=np.array([1.0]))
    risk = RiskLP(sys, tube, 0.6, pwa)
    assert np.isneginf(risk._u_range[0]).any()
    d = np.array([[1.0], [0.0]])
    for y_hi in (0.5, np.inf):
        low, need, keep = risk._windows(risk._x0 @ d, risk._x0 @ np.zeros(2),
                                        0.0, y_hi)
        assert np.all(np.isfinite(low)) and np.all(np.isfinite(need))
        assert np.all((risk.delta_lb <= low) & (low <= need)
                      & (need <= risk.delta_cap))
        assert keep.any()
    ls = risk.line(np.zeros(2), d[:, 0])
    assert ls.status == "ok" and ls.theta > 0.0


@pytest.mark.parametrize("example", ["hexagon", "planar"])
def test_kept_pieces_reproduce_the_envelope_on_each_window(example, sys2d,
                                                           tube2d, pwa):
    sys, tube = hexagon_input_system() if example == "hexagon" \
        else (sys2d, tube2d)
    risk = RiskLP(sys, tube, 0.6, pwa)
    slopes, intercepts = np.array(risk.pieces).T
    nr, n_det = risk.n_risk, len(risk.deterministic_rows)
    start = risk.anchor("cheby").x_anchor
    dropped = narrowed = raised = False
    for angle in np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.3:
        d = np.array([np.cos(angle), np.sin(angle)])
        low, need, keep = risk._windows(risk._x0 @ d[:, None],
                                        risk._x0 @ start, 0.0,
                                        tube[0].ray_exit(start, d))
        pieces = keep[nr + n_det:nr + n_det + slopes.size * nr]
        pieces = pieces.reshape(-1, nr)
        binds = keep[:nr]
        dropped |= not binds.all()
        narrowed |= (need[binds] < risk.delta_cap).any()
        raised |= (low[binds] > risk.delta_lb).any()
        for i in np.flatnonzero(binds):
            grid = np.linspace(low[i], need[i], 501)
            kept = np.max(slopes[pieces[:, i], None] * grid
                          + intercepts[pieces[:, i], None], axis=0)
            np.testing.assert_allclose(kept, pwa.envelope(grid), rtol=0,
                                       atol=1e-12)
        # a dropped row has room at delta_lb for every step and input
        assert np.all(need[~binds] == risk.delta_lb)
    # rows are dropped, and windows end inside the domain on both sides
    assert dropped and narrowed and raised
