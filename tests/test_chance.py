import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import ndtri

from tubereach import chance, lpsolve
from tubereach.chance import RiskLP, _interval_max
from tubereach.cli import _EXAMPLES, _instantiate
from tubereach.gaussian import build_pwa_quantile
from tubereach.geometry import HPolytope, box_polytope, spread_directions
from tubereach.lpsolve import LpModel, LpSolution, highs_solve
from tubereach.montecarlo import simulate_reach_probs
from tubereach.reachalgo import (CHAIN_LENGTH, ReachSetResult,
                                 compute_reach_set)
from tubereach.sysmodel import (StochasticLTVSystem, TargetTube,
                                make_integrator_chain, viability_tube)

from oracles import concat_matrices, scipy_model_arrays, scipy_risk_table

# Frozen oracle from the 0.01-grid dynamic program on the scalar example
# (tests/conftest.py fixtures): V0 >= 0.6 on [-0.495, 0.495].
DP_06_LO, DP_06_HI = -0.495, 0.495
GRID = 0.01


def line(risk, anchor, direction):
    """The boundary point of a chain of one direction."""
    (point,) = risk.lines(anchor, [direction])
    return point


def n_deterministic(risk, tube):
    """The number of deterministic tube rows of risk: the faces of
    T_1..T_N that are not stochastic rows."""
    return sum(tube[k].n_rows for k in range(1, tube.horizon + 1)) \
        - risk.n_risk


def test_risk_variable_count_scalar_example(sys1d, tube1d, pwa):
    risk = RiskLP(sys1d, tube1d, 0.8, pwa)
    # two half-spaces per step over five noisy steps
    assert risk.n_risk == 10
    assert n_deterministic(risk, tube1d) == 0
    # at a delta cap of 0.2 six pieces start at or above the cap
    assert len(risk.pieces) == len(pwa.pieces) - 6
    # each stochastic row appears once, then the shared budget and T_0's
    # rows; the box input set goes to bounds.  Columns are [U |
    # segments], one segment per (row, kept piece), each in its row and
    # in the budget.
    n_segments = risk.n_risk * len(risk.pieces)
    assert risk.rows.shape == (risk.n_risk + 1 + tube1d[0].n_rows,
                               risk.n_u + n_segments)
    assert risk.rhs.size == risk.rows.shape[0]
    segments = risk.rows.tocsc()[:, risk.n_u:]
    assert np.all(np.diff(segments.indptr) == 2)
    assert np.all(segments.indices.reshape(-1, 2)
                  == [[i, risk.n_risk] for i in range(risk.n_risk)
                      for _ in risk.pieces])


def test_kept_pieces_reproduce_the_envelope(sys1d, tube1d, pwa):
    for alpha in (0.5, 0.8, 0.9, 0.99):
        risk = RiskLP(sys1d, tube1d, alpha, pwa)
        grid = np.linspace(risk.delta_lb, risk.delta_cap, 20_001)
        kept = np.max([m * grid + c for m, c in risk.pieces], axis=0)
        np.testing.assert_allclose(kept, pwa.envelope(grid), rtol=0,
                                   atol=1e-12)
    assert len(RiskLP(sys1d, tube1d, 0.9, pwa).pieces) == len(pwa) - 11


def segment_envelope(risk, delta, upper=None):
    """envelope(delta_lb) plus each piece's slope times its segment
    filled up to delta, steepest first, each segment clipped at upper
    (its length by default)."""
    slopes = np.array(risk.pieces)[:, 0]
    lengths = np.diff(risk._knots) if upper is None else upper
    fill = np.clip(np.asarray(delta)[..., None] - risk._knots[:-1], 0.0,
                   lengths)
    return risk._knot_env[0] + fill @ slopes


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.99])
def test_segments_bound_the_quantile_within_tol(sys1d, tube1d, pwa, alpha):
    # summed from env(delta_lb) as computed, without RiskLP's margin, the
    # segment form lands an ulp or two below the quantile on the last three
    for env in [pwa, build_pwa_quantile(1e-9),
                build_pwa_quantile(1e-15, tol=3e-4), build_pwa_quantile(1e-30)]:
        risk = RiskLP(sys1d, tube1d, alpha, env)
        grid = np.exp(np.linspace(np.log(risk.delta_lb),
                                  np.log(risk.delta_cap), 20_001))
        value = segment_envelope(risk, grid)
        assert np.all(value >= -ndtri(grid))
        assert np.all(value <= -ndtri(grid) + env.tol + 1e-9)


def test_any_fill_of_the_segments_overestimates_the_envelope(
        sys1d, tube1d, pwa):
    # a row that holds for some fill of its segments holds under the
    # envelope at delta_lb plus their sum: the steepest-first fill is the
    # envelope and is the least
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    slopes = np.array(risk.pieces)[:, 0]
    lengths = np.diff(risk._knots)
    rng = np.random.default_rng(7)
    for _ in range(500):
        fill = lengths * rng.uniform(size=lengths.size) \
            * (rng.uniform(size=lengths.size) < 0.3)
        delta = risk.delta_lb + fill.sum()
        value = risk._knot_env[0] + slopes @ fill
        assert value >= pwa.envelope(delta) - 1e-12
        assert value >= segment_envelope(risk, delta) - 1e-12
    # the shallowest-first fill of the same risk, against steepest-first
    delta = risk.delta_lb + 0.5 * lengths.sum()
    reverse = np.clip(delta - risk.delta_lb
                      - np.cumsum(lengths[::-1]) + lengths[::-1], 0.0,
                      lengths[::-1])[::-1]
    assert reverse.sum() == pytest.approx(delta - risk.delta_lb)
    assert risk._knot_env[0] + slopes @ reverse \
        > segment_envelope(risk, delta) + 0.1
    assert segment_envelope(risk, delta) >= -ndtri(delta)


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
    assert n_deterministic(risk, tube) == 6
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
        ls = line(risk, anchor.x_anchor, d)
        assert ls.status == "ok"
        assert ls.theta > 0
        assert ls.lower_bound >= 0.6 - 1e-9
        x = ls.point
        np.testing.assert_array_equal(x, anchor.x_anchor + ls.theta * d)
        i = int(np.argmin(np.abs(grid - x[0])))
        assert dp1d.values[0][i] >= 0.6 - 0.02


def test_line_search_outside_anchor_rejected(sys1d, tube1d, pwa):
    ls = line(RiskLP(sys1d, tube1d, 0.6, pwa), np.array([5.0]),
              np.array([1.0]))
    assert ls.theta == 0.0
    assert ls.status == "infeasible"


def test_line_search_monotone_in_alpha(sys1d, pwa):
    tube = viability_tube(1, 1.0, 5)
    thetas = {}
    for alpha in (0.6, 0.9):
        ls = line(RiskLP(sys1d, tube, alpha, pwa), np.zeros(1),
                  np.array([1.0]))
        thetas[alpha] = ls.theta
    assert thetas[0.9] <= thetas[0.6] + 1e-9


def test_budget_consistency(sys1d, tube1d, pwa, monkeypatch):
    # the free-anchor LP that anchor("xmax") solves: x0 = y with y
    # unconstrained but for T_0
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    solutions, solution = [], risk._solution

    def spy_solution(*args):
        solutions.append(solution(*args))
        return solutions[-1]
    monkeypatch.setattr(risk, "_solution", spy_solution)
    anchor = risk.anchor("xmax")
    [sol] = solutions
    assert sol.status == "optimal"
    assert sol.deltas.sum() <= (1.0 - 0.6) + 1e-9
    assert np.all(sol.deltas >= risk.delta_lb - 1e-12)
    assert sol.lower_bound == pytest.approx(anchor.lower_bound)


def test_near_deterministic_matches_robust_answer(pwa):
    # with vanishing noise the line search converges to the noise-free
    # reachability answer: from 0 the state can stay in [-1,1] iff
    # |x0| <= 1, so theta* ~ 1 along +1
    sys = StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), 1e-12 * np.eye(1),
        box_polytope(np.zeros(1), np.array([0.1])), 5)
    tube = viability_tube(1, 1.0, 5)
    ls = line(RiskLP(sys, tube, 0.8, pwa), np.zeros(1), np.array([1.0]))
    assert ls.theta == pytest.approx(1.0, abs=1e-6)


def test_conservatism_against_monte_carlo(sys1d, tube1d, pwa):
    # the certified lower bound never exceeds the empirical probability
    # beyond sampling error
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    ls = line(risk, anchor.x_anchor, np.array([1.0]))
    (p,), (s,), _ = simulate_reach_probs(sys1d, tube1d, [ls.point], [ls.U],
                                         100_000, seed=0)
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


class CopiedRows:
    """The risk LP in its former shape: every stochastic tube row copied
    once per PWA piece, inputs as rows, moments from the stacked
    dynamics, and x0 = c + E y."""

    def __init__(self, sys, tube, alpha, pwa):
        cd = concat_matrices(sys)
        n, n_u = sys.state_dim, sys.input_dim * sys.horizon
        cov, mean = cd.G @ cd.CW @ cd.G.T, cd.G @ cd.muW
        stochastic, deterministic = [], []
        for k in range(1, sys.horizon + 1):
            s = slice((k - 1) * n, k * n)
            for p, q in zip(tube[k].normals, tube[k].offsets):
                sigma = np.sqrt(max(p @ cov[s, s] @ p, 0.0))
                row = (p @ cd.H[s], p @ cd.Acal[s], q - p @ mean[s], sigma)
                (stochastic if sigma >= 1e-12 else deterministic).append(row)

        def stack(rows, widths):
            """The fields of rows as arrays, one row per tube row."""
            return [np.array([r[j] for r in rows], dtype=float)
                    .reshape(len(rows), w) for j, w in enumerate(widths)]
        hu, hx, b, sigma = stack(stochastic, (n_u, n, 1, 1))
        du, dx, db = stack(deterministic, (n_u, n, 1))
        b, sigma = b.ravel(), sigma.ravel()
        # (x0 coefficients, U coefficients, rhs[, sigma]) of each group
        self.stochastic = (hx, hu, b, sigma)
        self.deterministic = (dx, du, db.ravel())
        self.n_u, self.nr = n_u, len(stochastic)
        nr = self.nr
        # [U | deltas] of each row but T_0's, then its x0 coefficients
        # and rhs at x0 = 0
        u_rows = [[sp.csr_array(hu), sp.diags_array(sigma * slope)]
                  for slope, _ in pwa.pieces]
        u_rows += [[sp.csr_array(du), sp.csr_array((len(db), nr))],
                   [sp.csr_array((1, n_u)), sp.csr_array(np.ones((1, nr)))]]
        x0_rows = [hx] * len(pwa.pieces) + [dx, np.zeros((1, n))]
        rhs = [b - sigma * c for _, c in pwa.pieces] \
            + [db.ravel(), [1.0 - alpha]]
        if sys.input_dim:
            inputs = sp.block_diag([sys.input_set.normals] * sys.horizon)
            u_rows.append([inputs, sp.csr_array((inputs.shape[0], nr))])
            x0_rows.append(np.zeros((inputs.shape[0], n)))
            rhs.append(np.tile(sys.input_set.offsets, sys.horizon))
        self.rows = sp.block_array(u_rows, format="csr")
        self.tube = tube
        # the x0 coefficients of every row, T_0's last
        self.x0_rows = np.vstack(x0_rows + [tube[0].normals])
        self.rhs = np.concatenate(rhs + [tube[0].offsets])
        self.delta_bounds = (pwa.domain[0], min(pwa.domain[1], 1.0 - alpha))

    def program(self, c, E, y_lo=-np.inf, radius=False, maximize=False):
        """The LP over [U | deltas | y | radius]."""
        n_y, n_r, t0 = E.shape[1], int(radius), self.tube[0]
        ball = np.linalg.norm(t0.normals, axis=1)[:, None][:, :n_r]
        n_rest = self.rows.shape[0]
        matrix = sp.hstack(
            [sp.vstack([self.rows,
                        sp.csr_array((t0.n_rows, self.rows.shape[1]))]),
             sp.csr_array(self.x0_rows @ E),
             sp.csr_array(np.vstack([np.zeros((n_rest, n_r)), ball]))],
            format="csr")
        bounds = [(-np.inf, np.inf)] * self.n_u \
            + [self.delta_bounds] * self.nr + [(y_lo, np.inf)] * n_y \
            + [(0.0, np.inf)] * n_r
        objective = np.zeros(len(bounds))
        if maximize:
            objective[-1] = -1.0
        else:
            objective[self.n_u:self.n_u + self.nr] = 1.0
        return LpModel(objective, matrix, self.rhs - self.x0_rows @ c,
                       bounds=bounds)

    def solve(self, c, E, y_lo=-np.inf, radius=False, maximize=False):
        """The solution over [U | deltas | y | radius], solved cold."""
        sol = highs_solve(self.program(c, E, y_lo, radius, maximize))
        assert sol.optimal, sol.status
        k = self.n_u + self.nr
        return sol.z[:self.n_u], sol.z[self.n_u:k], sol.z[k:]

    def steps(self, anchor, directions):
        """The maximal step along each direction from the anchor: one
        model re-solved per direction with its y column changed.  Each
        step is the optimum of its own LP, so solving from the last
        basis changes only the time it takes."""
        model = self.program(anchor, directions[0][:, None], y_lo=0.0,
                             maximize=True)
        rows = np.arange(self.rhs.size)
        for d in directions:
            model.change_column(model.n_vars - 1, rows, self.x0_rows @ d)
            sol = highs_solve(model)
            assert sol.optimal, sol.status
            yield sol.z[-1]


def assert_rows_close(actual, expected):
    """Each row of the matrix actual within 1e-12 of expected, relative
    to the largest entry of that row of expected."""
    actual, expected = np.atleast_2d(actual), np.atleast_2d(expected)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max(axis=1, initial=0.0)[:, None]
    assert np.all(np.abs(actual - expected) <= 1e-12 * scale)


def five_systems(example, sys1d, tube1d):
    """(system, tube) of each system the row-table tests cover."""
    return {"scalar": lambda: (sys1d, tube1d),
            "hexagon": hexagon_input_system,
            "chain": lambda: chain_system(6),
            "cwh": lambda: _instantiate(_EXAMPLES["cwh"])[:2],
            "dubins": lambda: _instantiate(_EXAMPLES["dubins"])[:2]
            }[example]()


@pytest.mark.parametrize("example",
                         ["scalar", "hexagon", "chain", "cwh", "dubins"])
def test_row_table_matches_copied_rows(example, sys1d, tube1d, pwa):
    sys, tube = five_systems(example, sys1d, tube1d)
    risk = RiskLP(sys, tube, 0.8, pwa)
    oracle = CopiedRows(sys, tube, 0.8, pwa)
    nr, n_u = risk.n_risk, risk.n_u
    n_tube = nr + n_deterministic(risk, tube)
    assert nr == oracle.nr
    if example == "hexagon":
        assert n_tube > nr
    # the tube rows, stochastic first, each group in (step, face) order;
    # a stochastic row's rhs is taken at delta_lb
    u = risk.rows[:n_tube, :n_u].toarray()
    hx, hu, b, sigma = oracle.stochastic
    dx, du, db = oracle.deterministic
    assert_rows_close(risk._x0[:nr], hx)
    assert_rows_close(risk._x0[nr:n_tube], dx)
    assert_rows_close(u[:nr], hu)
    assert_rows_close(u[nr:], du)
    np.testing.assert_allclose(risk._sigma, sigma, rtol=1e-12, atol=0)
    np.testing.assert_allclose(risk._rhs_risk, b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(risk.rhs[:nr],
                               b - sigma * pwa.envelope(risk.delta_lb),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(risk.rhs[nr:n_tube], db, rtol=1e-12, atol=0)
    # T_0's rows close the table, the only ones with a ball norm
    t0 = tube[0]
    np.testing.assert_array_equal(risk._x0[-t0.n_rows:], t0.normals)
    np.testing.assert_array_equal(risk.rhs[-t0.n_rows:], t0.offsets)
    assert risk.rows[-t0.n_rows:].nnz == 0
    np.testing.assert_array_equal(
        risk._ball, np.concatenate([np.zeros(risk.rhs.size - t0.n_rows),
                                    np.linalg.norm(t0.normals, axis=1)]))


# passModel's arguments, in order
PASS_MODEL_ARGS = ("num_col", "num_row", "num_nz", "a_format", "sense",
                   "offset", "col_cost", "col_lower", "col_upper",
                   "row_lower", "row_upper", "a_start", "a_index", "a_value",
                   "integrality")


def passed_models(monkeypatch):
    """The arguments of every passModel call from now on, by name, one
    dict a model."""
    passed = []

    class Recording(lpsolve._core._Highs):
        def passModel(self, *args):
            passed.append(dict(zip(PASS_MODEL_ARGS, args)))
            return super().passModel(*args)
    monkeypatch.setattr(lpsolve._core, "_Highs", Recording)
    return passed


@pytest.mark.parametrize("example",
                         ["scalar", "hexagon", "chain", "cwh", "dubins"])
def test_models_reach_highs_as_the_scipy_assembly_built_them(
        example, sys1d, tube1d, pwa, monkeypatch):
    sys, tube = five_systems(example, sys1d, tube1d)
    risk = RiskLP(sys, tube, 0.6, pwa)
    table = scipy_risk_table(sys, tube, risk)
    # the column-wise table holds the stacked table's entries in the same
    # order: rows ascending within each column, and no explicit zero
    stacked = table.tocsc()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(risk.rows, name),
                                      getattr(stacked, name))
    assert risk.rows.shape == table.shape
    starts, ends = risk.rows.indptr[:-1], risk.rows.indptr[1:]
    assert all(np.all(np.diff(risk.rows.indices[a:b]) > 0)
               for a, b in zip(starts, ends))
    assert np.all(risk.rows.data != 0.0)
    # every model built: the Chebyshev trial (where there is one), the
    # full anchor LP, then one chain
    built = []
    model = risk._model

    def spy_model(*args, **kwargs):
        built.append((args, kwargs))
        return model(*args, **kwargs)
    monkeypatch.setattr(risk, "_model", spy_model)
    monkeypatch.setattr(risk, "_pinned_rows_hold", lambda *_: False)
    passed = passed_models(monkeypatch)
    anchor = risk.anchor("cheby")
    assert anchor.feasible
    directions = spread_directions(
        8, tube.dim, None if tube.dim <= 2 else (0, 1)).directions
    assert any(bp.status == "ok"
               for bp in risk.lines(anchor.x_anchor, directions))
    assert len(built) == len(passed) == 2 + (risk._pinned is not None)
    # HiGHS receives exactly the arrays of the stacked assembly
    for (args, kwargs), handed in zip(built, passed):
        want = scipy_model_arrays(risk, table, *args, **kwargs)
        for name, value in want.items():
            np.testing.assert_array_equal(handed[name], value,
                                          err_msg=name)
        assert handed["a_start"].dtype == handed["a_index"].dtype \
            == np.int32


def copied_rows_solve(sys, tube, alpha, pwa, c, E, y_lo=-np.inf,
                      radius=False, maximize=False):
    """One cold solve of :class:`CopiedRows`."""
    return CopiedRows(sys, tube, alpha, pwa).solve(c, E, y_lo, radius,
                                                    maximize)


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


def patch_highs_solve(monkeypatch, solve):
    """Send the LPs that chance solves, the anchors' and the line
    searches', to solve(model)."""
    monkeypatch.setattr(chance, "highs_solve", solve)


def line_lp_rows(monkeypatch):
    """Row counts of the LPs solved from now on, one per solve."""
    counts = []

    def solve(model):
        counts.append(model.n_rows)
        return highs_solve(model)
    patch_highs_solve(monkeypatch, solve)
    return counts


def solver_options(monkeypatch, names=("presolve",)):
    """The given HiGHS options of every model that chance solves from now
    on, cold or in a chain, one dict a solve."""
    seen = []

    def solve(model):
        seen.append({name: model.highs.getOptionValue(name)[1]
                     for name in names})
        return highs_solve(model)
    patch_highs_solve(monkeypatch, solve)
    return seen


def test_risk_lps_run_without_presolve(sys2d, tube2d, pwa, monkeypatch):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    assert risk._pinned is not None
    seen = solver_options(monkeypatch, ("presolve",
                                        "simplex_dual_edge_weight_strategy"))
    assert risk.anchor("xmax").feasible
    # the Chebyshev trial, then the full anchor LP
    monkeypatch.setattr(risk, "_pinned_rows_hold", lambda *_: False)
    cheby = risk.anchor("cheby")
    assert cheby.feasible
    anchors = len(seen)
    directions = spread_directions(8, 2).directions
    assert all(bp.status == "ok"
               for bp in risk.lines(cheby.x_anchor, directions))
    assert anchors == 3 and len(seen) == anchors + len(directions)
    # presolve off and HiGHS's default pricing (-1: HiGHS chooses), the
    # anchors and the chain alike
    assert seen == [{"presolve": "off",
                     "simplex_dual_edge_weight_strategy": -1}] * len(seen)


def test_chain_changes_only_its_step_column(sys2d, tube2d, pwa,
                                            monkeypatch):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    assert risk._pinned is not None
    # the keep-mask of each LP built, and each solve's mask and column
    # bounds as HiGHS holds them
    masks, solved, touched = [], [], []
    model = risk._model

    def spy_model(c, E, cols, *args, **kwargs):
        masks.append(cols)
        return model(c, E, cols, *args, **kwargs)
    monkeypatch.setattr(risk, "_model", spy_model)

    def solve(model):
        lp = model.highs.getLp()
        solved.append((masks[-1], np.array(lp.col_lower_),
                       np.array(lp.col_upper_)))
        return highs_solve(model)
    patch_highs_solve(monkeypatch, solve)
    for name in ("change_column", "change_bounds"):
        def spy(model, cols, *args, real=getattr(LpModel, name), name=name):
            touched.append((name, np.atleast_1d(cols).tolist()))
            return real(model, cols, *args)
        monkeypatch.setattr(LpModel, name, spy)

    # the Chebyshev trial, then the full anchor LP, then one chain
    monkeypatch.setattr(risk, "_pinned_rows_hold", lambda *_: False)
    cheby = risk.anchor("cheby")
    assert cheby.feasible and len(solved) == 2 and not touched
    directions = spread_directions(8, 2).directions
    points = list(risk.lines(cheby.x_anchor, directions))
    assert all(bp.status == "ok" for bp in points)
    assert len(masks) == 3 and len(solved) == 2 + len(directions)
    # every direction after the first changes the step column's
    # coefficients and bounds, and nothing else
    y = points[0].lp_cols - 1
    assert touched == [("change_column", [y]),
                       ("change_bounds", [y])] * (len(directions) - 1)
    for d, (_, lower, upper) in zip(directions, solved[2:]):
        assert (lower[y], upper[y]) \
            == (0.0, tube2d[0].ray_exit(cheby.x_anchor, d))
    # the trial keeps no pinned row's segments; every kept segment of
    # every LP spans exactly its piece
    assert not masks[0][risk._pinned].any() and masks[0].any()
    for mask, lower, upper in solved:
        segments = slice(risk.n_u, risk.n_u + int(mask.sum()))
        np.testing.assert_array_equal(lower[segments], 0.0)
        np.testing.assert_array_equal(
            upper[segments],
            np.broadcast_to(risk._lengths, mask.shape)[mask])


def test_chain_sends_only_changed_coefficients(sys2d, tube2d, pwa,
                                               monkeypatch):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    anchor = risk.anchor("cheby").x_anchor
    masks, sent, held = [], [], []
    model = risk._model

    def spy_model(c, E, cols, *args, **kwargs):
        masks.append(cols)
        return model(c, E, cols, *args, **kwargs)
    monkeypatch.setattr(risk, "_model", spy_model)
    change_column = LpModel.change_column

    def spy_change(model, col, rows, values):
        sent.append(np.asarray(rows).tolist())
        return change_column(model, col, rows, values)
    monkeypatch.setattr(LpModel, "change_column", spy_change)

    def solve(model):
        # the step column as HiGHS holds it, dense
        lp = model.highs.getLp()
        start = lp.a_matrix_.start_[model.n_vars - 1]
        column = np.zeros(model.n_rows)
        column[lp.a_matrix_.index_[start:]] = lp.a_matrix_.value_[start:]
        held.append(column)
        return highs_solve(model)
    patch_highs_solve(monkeypatch, solve)
    # an axis flipped keeps the other axis's zeros: rows that stay zero
    directions = [np.array(d) for d in
                  ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    assert all(bp.status == "ok" for bp in risk.lines(anchor, directions))
    keep = risk._kept_rows(masks[0])
    coefs = [(risk._x0 @ d)[keep] for d in directions]
    # each direction sends the rows whose coefficient changed, a
    # nonzero turning zero included, and no other
    assert sent == [np.flatnonzero(new != old).tolist()
                    for old, new in zip(coefs, coefs[1:])]
    assert all(len(rows) < keep.sum() for rows in sent)
    assert any(np.any((old != 0) & (new == 0))
               for old, new in zip(coefs, coefs[1:]))
    # so HiGHS holds each direction's column, as when every row is sent
    for column, coef in zip(held, coefs):
        np.testing.assert_array_equal(column, coef)


def test_infeasible_risk_lp_is_empty_without_presolve(sys1d, tube1d, pwa,
                                                      monkeypatch):
    # the budget floor allows 0.99, so the LP itself must say infeasible
    risk = RiskLP(sys1d, tube1d, 0.99, pwa)
    assert not risk._floor_diagnostic
    seen = solver_options(monkeypatch)
    for mode in ("xmax", "cheby"):
        res = risk.anchor(mode)
        assert res.status == "empty" and res.x_anchor is None
        assert "LP infeasible" in res.diagnostic
    for bp in risk.lines(np.zeros(1), [np.array([1.0]), np.array([-1.0])]):
        assert bp.status == "infeasible" and bp.theta == 0.0
    assert seen == [{"presolve": "off"}] * len(seen) and len(seen) == 4


def test_no_directions_yield_no_points(sys2d, tube2d, pwa, line_lps):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    anchor = risk.anchor("cheby")
    solved = []
    line_lps(lambda model: solved.append(model))
    assert list(risk.lines(anchor.x_anchor, [])) == []
    assert solved == []


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
        assert n_deterministic(risk, tube) and risk.n_risk
        assert sys.input_set.as_box_bounds() is None

    solves = line_lp_rows(monkeypatch)
    full = risk.rows.shape[0]
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
    for d, ls in zip(directions, risk.lines(origin, directions)):
        _, _, extra = copied_rows_solve(sys, tube, 0.6, pwa, origin,
                                        d[:, None], y_lo=0.0, maximize=True)
        assert ls.status == "ok"
        assert ls.theta > 0.0
        assert ls.theta == pytest.approx(extra[0], abs=1e-7)
        assert ls.lower_bound >= 0.6 - 1e-9
    # one model for the chain, solved once per direction
    rows = solves[xmax_solves + cheby_solves:]
    assert len(rows) == len(directions) and max(rows) <= full
    if example == "chain":
        # the windows of every direction drop rows
        assert max(rows) < full


def test_line_lp_keeps_only_rows_that_can_bind(pwa, monkeypatch):
    sys, tube = chain_system(40)
    risk = RiskLP(sys, tube, 0.6, pwa)
    start = np.zeros(40)
    d = np.zeros(40)
    d[:2] = [np.cos(0.4), np.sin(0.4)]
    rows = line_lp_rows(monkeypatch)
    ls = line(risk, start, d)
    # fewer than a tenth of the tail rows, then the budget and T_0 rows
    assert len(rows) == 1
    assert rows[0] - 1 - tube[0].n_rows < risk.n_risk / 10
    assert ls.status == "ok" and ls.theta > 0.0
    assert ls.lower_bound >= 0.6 - 1e-9
    # the full LP: every window [delta_lb, cap], every segment and row kept
    monkeypatch.setattr(risk, "_windows", lambda *_: np.ones(
        (risk.n_risk, len(risk.pieces)), dtype=bool))
    full = line(risk, start, d)
    assert rows[1] == risk.rows.shape[0]
    assert ls.theta == pytest.approx(full.theta, abs=1e-7)


def test_chain_anchor_is_one_small_trial(pwa, monkeypatch):
    sys, tube = chain_system(40)
    risk = RiskLP(sys, tube, 0.6, pwa)
    rows = line_lp_rows(monkeypatch)
    cheby = risk.anchor("cheby")
    # every tail row is pinned: the trial keeps the budget and T_0 rows
    assert len(rows) == 1 and rows[0] == 1 + tube[0].n_rows
    assert cheby.feasible and cheby.lower_bound >= 0.6 - 1e-9
    # the full LP, without the trial, has the same radius
    monkeypatch.setattr(risk, "_pinned", None)
    full = risk.anchor("cheby")
    assert rows[1] == risk.rows.shape[0]
    assert cheby.radius == pytest.approx(full.radius, abs=1e-7)


def dubins_example():
    sys, tube, _, pwa = _instantiate(_EXAMPLES["dubins"])
    return sys, tube, pwa


def test_rejected_trial_falls_back_to_the_full_lp(monkeypatch):
    sys, tube, pwa = dubins_example()
    risk = RiskLP(sys, tube, 0.8, pwa)
    assert risk._pinned is not None
    rows = line_lp_rows(monkeypatch)
    monkeypatch.setattr(risk, "_pinned_rows_hold", lambda *_: False)
    cheby = risk.anchor("cheby")
    full = risk.rows.shape[0]
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

    def fails_first(model):
        rows.append(model.n_rows)
        if len(rows) == 1:
            return LpSolution(status=status)
        return highs_solve(model)
    patch_highs_solve(monkeypatch, fails_first)
    return rows


def test_trial_without_verdict_falls_back(sys2d, tube2d, pwa, monkeypatch):
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    assert risk._pinned is not None
    rows = fake_trial(monkeypatch, "iteration_limit")
    anchor = risk.anchor("cheby")
    assert anchor.status == "optimal"
    assert len(rows) == 2 and rows[0] < rows[1]
    assert rows[1] == risk.rows.shape[0]


def test_infeasible_trial_is_the_verdict(sys2d, tube2d, pwa, monkeypatch):
    # the trial is a relaxation, so its infeasibility is the full LP's
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    rows = fake_trial(monkeypatch, "infeasible")
    anchor = risk.anchor("cheby")
    assert anchor.status == "empty" and anchor.x_anchor is None
    assert len(rows) == 1 and rows[0] < risk.rows.shape[0]


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
    assert rows == [risk.rows.shape[0]]
    d = np.array([1.0])
    assert tube[0].ray_exit(np.zeros(1), d) == np.inf
    for sign in (1.0, -1.0):
        ls = line(risk, np.zeros(1), sign * d)
        _, _, extra = copied_rows_solve(sys1d, tube, 0.6, pwa, np.zeros(1),
                                        sign * d[:, None], y_lo=0.0,
                                        maximize=True)
        assert ls.status == "ok" and ls.theta > 0.0
        assert ls.theta == pytest.approx(extra[0], abs=1e-7)
        assert ls.lower_bound >= 0.6 - 1e-9
    # the opposite ray leaves T_0, and its LP drops rows
    assert rows[-1] < rows[0]


def test_interval_range_never_nan():
    coef = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 1.0],
                     [0.0, -2.0]])
    lo, hi = np.array([-np.inf, 0.0]), np.array([1.0, np.inf])
    np.testing.assert_array_equal(_interval_max(coef, lo, hi),
                                  [np.inf, 1.0, 0.0, np.inf, 0.0])
    # one ray's step, 0 <= y <= top, with an infinite top
    col = np.array([[0.0], [3.0], [-3.0]])
    np.testing.assert_array_equal(_interval_max(col, 0.0, np.inf),
                                  [0.0, np.inf, 0.0])


def kept_envelope_holds(risk, pwa, mask, x0_col, x0_const, top):
    """Check the segments that a keep-mask keeps, each at its full
    length: a window is whole pieces, then none; they reproduce the
    envelope up to the last kept knot, and each row holds there for
    every step in [0, top] and input in the box.  Returns the number of
    pieces each row keeps."""
    unit = np.linspace(0.0, 1.0, 501)
    kept = mask.sum(axis=1)
    # a window is whole pieces from delta_lb, then none
    assert np.array_equal(mask, np.arange(mask.shape[1]) < kept[:, None])
    ends = risk._knots[kept]
    for i in np.flatnonzero(kept):
        grid = risk.delta_lb + (ends[i] - risk.delta_lb) * unit
        np.testing.assert_allclose(
            segment_envelope(risk, grid, risk._lengths * mask[i]),
            pwa.envelope(grid), rtol=0, atol=1e-12)
    # no allocation needs more than the last kept knot: a row whose
    # window ends inside the domain holds there (at delta_lb where it
    # keeps nothing) for the largest mean
    nr = risk.n_risk
    mean_max = x0_const[:nr] + risk._u_max \
        + np.maximum(0.0, x0_col[:nr] * top)
    room = risk._rhs_risk - mean_max - risk._sigma * risk._knot_env[kept]
    inside = kept < mask.shape[1]
    assert np.all(room[inside]
                  >= -1e-12 * (1.0 + np.abs(risk._rhs_risk[inside])))
    return kept


def test_windows_nan_free_when_unbounded(pwa):
    sys, tube = chain_system(2)
    # without its lower face the input set is unbounded (the system's own
    # constructor rejects this; the windows must not depend on it)
    sys.input_set = HPolytope(normals=np.array([[1.0]]),
                              offsets=np.array([1.0]))
    risk = RiskLP(sys, tube, 0.6, pwa)
    assert np.isposinf(risk._u_max).any()
    d = np.array([1.0, 0.0])
    for top in (0.5, np.inf):
        mask = risk._windows(risk._x0 @ d, risk._x0 @ np.zeros(2), top)
        assert mask.dtype == bool
        assert mask.shape == (risk.n_risk, len(risk.pieces))
        assert mask.any()
        # a row whose mean is unbounded keeps every piece
        assert mask[np.isposinf(risk._u_max)].all()
    ls = line(risk, np.zeros(2), d)
    assert ls.status == "ok" and ls.theta > 0.0


@pytest.mark.parametrize("example", ["hexagon", "planar"])
def test_kept_pieces_reproduce_the_envelope_on_each_window(example, sys2d,
                                                           tube2d, pwa):
    sys, tube = hexagon_input_system() if example == "hexagon" \
        else (sys2d, tube2d)
    risk = RiskLP(sys, tube, 0.6, pwa)
    start = risk.anchor("cheby").x_anchor
    dropped = narrowed = False
    for angle in np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.3:
        d = np.array([np.cos(angle), np.sin(angle)])
        x0_col, top = risk._x0 @ d, tube[0].ray_exit(start, d)
        mask = risk._windows(x0_col, risk._x0 @ start, top)
        kept = kept_envelope_holds(risk, pwa, mask, x0_col,
                                   risk._x0 @ start, top)
        dropped |= (kept == 0).any()
        narrowed |= ((0 < kept) & (kept < len(risk.pieces))).any()
    # rows are dropped, and windows end inside the domain
    assert dropped and narrowed


def test_chain_steps_match_the_copied_rows_oracle(sys2d, tube2d, pwa):
    # one chain of eight directions, each re-solved from the last basis
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    start = risk.anchor("cheby").x_anchor
    directions = spread_directions(8, 2).directions
    for d, ls in zip(directions, risk.lines(start, directions)):
        _, _, extra = copied_rows_solve(sys2d, tube2d, 0.6, pwa, start,
                                        d[:, None], y_lo=0.0, maximize=True)
        assert ls.status == "ok"
        assert abs(ls.theta - extra[0]) <= 1e-8
        assert ls.lower_bound >= 0.6 - 1e-9


def test_chains_take_fewer_simplex_iterations_than_cold_solves(
        sys2d, tube2d, pwa, monkeypatch):
    iterations = []

    def counted(model):
        sol = highs_solve(model)
        iterations.append(sol.iterations)
        return sol
    risk = RiskLP(sys2d, tube2d, 0.6, pwa)
    start = risk.anchor("cheby").x_anchor
    # the line searches' solves alone, not the anchor's
    monkeypatch.setattr(chance, "highs_solve", counted)
    directions = spread_directions(32, 2).directions
    chained = [ls for i in range(0, 32, CHAIN_LENGTH)
               for ls in risk.lines(start, directions[i:i + CHAIN_LENGTH])]
    warm = sum(iterations)
    alone = [line(risk, start, d) for d in directions]
    cold = sum(iterations) - warm
    assert len(iterations) == 64
    # 992 against 1 801 with scipy 1.17.1 (962 against 1 836 with
    # segments clipped at delta_need and devex pricing, 971 against
    # 1 868 with presolve too; 1 961 against 5 630 in the epigraph form,
    # one row per tail condition and piece)
    assert warm < cold
    for a, b in zip(chained, alone):
        assert a.status == b.status == "ok"
        assert a.theta == pytest.approx(b.theta, abs=1e-8)


def bench_checks():
    """bench/checks.py, the benchmark's own re-check of certificates."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXAMPLE_SETS = [(name, alpha) for name in sorted(_EXAMPLES)
                for alpha in _EXAMPLES[name]["alphas"]]


@functools.lru_cache(maxsize=None)
def example_set(example, alpha):
    """(system, tube, reach set, copied-rows oracle) of a shipped
    example at one of its thresholds."""
    sys, tube, directions, pwa = _instantiate(_EXAMPLES[example])
    res = compute_reach_set(sys, tube, alpha, directions, pwa=pwa)
    return sys, tube, res, CopiedRows(sys, tube, alpha, pwa)


@pytest.mark.parametrize("example, alpha", EXAMPLE_SETS)
def test_example_anchors_match_the_copied_rows_oracle(example, alpha):
    sys, tube, res, oracle = example_set(example, alpha)
    n = sys.state_dim
    *_, extra = oracle.solve(np.zeros(n), np.eye(n), radius=True,
                             maximize=True)
    assert abs(res.anchor.radius - extra[-1]) <= 1e-8
    # the anchor and every ok vertex re-check at alpha or more
    union_bound = bench_checks().union_bound
    ok = [bp for bp in res.boundary_points if bp.status == "ok"]
    assert ok
    for x0, U in [(res.anchor.x_anchor, res.anchor.U)] \
            + [(bp.point, bp.U) for bp in ok]:
        bound, why = union_bound(sys, tube, x0, U)
        assert bound is not None, why
        assert bound >= alpha


@pytest.mark.parametrize("half", [0, 1])
@pytest.mark.parametrize("example, alpha", EXAMPLE_SETS)
def test_example_steps_match_the_copied_rows_oracle(example, alpha, half):
    _, _, res, oracle = example_set(example, alpha)
    ok = [bp for bp in res.boundary_points if bp.status == "ok"]
    ok = ok[:len(ok) // 2] if half == 0 else ok[len(ok) // 2:]
    steps = oracle.steps(res.anchor.x_anchor, [bp.direction for bp in ok])
    for bp, theta in zip(ok, steps):
        assert abs(bp.theta - theta) <= 1e-8


@pytest.mark.parametrize("example, alpha", EXAMPLE_SETS)
def test_example_vertices_lie_in_t0_exactly(example, alpha):
    # on cwh at 0.8, anchor + theta d rounds 3.3e-16 past the exit of one
    # ray unless theta steps down
    _, tube, res, _ = example_set(example, alpha)
    ok = [bp for bp in res.boundary_points if bp.status == "ok"]
    assert ok
    for bp in ok:
        assert tube[0].contains(bp.point, tol=0.0)
        np.testing.assert_array_equal(
            bp.point, res.anchor.x_anchor + bp.theta * bp.direction)


@pytest.mark.parametrize("example, alpha", EXAMPLE_SETS)
def test_example_hull_is_derived_from_certified_points(example, alpha):
    # every hull vertex is a certified point; a document read back
    # without its polytope derives the same one, bit for bit
    _, _, res, _ = example_set(example, alpha)
    pts, _ = res.controller_points()
    for v in res.polytope.vertices:
        assert (pts == v).all(axis=1).any()
    text = res.to_json()
    doc = json.loads(text)
    del doc["polytope"]
    assert ReachSetResult.from_json(json.dumps(doc)).to_json() == text


@pytest.mark.parametrize("example, alpha", EXAMPLE_SETS)
def test_example_anchors_solve_fixed_selections(example, alpha,
                                                monkeypatch):
    # the full LP keeps every segment column, the trial every column of
    # the rows it does not pin, and no anchor computes risk windows
    sys, tube, _, pwa = _instantiate(_EXAMPLES[example])
    risk = RiskLP(sys, tube, alpha, pwa)
    masks = []
    model = RiskLP._model

    def spied(self, c, E, cols, *args, **kwargs):
        masks.append(cols.copy())
        return model(self, c, E, cols, *args, **kwargs)

    def windows(*_):
        raise AssertionError("an anchor computed risk windows")
    monkeypatch.setattr(RiskLP, "_model", spied)
    monkeypatch.setattr(risk, "_windows", windows)
    full = np.ones((risk.n_risk, len(risk.pieces)), dtype=bool)
    risk.anchor("xmax")
    assert len(masks) == 1 and np.array_equal(masks[0], full)
    masks.clear()
    risk.anchor("cheby")
    if risk._pinned is not None:
        trial = np.broadcast_to(~risk._pinned[:, None], full.shape)
        assert np.array_equal(masks.pop(0), trial)
    assert len(masks) <= 1
    assert all(np.array_equal(mask, full) for mask in masks)


def test_dubins_line_searches_take_few_simplex_iterations(monkeypatch):
    # 6 196 in the epigraph form (one row per tail condition and piece),
    # 1 134 in segment form, 897 without presolve and 746 with whole
    # segments and default pricing, with scipy 1.17.1
    sys, tube, directions, pwa = _instantiate(_EXAMPLES["dubins"])
    risk = RiskLP(sys, tube, 0.8, pwa)
    start = risk.anchor("cheby").x_anchor
    iterations = []

    def counted(model):
        sol = highs_solve(model)
        iterations.append(sol.iterations)
        return sol
    monkeypatch.setattr(chance, "highs_solve", counted)
    points = list(risk.lines(start, directions.directions))
    assert [bp.iterations for bp in points] == iterations
    assert len(points) == 8 and all(bp.status == "ok" for bp in points)
    assert sum(iterations) < 2500
