import json
from types import SimpleNamespace

import numpy as np
import pytest

from tubereach import chance, reachalgo
from tubereach.geometry import DirectionSet, spread_directions, box_polytope
from tubereach.lpsolve import LpSolution, solve_lp
from tubereach.reachalgo import (ReachSetResult, compute_reach_set,
                                 dp_level_set, dp_values,
                                 initial_guess_controller, interpolate_sets,
                                 interpolation_weight)
from tubereach.sysmodel import (StochasticLTVSystem, step_moments,
                                viability_tube)

DIRS_1D = DirectionSet(np.array([[1.0], [-1.0]]))


# ---------------------------------------------------------------------------
# dynamic-programming baseline
# ---------------------------------------------------------------------------

def test_terminal_values_are_indicator(dp1d, tube1d):
    v_n = dp1d.values[-1]
    grid = dp1d.grids[0]
    lo, hi = tube1d[-1].interval_bounds()
    inside = (grid >= lo[0] - 1e-9) & (grid <= hi[0] + 1e-9)
    assert set(np.unique(v_n)) <= {0.0, 1.0}
    np.testing.assert_array_equal(v_n > 0.5, inside)


def test_dp_against_optimal_policy_rollout(sys1d, tube1d, dp1d):
    # roll out the optimal feedback policy recovered from the tables via
    # one Bellman step per stage; the empirical success rate must match
    # V_0 up to sampling + grid discretization error
    from scipy.stats import norm

    rng = np.random.default_rng(np.random.Philox(7))
    grid = dp1d.grids[0]
    edges = np.concatenate([grid - dp1d.state_spacing / 2,
                            [grid[-1] + dp1d.state_spacing / 2]])
    u_grid = dp1d.input_grid.ravel()
    policies = []
    for k in range(tube1d.horizon):
        sigma = np.sqrt(sys1d.disturbance.cov_per_step[k][0, 0])
        means = grid[:, None] + u_grid[None, :]  # (states, inputs)
        cdf = norm.cdf((edges[None, None, :] - means[:, :, None]) / sigma)
        mass = np.diff(cdf, axis=2)  # (states, inputs, states)
        q = mass @ dp1d.values[k + 1]
        policies.append(u_grid[np.argmax(q, axis=1)])

    n_traj = 20_000
    for x_start in (0.0, 0.2, -0.35, 0.45):
        i0 = int(np.argmin(np.abs(grid - x_start)))
        v0 = dp1d.values[0][i0]
        x = np.full(n_traj, grid[i0])
        alive = np.ones(n_traj, dtype=bool)
        for k in range(tube1d.horizon):
            lo, hi = tube1d[k].interval_bounds()
            alive &= (x >= lo[0]) & (x <= hi[0])
            idx = np.clip(np.searchsorted(edges, x) - 1, 0, grid.size - 1)
            w = rng.normal(0.0, np.sqrt(
                sys1d.disturbance.cov_per_step[k][0, 0]), n_traj)
            x = x + policies[k][idx] + w
        lo, hi = tube1d[-1].interval_bounds()
        alive &= (x >= lo[0]) & (x <= hi[0])
        p = alive.mean()
        assert abs(p - v0) <= 0.03


def test_value_function_quasiconcave(dp1d):
    # every superlevel set along the grid is an interval
    for v in dp1d.values:
        for level in (0.2, 0.5, 0.8, 0.95):
            idx = np.flatnonzero(v >= level)
            if idx.size:
                assert np.all(np.diff(idx) == 1)


def test_dp_bounds_must_cover_tube(sys1d, tube1d):
    with pytest.raises(ValueError, match="cover"):
        dp_values(sys1d, tube1d, 0.05, 0.05,
                  bounds=(np.array([-0.5]), np.array([0.5])))


def test_dp_rejects_high_dimension():
    sys = StochasticLTVSystem.lti(
        np.eye(3), np.eye(3), np.zeros(3), 0.01 * np.eye(3),
        box_polytope(np.zeros(3), 0.1 * np.ones(3)), 3)
    with pytest.raises(ValueError, match="dim"):
        dp_values(sys, viability_tube(3, 1.0, 3), 0.5, 0.5)


def test_level_set_trivial_thresholds(dp1d):
    mask_all, _ = dp_level_set(dp1d, 0.0)
    assert mask_all.all()
    mask_none, poly = dp_level_set(dp1d, 1.0 + 1e-9)
    assert not mask_none.any()
    assert poly is None


# ---------------------------------------------------------------------------
# reach-set computation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reach06(sys1d, tube1d, pwa):
    return compute_reach_set(sys1d, tube1d, 0.6, DIRS_1D, pwa=pwa)


def test_reach_set_inside_dp_level_set(reach06, dp1d):
    assert reach06.status == "ok"
    mask, _ = dp_level_set(dp1d, 0.6)
    lo = dp1d.grids[0][mask].min()
    hi = dp1d.grids[0][mask].max()
    verts = reach06.polytope.vertices.ravel()
    spacing = dp1d.state_spacing
    assert verts.min() >= lo - spacing
    assert verts.max() <= hi + spacing


def test_reach_set_empty_at_unreachable_threshold(sys1d, tube1d, pwa):
    res = compute_reach_set(sys1d, tube1d, 0.99, DIRS_1D, pwa=pwa)
    assert res.is_empty
    assert res.status == "empty"
    assert res.polytope is None


def test_reach_sets_nested_in_alpha(sys2d, tube2d, pwa):
    dirs = spread_directions(8, 2)
    low = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    high = compute_reach_set(sys2d, tube2d, 0.9, dirs, pwa=pwa)
    for v in high.polytope.vertices:
        assert low.polytope.contains(v, tol=1e-6)


def test_anytime_prefix_is_contained(sys2d, tube2d, pwa):
    dirs = spread_directions(8, 2)
    partial = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa,
                                max_directions=4)
    full = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    assert len([b for b in partial.boundary_points
                if b.status == "ok"]) <= 4
    for v in partial.polytope.vertices:
        assert full.polytope.contains(v, tol=1e-6)


def test_parallel_matches_serial(sys2d, tube2d, pwa, tmp_path):
    # without a time budget the artifacts are byte-identical across jobs
    # (vertices, thetas, bounds and controllers included)
    dirs = spread_directions(8, 2)
    artifacts = []
    for jobs in (1, 4):
        res = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa,
                                time_budget=None, jobs=jobs)
        res.vertex_csv(tmp_path / f"j{jobs}.csv")
        artifacts.append((res.to_json(),
                          (tmp_path / f"j{jobs}.csv").read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_zero_time_budget_keeps_only_the_anchor(sys2d, tube2d, pwa):
    dirs = spread_directions(8, 2)
    res = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa,
                            time_budget=0.0, jobs=2)
    assert [b.status for b in res.boundary_points] == ["skipped"] * 8
    assert all(b.diagnostic == "time budget exhausted"
               for b in res.boundary_points)
    np.testing.assert_array_equal(res.polytope.vertices,
                                  [res.anchor.x_anchor])


def test_time_budget_checked_when_each_search_starts(sys2d, tube2d, pwa,
                                                     monkeypatch):
    # a fake clock that advances one second per line search
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(reachalgo, "time",
                        SimpleNamespace(perf_counter=lambda: clock.now))
    search = chance.RiskLP.line

    def slow_search(*args, **kwargs):
        clock.now += 1.0
        return search(*args, **kwargs)
    monkeypatch.setattr(chance.RiskLP, "line", slow_search)
    res = compute_reach_set(sys2d, tube2d, 0.6, spread_directions(8, 2),
                            pwa=pwa, time_budget=2.5)
    assert [b.status for b in res.boundary_points] == \
        ["ok"] * 3 + ["skipped"] * 5


@pytest.mark.parametrize("alpha", [0.6, 0.99])
def test_timings_split_assembly_from_anchor(sys1d, tube1d, pwa, alpha):
    # 0.99 gives an empty set, which is timed too
    res = compute_reach_set(sys1d, tube1d, alpha, DIRS_1D, pwa=pwa)
    assert res.status == ("ok" if alpha == 0.6 else "empty")
    t = res.timings
    assert sorted(t) == ["anchor", "assemble", "total"]
    assert t["assemble"] > 0.0 and t["anchor"] >= 0.0
    assert t["assemble"] + t["anchor"] <= t["total"]


def test_risk_lp_assembled_once_per_call(sys2d, tube2d, pwa, monkeypatch):
    calls = []

    def counted(sys):
        calls.append(sys)
        return step_moments(sys)
    monkeypatch.setattr(chance, "step_moments", counted)
    res = compute_reach_set(sys2d, tube2d, 0.6, spread_directions(8, 2),
                            pwa=pwa, jobs=2)
    assert [b.status for b in res.boundary_points] == ["ok"] * 8
    assert len(calls) == 1


@pytest.mark.parametrize("trouble", ["iteration_limit", "numerical_trouble"])
def test_line_search_solver_failure_is_recorded(sys2d, tube2d, pwa,
                                                monkeypatch, trouble):
    # the anchor LP solves; every line LP after it stops in trouble, which
    # is no proof of infeasibility
    calls = []

    def stalls_after_anchor(lp):
        calls.append(lp)
        return solve_lp(lp) if len(calls) == 1 else LpSolution(status=trouble)
    monkeypatch.setattr(chance, "solve_lp", stalls_after_anchor)
    res = compute_reach_set(sys2d, tube2d, 0.6, spread_directions(4, 2),
                            pwa=pwa)
    assert res.anchor.feasible
    assert [b.status for b in res.boundary_points] == ["solver_failure"] * 4
    assert all(trouble in b.diagnostic for b in res.boundary_points)


def test_result_json_roundtrip(reach06, sys1d, tube1d, pwa):
    empty = compute_reach_set(sys1d, tube1d, 0.99, DIRS_1D, pwa=pwa)
    for res in (reach06, empty):
        text = res.to_json()
        assert ReachSetResult.from_json(text).to_json() == text
    again = ReachSetResult.from_json(reach06.to_json())
    np.testing.assert_array_equal(again.polytope.vertices,
                                  reach06.polytope.vertices)
    assert again.boundary_points[0].U.shape == reach06.boundary_points[0].U.shape
    # documents written by older releases carry a "backend" key
    old = json.loads(reach06.to_json())
    old["backend"] = "chance"
    rewritten = ReachSetResult.from_json(json.dumps(old)).to_json()
    assert "backend" not in json.loads(rewritten)
    assert rewritten == reach06.to_json()


@pytest.mark.parametrize("text, problem", [
    ("{}", "lacks the key 'anchor'"),
    ('{"alpha": 0.6, "anchor": null}', "malformed result document"),
    ("[]", "malformed result document")])
def test_malformed_result_json_is_a_value_error(text, problem):
    with pytest.raises(ValueError, match=problem):
        ReachSetResult.from_json(text)


def test_backend_and_mode_validation(sys1d, tube1d):
    for mode in ("both", "nope"):
        with pytest.raises(ValueError, match="anchor_mode"):
            compute_reach_set(sys1d, tube1d, 0.6, DIRS_1D, anchor_mode=mode)


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_rejected_before_assembly(sys1d, tube1d,
                                                     monkeypatch, jobs):
    monkeypatch.setattr(chance, "step_moments", None)  # any call fails
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        compute_reach_set(sys1d, tube1d, 0.6, DIRS_1D, jobs=jobs)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolation_weight_endpoints():
    assert interpolation_weight(0.6, 0.9, 0.6) == pytest.approx(1.0)
    assert interpolation_weight(0.6, 0.9, 0.9) == pytest.approx(0.0)
    assert interpolation_weight(0.6, 0.9, 0.85) == pytest.approx(
        0.14097, abs=5e-6)


def test_interpolated_set_between_inputs(sys2d, tube2d, pwa):
    dirs = spread_directions(8, 2)
    low = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    high = compute_reach_set(sys2d, tube2d, 0.9, dirs, pwa=pwa)
    mid = interpolate_sets(low, high, 0.85)
    for v in high.polytope.vertices:
        # not required in general, but holds here: higher-threshold set
        # sits inside the interpolant
        assert mid.contains(v, tol=1e-6)
    for v in mid.vertices:
        assert low.polytope.contains(v, tol=1e-6)


def test_interpolation_input_validation(sys1d, tube1d, pwa):
    a = compute_reach_set(sys1d, tube1d, 0.6, DIRS_1D, pwa=pwa)
    with pytest.raises(ValueError, match="beta"):
        interpolate_sets(a, compute_reach_set(sys1d, tube1d, 0.7, DIRS_1D,
                                              pwa=pwa), 0.5)
    empty = compute_reach_set(sys1d, tube1d, 0.99, DIRS_1D, pwa=pwa)
    with pytest.raises(ValueError, match="nonempty"):
        interpolate_sets(a, empty, 0.8)


# ---------------------------------------------------------------------------
# controller warm starts
# ---------------------------------------------------------------------------

def test_vertex_controller_recovered_exactly(reach06):
    # at an extreme point the convex weights are forced onto that point,
    # so the blend returns its stored controller verbatim
    pts, ctrls = reach06.controller_points()
    i = int(np.argmax(pts[:, 0]))
    u, w = initial_guess_controller(reach06, pts[i])
    np.testing.assert_allclose(u, ctrls[i], atol=1e-7)
    assert w.sum() == pytest.approx(1.0)


def test_midpoint_controller_is_average(reach06):
    pts, ctrls = reach06.controller_points()
    lo_i = int(np.argmin(pts[:, 0]))
    hi_i = int(np.argmax(pts[:, 0]))
    mid = 0.5 * (pts[lo_i] + pts[hi_i])
    u, w = initial_guess_controller(reach06, mid)
    assert w.sum() == pytest.approx(1.0)
    # in 1D the blend of the extreme controllers at the midpoint is the
    # plain average
    np.testing.assert_allclose(u, 0.5 * (ctrls[lo_i] + ctrls[hi_i]),
                               atol=1e-6)


def test_controller_outside_polytope_rejected(reach06):
    with pytest.raises(ValueError, match="outside"):
        initial_guess_controller(reach06, np.array([3.0]))
