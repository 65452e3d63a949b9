import json
from types import SimpleNamespace

import numpy as np
import pytest

from tubereach import chance, geometry, reachalgo
from tubereach.geometry import DirectionSet, spread_directions, box_polytope
from tubereach.lpsolve import LpSolution
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


def test_noiseless_coordinate_keeps_its_cell():
    # x+ = x + (u, 0) + (w, 0): the second coordinate never moves, so the
    # DP of the pair is, in every column, the DP of the noisy coordinate
    sigma, horizon = 0.1, 5
    inputs = box_polytope(np.zeros(1), np.array([0.1]))
    planar = StochasticLTVSystem.lti(
        np.eye(2), np.array([[1.0], [0.0]]), np.zeros(2),
        np.diag([sigma ** 2, 0.0]), inputs, horizon)
    scalar = StochasticLTVSystem.lti(
        np.eye(1), np.eye(1), np.zeros(1), sigma ** 2 * np.eye(1), inputs,
        horizon)
    both = dp_values(planar, viability_tube(2, 1.0, horizon), 0.05, 0.05)
    one = dp_values(scalar, viability_tube(1, 1.0, horizon), 0.05, 0.05)
    v0 = one.values[0]
    assert ((v0 > 0.0) & (v0 < 1.0)).any()
    for v2, v1 in zip(both.values, one.values):
        assert v2.shape == (v1.size, v1.size)
        np.testing.assert_allclose(v2, np.tile(v1[:, None], v1.size),
                                   rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_scalar_hull_phase_solves_no_lp(alpha, sys1d, tube1d, pwa,
                                        monkeypatch):
    # the scalar sets are intervals: their two ends need no LP
    solved, hull_lps = [], []
    real_solve, real_prune = geometry.solve_lp, reachalgo.prune_vertices

    def counting_solve_lp(*args, **kwargs):
        solved.append(args)
        return real_solve(*args, **kwargs)

    def prune(vpoly):
        before = len(solved)
        pruned = real_prune(vpoly)
        hull_lps.append(len(solved) - before)
        return pruned
    monkeypatch.setattr(geometry, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(reachalgo, "prune_vertices", prune)
    res = compute_reach_set(sys1d, tube1d, alpha, DIRS_1D, pwa=pwa)
    assert res.status == "ok" and res.polytope.n_vertices == 2
    assert hull_lps == [0]


def test_reach_set_empty_at_unreachable_threshold(sys1d, tube1d, pwa):
    res = compute_reach_set(sys1d, tube1d, 0.99, DIRS_1D, pwa=pwa)
    assert res.is_empty
    assert res.status == "empty"
    assert res.polytope is None


def test_anchor_without_verdict_is_no_empty_set(sys1d, tube1d, pwa,
                                                monkeypatch):
    monkeypatch.setattr(chance, "highs_solve",
                        lambda model: LpSolution(status="numerical_trouble"))
    res = compute_reach_set(sys1d, tube1d, 0.6, DIRS_1D, pwa=pwa)
    assert res.status == "solver_failure"
    assert res.polytope is None and res.boundary_points == []
    assert res.diagnostic == res.anchor.diagnostic
    assert "numerical_trouble" in res.diagnostic


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


def test_parallel_matches_serial(sys2d, tube2d, pwa):
    # without a time budget the result document is byte-identical across
    # jobs (vertices, thetas, bounds and controllers included; the CLI's
    # test_rerun_is_byte_identical covers the CSV artifacts); 20 directions
    # make three chains, which one worker runs in turn at -j 1 and three
    # run side by side at -j 4
    dirs = spread_directions(20, 2)
    assert 2 * reachalgo.CHAIN_LENGTH < len(dirs) <= 3 * reachalgo.CHAIN_LENGTH
    documents = [compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa,
                                   time_budget=None, jobs=jobs).to_json()
                 for jobs in (1, 4)]
    assert documents[0] == documents[1]


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
    # a fake clock that advances one second per line search, read where
    # the deadline is set and where each search checks it
    clock = SimpleNamespace(now=0.0)
    fake_time = SimpleNamespace(perf_counter=lambda: clock.now)
    monkeypatch.setattr(reachalgo, "time", fake_time)
    monkeypatch.setattr(chance, "time", fake_time)
    search = chance.RiskLP.lines

    def slow_search(*args, **kwargs):
        for point in search(*args, **kwargs):
            clock.now += 1.0
            yield point
    monkeypatch.setattr(chance.RiskLP, "lines", slow_search)
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
    # an empty set has no line searches and no hull
    searches = ["hull", "search_cols", "search_iterations", "search_rows",
                "search_solve", "searches"] if alpha == 0.6 else []
    assert sorted(t) == sorted(["anchor", "anchor_iterations", "anchor_solve",
                                "assemble", "total"] + searches)
    assert t["assemble"] > 0.0 and t["anchor"] >= 0.0
    assert t["assemble"] + t["anchor"] + t.get("searches", 0.0) \
        + t.get("hull", 0.0) <= t["total"]
    assert t["anchor_iterations"] == res.anchor.iterations >= 0
    # HiGHS's share of each phase, at one worker
    assert 0.0 < t["anchor_solve"] == res.anchor.seconds <= t["anchor"]
    if searches:
        assert t["search_iterations"] == \
            sum(bp.iterations for bp in res.boundary_points)
        assert 0.0 < t["search_solve"] == \
            sum(bp.seconds for bp in res.boundary_points) <= t["searches"]
        # one chain: the budget row, a tail row and T_0's two rows, over
        # U, segment columns and the step
        assert 4 <= t["search_rows"] <= 1 + 10 + 2
        assert t["search_cols"] > 5 + 1


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
                                                line_lps, trouble):
    # the anchor LP solves; every line LP stops in trouble, which is no
    # proof of infeasibility
    line_lps(lambda model: LpSolution(status=trouble))
    res = compute_reach_set(sys2d, tube2d, 0.6, spread_directions(4, 2),
                            pwa=pwa)
    assert res.anchor.feasible
    assert [b.status for b in res.boundary_points] == ["solver_failure"] * 4
    assert all(trouble in b.diagnostic for b in res.boundary_points)
    # a failed point is the anchor itself, bit for bit, -0.0 entries and
    # all, so the file reads back to the same bytes
    assert all(b.point.tobytes() == res.anchor.x_anchor.tobytes()
               for b in res.boundary_points)
    assert ReachSetResult.from_json(res.to_json()).to_json() == res.to_json()


def test_failed_search_marks_only_its_own_direction(sys2d, tube2d, pwa,
                                                   line_lps):
    # the third line LP of the chain stops at the iteration limit; the
    # chain goes on from the basis it had
    dirs = spread_directions(8, 2)
    clean = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    solve, calls = chance.highs_solve, []

    def third_fails(model):
        calls.append(model)
        return LpSolution(status="iteration_limit") if len(calls) == 3 \
            else solve(model)
    line_lps(third_fails)
    res = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    assert len({id(model) for model in calls}) == 1
    assert [b.status for b in res.boundary_points] == \
        ["ok"] * 2 + ["solver_failure"] + ["ok"] * 5
    for got, want in zip(res.boundary_points, clean.boundary_points):
        if got.status == "ok":
            assert got.theta == pytest.approx(want.theta, abs=1e-8)


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


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.6, float("nan")])
def test_result_alpha_outside_the_unit_interval_rejected(reach06, alpha):
    doc = json.loads(reach06.to_json())
    doc["alpha"] = alpha
    with pytest.raises(ValueError, match=r"alpha .* outside \(0, 1\]"):
        ReachSetResult.from_json(json.dumps(doc))
    doc["alpha"] = 1.0
    assert ReachSetResult.from_json(json.dumps(doc)).alpha == 1.0


def test_a_result_derives_its_polytope(reach06):
    # the hull of the ok points and the anchor; no polytope, status or
    # diagnostic is taken
    for key, value in [("polytope", reach06.polytope), ("status", "ok"),
                       ("diagnostic", "")]:
        with pytest.raises(TypeError, match=key):
            ReachSetResult(alpha=0.6, anchor=reach06.anchor,
                           boundary_points=[], **{key: value})
    alone = ReachSetResult(alpha=0.6, anchor=reach06.anchor,
                           boundary_points=[])
    np.testing.assert_array_equal(alone.polytope.vertices,
                                  reach06.anchor.x_anchor[None])


@pytest.mark.parametrize("record", ["anchor", "vertex"])
def test_a_certified_point_without_controls_is_refused(reach06, record):
    doc = json.loads(reach06.to_json())
    if record == "anchor":
        doc["anchor"]["controls"] = None
        message = "anchor controls: none with a point"
    else:
        i = [v["status"] for v in doc["vertices"]].index("ok")
        doc["vertices"][i]["controls"] = None
        message = f"vertex {i} controls: none on an ok point"
    with pytest.raises(ValueError, match=message):
        ReachSetResult.from_json(json.dumps(doc))


NAN, INF = float("nan"), float("inf")


BAD_ENTRIES = [
    (("anchor", "point", 0), INF, "anchor point: NaN or infinite entry"),
    (("anchor", "controls", 2), NAN,
     "anchor controls: NaN or infinite entry"),
    (("anchor", "lower_bound"), NAN,
     "anchor lower_bound: NaN or infinite entry"),
    (("anchor", "radius"), INF, "anchor radius: NaN or infinite entry"),
    (("vertices", 0, "direction", 0), NAN,
     "vertex 0 direction: NaN or infinite entry"),
    (("vertices", 0, "theta"), -INF, "vertex 0 theta: NaN or infinite entry"),
    (("vertices", 1, "direction", 0), INF,
     "vertex 1 direction: NaN or infinite entry"),
    (("vertices", 1, "controls", 0), -INF,
     "vertex 1 controls: NaN or infinite entry"),
    (("vertices", 1, "lower_bound"), NAN,
     "vertex 1 lower_bound: NaN or infinite entry"),
    (("vertices", 1, "theta"), None, "vertex 1 theta: NaN or infinite entry"),
    (("anchor", "point"), "origin", "anchor point: not a list of numbers"),
    (("vertices", 1, "status"), "OK", "vertex 1 status: 'OK' is not one of "
     "ok, infeasible, solver_failure, skipped"),
    (("anchor", "status"), "feasible", "anchor status: 'feasible' is not "
     "one of optimal, empty, solver_failure"),
    (("anchor", "mode"), "both",
     "anchor mode: 'both' is not one of xmax, cheby"),
    (("vertices", 1, "direction"), [1.0, 0.0],
     "vertex 1 direction: 2 entries, but the anchor has 1")]


def edited(doc: dict, path, value) -> dict:
    """doc with the entry at path set to value."""
    *inner, last = path
    node = doc
    for key in inner:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", BAD_ENTRIES, ids=[
    "-".join(map(str, path)) for path, _, _ in BAD_ENTRIES])
def test_result_reader_refuses_bad_numbers_and_names(reach06, path, value,
                                                     message):
    doc = edited(json.loads(reach06.to_json()), path, value)
    with pytest.raises(ValueError) as caught:
        ReachSetResult.from_json(json.dumps(doc))
    assert str(caught.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("alpha", "0.6", "result alpha: not a number"),
    ("alpha", True, "result alpha: not a number"),
    ("diagnostic", 3, "result diagnostic: not a string")],
    ids=["string-alpha", "boolean-alpha", "number-diagnostic"])
def test_result_reader_refuses_a_non_number_alpha_and_diagnostic(
        reach06, key, value, message):
    doc = json.loads(reach06.to_json())
    doc[key] = value
    with pytest.raises(ValueError) as caught:
        ReachSetResult.from_json(json.dumps(doc))
    assert str(caught.value) == message


def test_result_reader_refuses_points_in_no_coordinate_plane(reach06):
    # the 1D result set in R^3; its hull lies on the first axis
    doc = json.loads(reach06.to_json())
    doc["anchor"]["point"] += [0.0, 0.0]
    for vertex in doc["vertices"]:
        vertex["direction"] += [0.0, 0.0]
    assert ReachSetResult.from_json(json.dumps(doc)).polytope.dim == 3
    doc["vertices"][0]["direction"] = [0.6, 0.48, 0.64]
    with pytest.raises(ValueError, match="points differ in 3 coordinates"):
        ReachSetResult.from_json(json.dumps(doc))


# records that disagree with themselves: an optimal anchor without a
# point, a point on an anchor that is not optimal, vertices (ok ones
# here) with no anchor point to start from
DISAGREEING = {
    "optimal-without-point": ([(("anchor", "point"), None)],
                              "anchor point: none on an anchor that is "
                              "optimal"),
    "empty-with-point": ([(("anchor", "status"), "empty")],
                         "anchor point: given on an anchor that is empty"),
    "empty-with-vertices": ([(("anchor", "status"), "empty"),
                             (("anchor", "point"), None),
                             (("anchor", "controls"), None)],
                            "vertex 0: no anchor point to start from")}


@pytest.mark.parametrize("edits, message", DISAGREEING.values(),
                         ids=DISAGREEING.keys())
def test_a_result_that_disagrees_with_itself_is_refused(reach06, edits,
                                                        message):
    doc = json.loads(reach06.to_json())
    assert all(v["status"] == "ok" for v in doc["vertices"])
    for path, value in edits:
        edited(doc, path, value)
    with pytest.raises(ValueError) as caught:
        ReachSetResult.from_json(json.dumps(doc))
    assert str(caught.value) == message


def test_the_reader_derives_status_diagnostic_and_points(reach06):
    # the top-level status and the vertex points are not read; a point
    # that is not ok is the anchor itself, -0.0 entries and all
    doc = json.loads(reach06.to_json())
    doc.update(status="empty", diagnostic="kept")
    doc["vertices"][0].update(point=[5.0])
    doc["vertices"][1].update(status="infeasible", theta=0.0, point=[9.0],
                              controls=None)
    doc["anchor"]["point"] = [-0.0]
    res = ReachSetResult.from_json(json.dumps(doc))
    assert res.status == "ok" and res.diagnostic == "kept"
    first = res.boundary_points[0]
    assert first.point == -0.0 + first.theta * first.direction
    assert np.signbit(res.boundary_points[1].point[0])
    assert res.to_json() == ReachSetResult.from_json(res.to_json()).to_json()


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


def test_negative_max_directions_rejected(sys2d, tube2d, pwa, monkeypatch):
    directions = spread_directions(8, 2)
    # 0 is legal: the set is the anchor alone
    res = compute_reach_set(sys2d, tube2d, 0.6, directions, pwa=pwa,
                            max_directions=0)
    assert res.status == "ok" and res.boundary_points == []
    monkeypatch.setattr(chance, "step_moments", None)  # any call fails
    with pytest.raises(ValueError, match="max_directions must be at least "
                                         "0, not -1"):
        compute_reach_set(sys2d, tube2d, 0.6, directions, pwa=pwa,
                          max_directions=-1)


@pytest.mark.parametrize("budget", [float("nan"), -1.0])
def test_nan_or_negative_time_budget_rejected(sys2d, tube2d, pwa, budget,
                                              monkeypatch):
    directions = spread_directions(8, 2)
    # inf is legal: every search runs, as without a budget
    res = compute_reach_set(sys2d, tube2d, 0.6, directions, pwa=pwa,
                            time_budget=float("inf"))
    assert [b.status for b in res.boundary_points] == ["ok"] * 8
    monkeypatch.setattr(chance, "step_moments", None)  # any call fails
    with pytest.raises(ValueError, match=f"time_budget must be at least 0, "
                                         f"not {budget}"):
        compute_reach_set(sys2d, tube2d, 0.6, directions, pwa=pwa,
                          time_budget=budget)


def test_directions_of_the_wrong_length_rejected(sys2d, tube2d, pwa,
                                                monkeypatch):
    monkeypatch.setattr(chance, "step_moments", None)  # any call fails
    with pytest.raises(ValueError, match="directions have 3 entries, but "
                                         "the state has 2"):
        compute_reach_set(sys2d, tube2d, 0.6,
                          spread_directions(8, 3, (0, 1)), pwa=pwa)


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


def test_planar_controller_weights_sit_on_the_hull(sys2d, tube2d, pwa):
    res = compute_reach_set(sys2d, tube2d, 0.6, spread_directions(16, 2),
                            pwa=pwa)
    pts, _ = res.controller_points()
    hull = geometry.extreme_indices(pts)
    off = np.setdiff1d(np.arange(len(pts)), hull)
    # the anchor (row 0) lies inside, so some point carries no weight
    assert 0 in off and len(hull) >= 3
    tol = 1e-7
    rng = np.random.default_rng(3)
    for x0 in [pts[0], 0.5 * (pts[0] + pts[hull[0]]),
               *(rng.dirichlet(np.ones(len(hull)), 3) @ pts[hull])]:
        u, w = initial_guess_controller(res, x0, tol=tol)
        assert w.shape == (len(pts),) and (w >= 0.0).all()
        assert (w[off] == 0.0).all()
        assert w.sum() == pytest.approx(1.0)
        assert np.abs(w @ pts - x0).max() <= 1e-12
        # each step of the blend lies in the input box
        steps = np.asarray(u).reshape(sys2d.horizon, sys2d.input_dim)
        assert all(sys2d.input_set.contains(step) for step in steps)


def test_controller_outside_polytope_rejected(reach06):
    with pytest.raises(ValueError, match="outside"):
        initial_guess_controller(reach06, np.array([3.0]))
