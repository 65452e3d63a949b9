import json
import threading

import numpy as np
import pytest

from tubereach import montecarlo
from tubereach.geometry import (DirectionSet, VPolytope, box_polytope,
                                spread_directions)
from tubereach.montecarlo import (ValidationReport, simulate_reach_prob,
                                  simulate_reach_probs, validate_vertices)
from tubereach.reachalgo import compute_reach_set
from tubereach.sysmodel import (StochasticLTVSystem, TargetTube,
                                cwh_los_tube, make_cwh, make_dubins,
                                make_integrator_chain, make_uncontrolled,
                                nominal_dubins_tube, viability_tube)

from oracles import volume_ratio
from test_cli import scalar_config
from tubereach.cli import EXIT_OK, main


def test_start_outside_initial_set_is_zero(sys1d, tube1d):
    p, s = simulate_reach_prob(sys1d, tube1d, np.array([1.5]),
                               np.zeros(5), 1000)
    assert p == 0.0 and s == 0.0


def near_deterministic():
    sys = StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), 1e-12 * np.eye(1),
        box_polytope(np.zeros(1), np.array([0.5])), 4)
    return sys, viability_tube(1, 1.0, 4)


def test_near_deterministic_interior_start_is_one():
    sys, tube = near_deterministic()
    p, s = simulate_reach_prob(sys, tube, np.zeros(1), np.zeros(4), 1000)
    assert p == 1.0 and s == 0.0


def test_seed_determinism(sys1d, tube1d):
    a = simulate_reach_prob(sys1d, tube1d, np.array([0.1]), np.zeros(5),
                            5000, seed=42)
    b = simulate_reach_prob(sys1d, tube1d, np.array([0.1]), np.zeros(5),
                            5000, seed=42)
    c = simulate_reach_prob(sys1d, tube1d, np.array([0.1]), np.zeros(5),
                            5000, seed=43)
    assert a == b
    assert a != c


def test_std_shrinks_with_sample_size(sys1d, tube1d):
    _, s1 = simulate_reach_prob(sys1d, tube1d, np.array([0.1]), np.zeros(5),
                                10_000, seed=0)
    _, s2 = simulate_reach_prob(sys1d, tube1d, np.array([0.1]), np.zeros(5),
                                40_000, seed=0)
    assert s2 == pytest.approx(s1 / 2, rel=0.2)


def test_estimates_frozen_for_fixed_seeds(sys1d, tube1d):
    # values of the shared-noise rollout, which draws the zero-mean noise
    # path (n x chunk, column per trajectory) and adds each vertex's mean
    # path through its margins.  The scalar case kept its value from the
    # earlier per-vertex rollout (its draw order is unchanged); the other
    # three were re-pointed when the draw moved to the noise path, each
    # within binomial error of its former value (0.989, 0.85, 0.85175).
    # The cwh tube has 10 rows per step and 8 at the end; the uncontrolled
    # chain has no input.
    cwh_u = np.array([0.00966, -0.00612, -0.03455, 0.01602, 0.04953,
                      -0.02149, -0.03386, 0.02136, 0.00954, -0.01017])
    cases = [
        (sys1d, tube1d, [0.1], np.full(5, -0.05), 5000, 42,
         (0.1488, 0.005033061891135455)),
        (make_integrator_chain(2, 0.1, 10, 0.01, 0.1),
         viability_tube(2, 1.0, 10), [0.3, -0.2],
         0.1 * np.sin(np.arange(10)), 3000, 7,
         (0.9853333333333333, 0.00219480868988283)),
        (make_cwh(), cwh_los_tube(5), [0.0, -0.7071, 0.0, 0.0], cwh_u,
         2000, 3, (0.855, 0.007873214083206426)),
        (make_uncontrolled(3),
         viability_tube(3, 1.0, 10, terminal_half_width=0.8),
         [0.2, 0.0, -0.1], None, 4000, 11,
         (0.8505, 0.005638034897018641)),
    ]
    for sys, tube, x0, u, n_traj, seed, expected in cases:
        assert simulate_reach_prob(sys, tube, np.array(x0), u, n_traj,
                                   seed=seed) == expected


def full_state_rollout(sys, tube, x0, U, n_traj, seed):
    """Reference: x_{k+1} = A_k x_k + B_k u_k + L_k xi_k + mu_k on the
    draws the rollout takes: chunk j of _CHUNK trajectories from
    Philox(seed).jumped(j), an n x chunk block per step."""
    kept, m = 0, sys.input_dim
    for j, start in enumerate(range(0, n_traj, montecarlo._CHUNK)):
        c = min(montecarlo._CHUNK, n_traj - start)
        rng = np.random.Generator(np.random.Philox(seed).jumped(j))
        x = np.repeat(np.asarray(x0, dtype=float)[:, None], c, axis=1)
        alive = np.ones(c, dtype=bool)
        for k in range(sys.horizon):
            xi = rng.standard_normal((sys.state_dim, c))
            x = (sys.A_seq[k] @ x
                 + montecarlo._cov_factor(sys.disturbance.cov_per_step[k]) @ xi
                 + sys.disturbance.mean_per_step[k][:, None])
            if U is not None:
                x += (sys.B_seq[k] @ U[k * m:(k + 1) * m])[:, None]
            t = tube[k + 1]
            alive &= np.all(t.normals @ x <= t.offsets[:, None] + 1e-12,
                            axis=0)
        kept += int(alive.sum())
    return kept / n_traj


def test_mean_plus_noise_matches_full_state_rollout():
    # the rollout splits each trajectory into the vertex's mean path and a
    # shared zero-mean noise path; on the same draws it keeps the same
    # trajectories as the full-state recursion.  Cases: cwh (line-of-sight
    # cone rows), an LTV Dubins model with a disturbance mean, and an
    # uncontrolled chain over more than one chunk.
    dubins = make_dubins(0.1, 10, 0.3, [0.5] * 10, 10.0,
                         mu_eta=(0.01, -0.005))
    cwh_u = np.array([0.00966, -0.00612, -0.03455, 0.01602, 0.04953,
                      -0.02149, -0.03386, 0.02136, 0.00954, -0.01017])
    cases = [
        (make_cwh(), cwh_los_tube(5), [0.0, -0.7071, 0.0, 0.0], cwh_u, 5000),
        (dubins, nominal_dubins_tube(dubins, 0.7, base_half_width=0.2),
         [0.02, -0.01], np.full(10, 7.0), 5000),
        (make_uncontrolled(3),
         viability_tube(3, 1.0, 10, terminal_half_width=0.8),
         [0.2, 0.0, -0.1], None, montecarlo._CHUNK + 3000),
    ]
    for sys, tube, x0, u, n_traj in cases:
        p, _ = simulate_reach_prob(sys, tube, x0, u, n_traj, seed=21)
        assert 0.05 < p < 0.95
        assert p == full_state_rollout(sys, tube, x0, u, n_traj, 21)


def test_small_sample_rejected(sys1d, tube1d):
    with pytest.raises(ValueError, match="n_traj"):
        simulate_reach_prob(sys1d, tube1d, np.zeros(1), np.zeros(5), 50)


def test_batch_needs_one_input_per_state(sys1d, tube1d):
    with pytest.raises(ValueError, match="per initial state"):
        simulate_reach_probs(sys1d, tube1d, [], [], 1000)
    with pytest.raises(ValueError, match="per initial state"):
        simulate_reach_probs(sys1d, tube1d, [np.zeros(1)] * 2, [None], 1000)


@pytest.mark.parametrize("case", ["integrator2", "cwh"])
def test_validation_matches_each_vertex_alone(case, sys2d, tube2d, pwa):
    # all vertices share the stream `seed`: each one's estimate is what it
    # gets rolled out alone, bit for bit, over more than one chunk
    if case == "integrator2":
        sys, tube, alpha = sys2d, tube2d, 0.6
        dirs = spread_directions(8, 2)
    else:
        sys, tube, alpha = make_cwh(), cwh_los_tube(5), 0.8
        dirs = spread_directions(8, 4, (0, 1))
    res = compute_reach_set(sys, tube, alpha, dirs, pwa=pwa)
    n_traj = montecarlo._CHUNK + 3000
    report = validate_vertices(res, sys, tube, n_traj, seed=5)
    controls = [bp.U for bp in res.boundary_points
                if bp.status == "ok" and bp.U is not None]
    assert len(report.records) == len(controls) >= 3
    for rec, u in zip(report.records, controls):
        alone = simulate_reach_prob(sys, tube, rec.point, u, n_traj, seed=5)
        assert alone == (rec.empirical_probability, rec.binomial_std)


def test_outside_vertex_leaves_the_batch_alone(sys1d, tube1d):
    n_traj = int(2.5 * montecarlo._CHUNK)
    # near-deterministic: every trajectory of an interior start survives,
    # so p = 1 says each one was counted exactly once across the chunks.
    # 0.5 lies outside T_0 only, so nothing but the T_0 test rejects it.
    sys, _ = near_deterministic()
    tube = TargetTube([box_polytope(np.zeros(1), np.array([0.2]))]
                      + viability_tube(1, 1.0, 4).sets[1:])
    probs, stds, _ = simulate_reach_probs(
        sys, tube, [[0.0], [0.5], [0.1]], [np.zeros(4), np.zeros(4), None],
        n_traj)
    assert probs.tolist() == [1.0, 0.0, 1.0]
    assert stds.tolist() == [0.0, 0.0, 0.0]
    # a noisy interior start gets what it gets alone
    probs, stds, _ = simulate_reach_probs(
        sys1d, tube1d, [[1.5], [0.1]], [np.zeros(5)] * 2, n_traj, seed=9)
    assert (probs[0], stds[0]) == (0.0, 0.0)
    assert (probs[1], stds[1]) == simulate_reach_prob(
        sys1d, tube1d, [0.1], np.zeros(5), n_traj, seed=9)


def test_pooled_std_of_identical_vertices_is_their_own(sys1d, tube1d):
    # identical vertices are perfectly correlated under the shared draw:
    # their mean is as noisy as either one, not 1/sqrt(2) of it as the
    # formula for independent vertices would have it
    u = np.full(5, -0.02)
    probs, stds, pooled = simulate_reach_probs(
        sys1d, tube1d, [[0.1], [0.1]], [u, u], 20_000, seed=4)
    assert 0.0 < probs[0] < 1.0 and probs[0] == probs[1]
    assert pooled == stds[0] == stds[1]
    assert pooled != pytest.approx(stds[0] / np.sqrt(2))


def with_workers(monkeypatch, count):
    monkeypatch.setattr(montecarlo, "_cpus", lambda: count)


def test_estimates_independent_of_worker_count(monkeypatch, sys1d, tube1d):
    # 2.5 chunks: the last one partial; workers return integer counts, so
    # every worker count adds up to the same estimates, bit for bit
    runs = []
    for workers in (1, 2, 3):
        with_workers(monkeypatch, workers)
        probs, stds, pooled = simulate_reach_probs(
            sys1d, tube1d, [[0.1], [-0.2], [0.0]],
            [np.full(5, -0.05), np.full(5, 0.03), None],
            int(2.5 * montecarlo._CHUNK), seed=6)
        runs.append((probs.tolist(), stds.tolist(), pooled))
    assert 0.0 < min(runs[0][0]) and max(runs[0][0]) < 1.0
    assert runs[0] == runs[1] == runs[2]


@pytest.fixture(scope="module")
def reach06(sys1d, tube1d, pwa):
    dirs = DirectionSet(np.array([[1.0], [-1.0]]))
    return compute_reach_set(sys1d, tube1d, 0.6, dirs, pwa=pwa)


def test_validation_errors_nonnegative_within_noise(reach06, sys1d, tube1d):
    report = validate_vertices(reach06, sys1d, tube1d, 20_000, seed=1)
    assert len(report.records) >= 2
    for r in report.records:
        assert r.error >= -3 * max(r.binomial_std, 1e-3)
    assert report.mean_error >= -3 * report.pooled_binomial_std


def test_validation_rejects_empty_result(sys1d, tube1d, pwa):
    dirs = DirectionSet(np.array([[1.0], [-1.0]]))
    empty = compute_reach_set(sys1d, tube1d, 0.99, dirs, pwa=pwa)
    with pytest.raises(ValueError):
        validate_vertices(empty, sys1d, tube1d, 1000)


def test_validation_report_serialization(reach06, sys1d, tube1d, tmp_path):
    report = validate_vertices(reach06, sys1d, tube1d, 1000, seed=1)
    data = json.loads(report.to_json())
    assert data["alpha"] == 0.6
    assert data["pooled_binomial_std"] == report.pooled_binomial_std > 0
    assert len(data["records"]) == len(report.records)
    # `tubereach validate` on the same system, result and seed writes
    # this report, and beside it a CSV row a vertex
    cfg = scalar_config(tmp_path, [0.6], extra={"validation": {"seed": 1}})
    result = tmp_path / "reach_alpha0p6.json"
    result.write_text(reach06.to_json())
    assert main(["validate", str(cfg), "--result", str(result),
                 "--n-traj", "1000", "-d", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "validation.json").read_text() == report.to_json()
    lines = (tmp_path / "validation.csv").read_text().splitlines()
    assert lines[0] == "x0,empirical_probability,binomial_std,error"
    assert lines[1:] == [",".join(f"{v:.12g}" for v in (
        *r.point, r.empirical_probability, r.binomial_std, r.error))
        for r in report.records]


def test_validate_artifact_independent_of_worker_count(monkeypatch, reach06,
                                                      tmp_path):
    cfg = scalar_config(tmp_path, [0.6], extra={"validation": {"seed": 1}})
    result = tmp_path / "reach_alpha0p6.json"
    result.write_text(reach06.to_json())
    texts = []
    for workers in (1, 2):
        with_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        assert main(["validate", str(cfg), "--result", str(result),
                     "--n-traj", str(2 * montecarlo._CHUNK + 100),
                     "-d", str(out)]) == EXIT_OK
        texts.append((out / "validation.json").read_bytes())
    assert texts[0] == texts[1]


def test_validation_leaves_no_thread_behind(monkeypatch, reach06, sys1d,
                                           tube1d):
    with_workers(monkeypatch, 3)
    n_traj = 3 * montecarlo._CHUNK
    before = threading.active_count()
    validate_vertices(reach06, sys1d, tube1d, n_traj, seed=1)
    assert threading.active_count() == before
    # a worker that raises: the others finish, and the error reaches the
    # caller once every thread has joined
    roll = montecarlo._roll_chunks

    def fail_on_chunk_1(*args):
        chunks = list(args[-1])
        if 1 in chunks:
            raise RuntimeError("chunk 1 failed")
        return roll(*args[:-1], chunks)

    monkeypatch.setattr(montecarlo, "_roll_chunks", fail_on_chunk_1)
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        validate_vertices(reach06, sys1d, tube1d, n_traj, seed=1)
    assert threading.active_count() == before


def test_validation_report_json_roundtrip(reach06, sys1d, tube1d):
    report = validate_vertices(reach06, sys1d, tube1d, 1000, seed=1)
    text = report.to_json()
    again = ValidationReport.from_json(text)
    assert again.to_json() == text
    assert again.mean_error == report.mean_error
    # documents written before the pooled std was recorded
    old = json.loads(text)
    del old["pooled_binomial_std"]
    assert ValidationReport.from_json(
        json.dumps(old)).pooled_binomial_std is None


@pytest.mark.parametrize("text, problem", [
    ("{}", "lacks the key 'alpha'"),
    ('{"alpha": 0.6, "n_traj": 10, "seed": 0, "records": [{}]}',
     "lacks the key 'point'"),
    ('{"alpha": 0.6, "records": null, "n_traj": 10, "seed": 0}',
     "malformed validation document"),
    ("[]", "malformed validation document")])
def test_malformed_validation_json_is_a_value_error(text, problem):
    with pytest.raises(ValueError, match=problem):
        ValidationReport.from_json(text)


def square(half):
    return VPolytope(np.array([[-half, -half], [half, -half],
                               [half, half], [-half, half]]))


def test_volume_gap_zero_for_identical_sets():
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    ratio, std, violations = volume_ratio(square(1.0), square(1.0), box)
    assert ratio == 0.0
    assert violations == 0


def test_volume_gap_of_nested_squares():
    # outer [-1,1]^2, inner the left half: gap is half the box
    inner = VPolytope(np.array([[-1.0, -1.0], [0.0, -1.0],
                                [0.0, 1.0], [-1.0, 1.0]]))
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    ratio, std, violations = volume_ratio(inner, square(1.0), box,
                                          n_samples=40_000)
    assert ratio == pytest.approx(0.5, abs=3 * std + 1e-3)
    assert violations == 0


def test_volume_gap_flags_containment_violations():
    # "inner" sticks out of the outer set: violations must be reported
    big = square(1.0)
    small = square(0.5)
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    _, _, violations = volume_ratio(big, small, box)
    assert violations > 0
