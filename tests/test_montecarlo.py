import json

import numpy as np
import pytest

from tubereach.geometry import (DirectionSet, VPolytope, box_polytope)
from tubereach.montecarlo import (simulate_reach_prob, validate_vertices,
                                  volume_ratio)
from tubereach.reachalgo import compute_reach_set
from tubereach.sysmodel import (StochasticLTVSystem, cwh_los_tube, make_cwh,
                                make_integrator_chain, make_uncontrolled,
                                viability_tube)


def test_start_outside_initial_set_is_zero(sys1d, tube1d):
    p, s = simulate_reach_prob(sys1d, tube1d, np.array([1.5]),
                               np.zeros(5), 1000)
    assert p == 0.0 and s == 0.0


def test_near_deterministic_interior_start_is_one():
    sys = StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), 1e-12 * np.eye(1),
        box_polytope(np.zeros(1), np.array([0.5])), 4)
    tube = viability_tube(1, 1.0, 4)
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
    # values of the rollout that drew fresh arrays at every step; the
    # in-place buffers must reproduce them bit for bit.  The cwh tube has
    # 10 rows per step and 8 at the end; the uncontrolled chain has no input.
    cwh_u = np.array([0.00966, -0.00612, -0.03455, 0.01602, 0.04953,
                      -0.02149, -0.03386, 0.02136, 0.00954, -0.01017])
    cases = [
        (sys1d, tube1d, [0.1], np.full(5, -0.05), 5000, 42,
         (0.1488, 0.005033061891135455)),
        (make_integrator_chain(2, 0.1, 10, 0.01, 0.1),
         viability_tube(2, 1.0, 10), [0.3, -0.2],
         0.1 * np.sin(np.arange(10)), 3000, 7,
         (0.989, 0.001904293394761778)),
        (make_cwh(), cwh_los_tube(5), [0.0, -0.7071, 0.0, 0.0], cwh_u,
         2000, 3, (0.85, 0.007984359711335657)),
        (make_uncontrolled(3),
         viability_tube(3, 1.0, 10, terminal_half_width=0.8),
         [0.2, 0.0, -0.1], None, 4000, 11,
         (0.85175, 0.005618539345328107)),
    ]
    for sys, tube, x0, u, n_traj, seed, expected in cases:
        assert simulate_reach_prob(sys, tube, np.array(x0), u, n_traj,
                                   seed=seed) == expected


def test_small_sample_rejected(sys1d, tube1d):
    with pytest.raises(ValueError, match="n_traj"):
        simulate_reach_prob(sys1d, tube1d, np.zeros(1), np.zeros(5), 50)


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
    assert len(data["records"]) == len(report.records)
    path = tmp_path / "validation.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("x0,")
    assert len(lines) == len(report.records) + 1


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
