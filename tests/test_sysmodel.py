import math

import numpy as np
import pytest

from tubereach.geometry import box_polytope
from tubereach.sysmodel import (GaussianDisturbance, StochasticLTVSystem,
                                TargetTube, cwh_los_tube, dubins_headings,
                                make_cwh, make_dubins, make_integrator_chain,
                                make_uncontrolled, nominal_dubins_tube,
                                step_moments, viability_tube)

from oracles import concat_matrices, contains_trajectory, state_mean_cov


def test_disturbance_validation():
    with pytest.raises(ValueError):
        GaussianDisturbance.iid(np.zeros(2), -np.eye(2), 3)
    with pytest.raises(ValueError):
        GaussianDisturbance.iid(np.zeros(2), np.array([[1.0, 0.5],
                                                       [0.4, 1.0]]), 3)


def test_integrator_chain_matrices():
    sys = make_integrator_chain(2, 0.1, 10, 0.01, 0.1)
    np.testing.assert_allclose(sys.A_seq[0], [[1.0, 0.1], [0.0, 1.0]])
    np.testing.assert_allclose(sys.B_seq[0].ravel(), [0.005, 0.1])


def test_integrator_chain_semigroup():
    # ZOH property: A(t1) @ A(t2) == A(t1 + t2)
    a1 = make_integrator_chain(4, 0.1, 1, 0.01, 1.0).A_seq[0]
    a2 = make_integrator_chain(4, 0.25, 1, 0.01, 1.0).A_seq[0]
    a3 = make_integrator_chain(4, 0.35, 1, 0.01, 1.0).A_seq[0]
    np.testing.assert_allclose(a1 @ a2, a3, atol=1e-12)


def test_integrator_chain_40d_corner_entry():
    sys = make_integrator_chain(40, 0.1, 1, 0.01, 1.0)
    assert sys.A_seq[0][0, 39] == pytest.approx(0.1 ** 39 / math.factorial(39))


def test_concat_matches_step_simulation():
    rng = np.random.default_rng(0)
    n, m, nsteps = 3, 2, 4
    a_seq = [rng.normal(size=(n, n)) for _ in range(nsteps)]
    b_seq = [rng.normal(size=(n, m)) for _ in range(nsteps)]
    dist = GaussianDisturbance.iid(rng.normal(size=n), np.eye(n), nsteps)
    sys = StochasticLTVSystem(A_seq=a_seq, B_seq=b_seq, disturbance=dist,
                              input_set=box_polytope(np.zeros(m), np.ones(m)),
                              horizon=nsteps)
    cd = concat_matrices(sys)
    for _ in range(1000):
        x0 = rng.normal(size=n)
        u = rng.normal(size=m * nsteps)
        w = rng.normal(size=n * nsteps)
        # direct step-by-step rollout
        x = x0
        traj = []
        for k in range(nsteps):
            x = a_seq[k] @ x + b_seq[k] @ u[k * m:(k + 1) * m] \
                + w[k * n:(k + 1) * n]
            traj.append(x)
        stacked = cd.Acal @ x0 + cd.H @ u + cd.G @ w
        np.testing.assert_allclose(stacked, np.concatenate(traj), atol=1e-10)


def random_ltv_system(rng, n, m, nsteps):
    """Time-varying system with nonzero, per-step disturbance means and
    full covariances."""
    covs = []
    for _ in range(nsteps):
        f = rng.normal(size=(n, n))
        covs.append(f @ f.T)
    dist = GaussianDisturbance([rng.normal(size=n) for _ in range(nsteps)],
                               covs)
    return StochasticLTVSystem(
        A_seq=[rng.normal(size=(n, n)) for _ in range(nsteps)],
        B_seq=[rng.normal(size=(n, m)) for _ in range(nsteps)],
        disturbance=dist,
        input_set=box_polytope(np.zeros(m), np.ones(m)) if m else None,
        horizon=nsteps)


def assert_close(actual, expected):
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(actual - expected).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("m", [2, 0])
def test_step_moments_match_stacked_oracle(m):
    rng = np.random.default_rng(7 + m)
    n, nsteps = 3, 6
    sys = random_ltv_system(rng, n, m, nsteps)
    cd = concat_matrices(sys)
    mean_w = cd.G @ cd.muW
    cov_w = cd.G @ cd.CW @ cd.G.T
    moments = step_moments(sys)
    assert len(moments) == nsteps
    for k, (phi, h, mu, cov) in enumerate(moments, start=1):
        rows = slice((k - 1) * n, k * n)
        assert h.shape == (n, m * nsteps)
        assert_close(phi, cd.Acal[rows])
        assert_close(h, cd.H[rows])
        assert_close(mu, mean_w[rows])
        assert_close(cov, cov_w[rows, rows])


def test_state_mean_cov_shapes():
    sys = make_integrator_chain(2, 0.1, 5, 0.01, 0.1)
    cd = concat_matrices(sys)
    mean, cov = state_mean_cov(cd, np.zeros(2), np.zeros(5))
    assert mean.shape == (10,)
    assert cov.shape == (10, 10)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def test_zero_input_dimension():
    sys = make_uncontrolled(3, gain=0.8, cov=0.05, horizon=4)
    assert sys.input_dim == 0
    cd = concat_matrices(sys)
    assert cd.H.shape[1] == 0


def test_uncontrolled_concat_geometric_decay():
    sys = make_uncontrolled(1, gain=0.5, cov=0.01, horizon=3)
    cd = concat_matrices(sys)
    np.testing.assert_allclose(cd.Acal.ravel(), [0.5, 0.25, 0.125])


def test_cwh_decouples_as_orbital_rate_vanishes():
    slow = make_cwh(orbital_rate=1e-9, sampling_time=1.0, horizon=1)
    a = slow.A_seq[0]
    # position rows approach the double-integrator ZOH form
    np.testing.assert_allclose(a[0, :2], [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(a[0, 2], 1.0, atol=1e-6)
    np.testing.assert_allclose(a[2, 2], 1.0, atol=1e-6)


def test_cwh_tube_shapes():
    tube = cwh_los_tube(5)
    assert tube.horizon == 5
    assert tube.dim == 4
    # terminal docking box is inside the cone region
    lo, hi = tube[5].interval_bounds()
    assert hi[0] <= 0.1 + 1e-9


def test_dubins_first_input_column():
    # heading schedule from the known initial heading and turn rates
    sys = make_dubins(0.1, 50, 0.1 * math.pi, [0.2 * math.pi] * 50, 10.0,
                      cov_eta=0.001 * np.eye(2))
    np.testing.assert_allclose(sys.B_seq[0].ravel(),
                               [0.0951057, 0.0309017], atol=1e-6)


def test_dubins_heading_accumulates():
    h = dubins_headings(0.0, 0.5, [1.0, 1.0, 1.0], 3)
    np.testing.assert_allclose(h, [0.0, 0.5, 1.0])


def test_dubins_nominal_tube_follows_rollout():
    sys = make_dubins(0.1, 10, 0.0, [0.0] * 10, 1.0,
                      cov_eta=0.001 * np.eye(2))
    tube = nominal_dubins_tube(sys, 0.5)
    assert tube.horizon == 10
    # centers drift along the heading; boxes shrink over time
    lo0, hi0 = tube[0].interval_bounds()
    lo9, hi9 = tube[10].interval_bounds()
    assert (hi9 - lo9)[0] < (hi0 - lo0)[0]


def test_target_tube_validation():
    b2 = box_polytope(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        TargetTube([b2])  # needs at least horizon 1
    b1 = box_polytope(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        TargetTube([b2, b1])  # dimension mismatch


def test_target_tube_contains_trajectory():
    tube = viability_tube(1, 1.0, 2)
    assert contains_trajectory(tube, [[0.0], [0.5], [-0.5]])
    assert not contains_trajectory(tube, [[0.0], [1.5], [0.0]])


def test_viability_tube_terminal_override():
    tube = viability_tube(2, 10.0, 5, terminal_half_width=8.0)
    lo, hi = tube[5].interval_bounds()
    np.testing.assert_allclose(hi, [8.0, 8.0])
    lo, hi = tube[4].interval_bounds()
    np.testing.assert_allclose(hi, [10.0, 10.0])


def test_lti_horizon_mismatch_rejected():
    with pytest.raises(ValueError):
        StochasticLTVSystem(
            A_seq=[np.eye(1)] * 3, B_seq=[np.ones((1, 1))] * 2,
            disturbance=GaussianDisturbance.iid(np.zeros(1), np.eye(1), 3),
            input_set=box_polytope(np.zeros(1), np.ones(1)), horizon=3)
