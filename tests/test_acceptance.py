"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a
single PASS line (with its runtime) straight to the terminal, bypassing
pytest capture, so a full run yields one line per criterion.
"""
import json
import os
import sys
import time

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from tubereach.chance import RiskLP
from tubereach.cli import EXIT_OK, main as cli_main
from tubereach.geometry import DirectionSet, spread_directions
from tubereach.montecarlo import validate_vertices
from tubereach.reachalgo import compute_reach_set, dp_values, interpolate_sets
from tubereach.sysmodel import (make_integrator_chain, make_uncontrolled,
                                step_moments, viability_tube)

from oracles import (MvnBox, concat_matrices, genz_mvn_probability,
                     state_mean_cov)
from test_lpsolve import brute_force_min, random_bounded_lp


RESULTS = []


def announce(num, detail, elapsed):
    line = f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {detail}"
    RESULTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def level_interval(table, alpha):
    idx = np.flatnonzero(table.values[0] >= alpha)
    if idx.size == 0:
        return None
    return table.grids[0][idx[0]], table.grids[0][idx[-1]]


def vertices_in_dilated_level_set(polytope, table, alpha):
    """Max Chebyshev distance from each vertex to a cell certified at
    alpha; containment in the one-cell dilation means max <= spacing."""
    mesh = np.meshgrid(*table.grids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    good = pts[(table.values[0] >= alpha).ravel()]
    if good.size == 0:
        return np.inf
    gaps = []
    for v in polytope.vertices:
        gaps.append(np.abs(good - v).max(axis=1).min())
    return max(gaps)


def test_criterion_1_scalar_example(sys1d, tube1d, pwa):
    t0 = time.perf_counter()
    table = dp_values(sys1d, tube1d, 0.01, 0.01)
    closed_loop = level_interval(table, 0.8)
    assert closed_loop is not None  # feedback policies succeed at 0.8

    dirs = DirectionSet(np.array([[1.0], [-1.0]]))
    res08 = compute_reach_set(sys1d, tube1d, 0.8, dirs, pwa=pwa)
    # the open-loop set at 0.8 is empty here (the step-5 marginal alone
    # caps the open-loop probability below 0.8); the empty interval is
    # trivially inside the dilated level interval
    assert res08.is_empty

    # nonempty behavior is exercised at 0.6, where containment is real
    res06 = compute_reach_set(sys1d, tube1d, 0.6, dirs, pwa=pwa)
    assert not res06.is_empty
    lo, hi = level_interval(table, 0.6)
    verts = res06.polytope.vertices.ravel()
    assert verts.min() >= lo - 0.01
    assert verts.max() <= hi + 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(1, f"open-loop interval [{verts.min():+.4f}, {verts.max():+.4f}]"
                f" inside DP interval [{lo:+.4f}, {hi:+.4f}];"
                " 0.8-set empty (marginal cap)", elapsed)


@pytest.fixture(scope="module")
def dp2d(sys2d, tube2d):
    return dp_values(sys2d, tube2d, 0.05, 0.05)


@pytest.fixture(scope="module")
def integrator_sets(sys2d, tube2d, pwa):
    dirs = spread_directions(32, 2)
    return {a: compute_reach_set(sys2d, tube2d, a, dirs, pwa=pwa)
            for a in (0.6, 0.9)}


def test_criterion_2_double_integrator(sys2d, tube2d, dp2d, integrator_sets):
    t0 = time.perf_counter()
    for alpha, res in integrator_sets.items():
        assert res.status == "ok"
        gap = vertices_in_dilated_level_set(res.polytope, dp2d, alpha)
        assert gap <= 0.05
        # strictly positive conservatism: DP-certified cells outside the
        # open-loop polytope
        mesh = np.meshgrid(*dp2d.grids, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        good = pts[(dp2d.values[0] >= alpha).ravel()]
        outside = sum(1 for p in good
                      if not res.polytope.contains(p, tol=1e-9))
        assert outside > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    announce(2, f"32-direction polytopes inside dilated DP level sets "
                f"at 0.6 and 0.9", elapsed)


def test_criterion_3_interpolation(dp2d, integrator_sets):
    t0 = time.perf_counter()
    mid = interpolate_sets(integrator_sets[0.6], integrator_sets[0.9], 0.85)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    gap = vertices_in_dilated_level_set(mid, dp2d, 0.85)
    assert gap <= 0.05
    announce(3, f"0.85 interpolant ({mid.n_vertices} vertices) inside "
                f"dilated DP level set; interpolation {elapsed * 1e3:.1f}ms",
             elapsed)


def test_criterion_4_forty_dim_chain(pwa):
    t0 = time.perf_counter()
    sys = make_integrator_chain(40, 0.1, 5, 0.01, 1.0)
    tube = viability_tube(40, 10.0, 5, terminal_half_width=8.0)
    dirs = spread_directions(8, 40, (0, 1))
    for alpha in (0.6, 0.9):
        res = compute_reach_set(sys, tube, alpha, dirs, pwa=pwa)
        assert res.status == "ok"
        assert res.polytope.n_vertices >= 3
        report = validate_vertices(res, sys, tube, 10_000, seed=0)
        for r in report.records:
            assert r.empirical_probability >= alpha - 3 * r.binomial_std
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    announce(4, "40D sets nonempty at 0.6/0.9; all vertices pass "
                "10k-trajectory validation", elapsed)


def test_criterion_5_uncontrolled_scaling(pwa):
    t0 = time.perf_counter()
    times, rows = {}, {}
    for n in range(2, 7):
        sys = make_uncontrolled(n, gain=0.8, cov=0.05, horizon=10)
        tube = viability_tube(n, 1.0, 10)
        rows[n] = sum(t.normals.shape[0] for t in tube.sets)
        dirs = spread_directions(8, n, (0, 1))
        t1 = time.perf_counter()
        res = compute_reach_set(sys, tube, 0.6, dirs, pwa=pwa)
        times[n] = time.perf_counter() - t1
        assert res.status == "ok"
        if n == 2:
            anchor = RiskLP(sys, tube, 0.6, pwa).anchor("xmax")
            assert anchor.feasible
            # the reach probability from the anchor with no inputs: the
            # stacked state must lie in the stacked boxes T_1 .. T_N
            assert tube[0].contains(anchor.x_anchor)
            mean, cov = state_mean_cov(concat_matrices(sys), anchor.x_anchor)
            lows, highs = zip(*(tube[k].as_box_bounds()
                                for k in range(1, tube.horizon + 1)))
            w0, sd = genz_mvn_probability(
                MvnBox(mean=mean, cov=cov, lower=np.concatenate(lows),
                       upper=np.concatenate(highs)), samples=2048)
            assert anchor.lower_bound <= w0 + 3 * sd
    # per-n runtime grows no worse than quadratically in the tube rows
    # (generous constant to absorb timing noise)
    base = max(times[2], 0.05)
    for n in range(3, 7):
        assert times[n] <= 4.0 * base * (rows[n] / rows[2]) ** 2
    announce(5, f"certified bound below sampled probability; runtimes "
                f"{ {n: round(t, 2) for n, t in times.items()} }",
             time.perf_counter() - t0)


def test_criterion_6_vertex_validation(sys2d, tube2d, integrator_sets):
    t0 = time.perf_counter()
    res = integrator_sets[0.6]
    report = validate_vertices(res, sys2d, tube2d, 100_000, seed=0)
    assert len(report.records) >= 32
    assert report.mean_error >= -3 * report.pooled_binomial_std
    announce(6, f"mean vertex error {report.mean_error:+.4f} over "
                f"{len(report.records)} points at 100k trajectories",
             time.perf_counter() - t0)


def test_criterion_7_oracles(pwa):
    t0 = time.perf_counter()
    # (a) LP solver against brute-force vertex enumeration
    from tubereach.lpsolve import solve_lp
    rng = np.random.default_rng(np.random.Philox(11))
    checked = 0
    while checked < 200:
        lp = random_bounded_lp(rng, int(rng.integers(2, 5)))
        ref, _ = brute_force_min(**lp)
        if ref is None:
            continue
        sol = solve_lp(**lp)
        assert sol.optimal
        assert abs(sol.objective_value - ref) < 1e-7
        checked += 1

    # (b) piecewise-affine envelope over-approximates the Gaussian tail
    # quantile everywhere on its domain
    deltas = np.exp(rng.uniform(np.log(pwa.domain[0]),
                                np.log(pwa.domain[1]), 10_000))
    exact = ndtri(1.0 - deltas)
    approx = pwa.envelope(deltas)
    assert np.all(approx >= exact - 1e-12)
    assert np.max(approx - exact) <= pwa.tol + 1e-12

    # (c) box-probability estimator against product of marginals
    for dim in (1, 2, 4, 7):
        var = rng.uniform(0.5, 2.0, dim)
        lo = rng.uniform(-2.0, -0.5, dim)
        hi = rng.uniform(0.5, 2.0, dim)
        box = MvnBox(mean=np.zeros(dim), cov=np.diag(var), lower=lo, upper=hi)
        est, sd = genz_mvn_probability(box, samples=10_000)
        exact = np.prod(ndtr(hi / np.sqrt(var)) - ndtr(lo / np.sqrt(var)))
        assert abs(est - exact) <= 3 * sd + 1e-6

    # (d) stacked one-shot propagation, and the forward recursion's mean
    # path, against step-by-step simulation
    sys = make_integrator_chain(3, 0.1, 6, 0.01, 0.5)
    cd = concat_matrices(sys)
    moments = step_moments(sys)
    for _ in range(1000):
        x0 = rng.normal(size=3)
        u = rng.uniform(-0.5, 0.5, 6)
        w = rng.normal(0.0, 0.1, (6, 3))
        x, traj = x0.copy(), []
        x_mean, mean_path = x0.copy(), []
        for k in range(6):
            x = sys.A_seq[k] @ x + sys.B_seq[k][:, 0] * u[k] + w[k]
            traj.append(x)
            x_mean = sys.A_seq[k] @ x_mean + sys.B_seq[k][:, 0] * u[k] \
                + sys.disturbance.mean_per_step[k]
            mean_path.append(x_mean)
        stacked = cd.Acal @ x0 + cd.H @ u + cd.G @ w.ravel()
        assert np.abs(stacked - np.concatenate(traj)).max() < 1e-10
        recursed = [phi @ x0 + h @ u + mu for phi, h, mu, _ in moments]
        assert np.abs(np.concatenate(recursed)
                      - np.concatenate(mean_path)).max() < 1e-10
    announce(7, "LP / quantile envelope / box probability / propagation "
                "oracles all match", time.perf_counter() - t0)


def test_criterion_8_anytime_parallel(sys2d, tube2d, pwa, tmp_path):
    t0 = time.perf_counter()
    dirs = spread_directions(8, 2)
    full = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa)
    for prefix in (2, 4, 6):
        part = compute_reach_set(sys2d, tube2d, 0.6, dirs, pwa=pwa,
                                 max_directions=prefix)
        for v in part.polytope.vertices:
            assert full.polytope.contains(v, tol=1e-6)
        for b in part.boundary_points:
            if b.status == "ok":
                assert b.lower_bound >= 0.6 - 1e-9

    cfg = {
        "system": {"type": "integrator", "dimension": 2,
                   "sampling_time": 0.1, "covariance": 0.01,
                   "input_bound": 0.1},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 10, "alphas": [0.6], "directions": {"count": 8},
        "seed": 0,
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    a, b = tmp_path / "j1", tmp_path / "j4"
    assert cli_main(["compute", str(cpath), "-d", str(a), "-j", "1"]) == EXIT_OK
    assert cli_main(["compute", str(cpath), "-d", str(b), "-j", "4"]) == EXIT_OK
    for name in sorted(os.listdir(a)):
        if name == "timings.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    announce(8, "prefix hulls nested with certified bounds; 1- vs "
                "4-worker artifacts byte-identical",
             time.perf_counter() - t0)
