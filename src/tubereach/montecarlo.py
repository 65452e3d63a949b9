"""Trajectory simulation and empirical validation of computed reach sets.

Counter-based RNG (Philox) everywhere so runs are reproducible and
trajectory batches can be parallelized without coordination.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geometry import VPolytope, convex_hull_2d
from .reachalgo import ReachSetResult
from .sysmodel import StochasticLTVSystem, TargetTube


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Sampling factor L with L L^T = cov, tolerant of semidefinite cov."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def simulate_reach_prob(sys: StochasticLTVSystem, tube: TargetTube, x0, U,
                        n_traj: int, seed: int = 0) -> Tuple[float, float]:
    """Empirical probability that open-loop trajectories from x0 stay in
    the tube at every step, with its binomial standard deviation."""
    if n_traj < 100:
        raise ValueError("n_traj must be at least 100")
    x0 = np.asarray(x0, dtype=float).ravel()
    if not tube[0].contains(x0):
        return 0.0, 0.0
    m = sys.input_dim
    u_vec = np.zeros(m * sys.horizon) if U is None else \
        np.asarray(U, dtype=float).ravel()
    rng = np.random.Generator(np.random.Philox(seed))

    # buffers filled in place at every step: the noise draw (which then
    # takes the next state), the disturbance, the state, and each
    # trajectory's projections onto the rows of the tube set
    rows = max(t.n_rows for t in tube.sets[1:])
    draw, w, x = (np.empty((n_traj, sys.state_dim)) for _ in range(3))
    proj = np.empty(n_traj * rows)
    inside = np.empty(n_traj * rows, dtype=bool)
    ok = np.empty(n_traj, dtype=bool)
    x[:] = x0
    alive = np.ones(n_traj, dtype=bool)
    for k in range(sys.horizon):
        rng.standard_normal(out=draw)
        np.matmul(draw, _cov_factor(sys.disturbance.cov_per_step[k]).T,
                  out=w)
        w += sys.disturbance.mean_per_step[k]
        np.matmul(x, sys.A_seq[k].T, out=draw)
        draw += w
        if m:
            draw += sys.B_seq[k] @ u_vec[k * m:(k + 1) * m]
        x, draw = draw, x
        t = tube[k + 1]
        shape = (n_traj, t.n_rows)
        proj_k = proj[:n_traj * t.n_rows].reshape(shape)
        inside_k = inside[:proj_k.size].reshape(shape)
        np.matmul(x, t.normals.T, out=proj_k)
        np.less_equal(proj_k, t.offsets + 1e-12, out=inside_k)
        alive &= np.all(inside_k, axis=1, out=ok)
    p = float(alive.mean())
    return p, float(np.sqrt(p * (1.0 - p) / n_traj))


@dataclass
class VertexRecord:
    point: np.ndarray
    alpha: float
    empirical_probability: float
    binomial_std: float

    @property
    def error(self) -> float:
        return self.empirical_probability - self.alpha


@dataclass
class ValidationReport:
    """Per-vertex empirical reach probabilities under the stored
    open-loop controllers, compared against the threshold alpha."""

    records: List[VertexRecord]
    alpha: float
    n_traj: int
    seed: int

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    @property
    def std_error(self) -> float:
        return float(self.errors.std(ddof=1)) if len(self.records) > 1 else 0.0

    @property
    def pooled_binomial_std(self) -> float:
        stds = np.array([r.binomial_std for r in self.records])
        return float(np.sqrt(np.mean(stds ** 2) / len(self.records)))

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "records": [
                {"point": r.point.tolist(),
                 "empirical_probability": r.empirical_probability,
                 "binomial_std": r.binomial_std,
                 "error": r.error}
                for r in self.records
            ],
        }, indent=2, sort_keys=True)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            dim = self.records[0].point.size if self.records else 0
            w.writerow([f"x{i}" for i in range(dim)]
                       + ["empirical_probability", "binomial_std", "error"])
            for r in self.records:
                w.writerow([f"{v:.12g}" for v in r.point]
                           + [f"{r.empirical_probability:.12g}",
                              f"{r.binomial_std:.12g}", f"{r.error:.12g}"])


def validate_vertices(result: ReachSetResult, sys: StochasticLTVSystem,
                      tube: TargetTube, n_traj: int,
                      seed: int = 0) -> ValidationReport:
    """Simulate each certified boundary point under its stored controller
    and report the empirical probability against alpha."""
    if result.is_empty:
        raise ValueError("cannot validate an empty result")
    records = []
    i = 0
    for bp in result.boundary_points:
        if bp.status != "ok" or bp.U is None:
            continue
        p, s = simulate_reach_prob(sys, tube, bp.point, bp.U, n_traj,
                                   seed=seed + i)
        records.append(VertexRecord(point=bp.point, alpha=result.alpha,
                                    empirical_probability=p, binomial_std=s))
        i += 1
    if not records and result.anchor.U is not None:
        p, s = simulate_reach_prob(sys, tube, result.anchor.x_anchor,
                                   result.anchor.U, n_traj, seed=seed)
        records.append(VertexRecord(point=result.anchor.x_anchor,
                                    alpha=result.alpha,
                                    empirical_probability=p, binomial_std=s))
    return ValidationReport(records=records, alpha=result.alpha,
                            n_traj=n_traj, seed=seed)


def _membership(vp: VPolytope, pts: np.ndarray) -> np.ndarray:
    """Vectorized point-in-polytope for 2D hulls; LP fallback otherwise."""
    if vp.dim == 2 and vp.n_vertices >= 3:
        hull = convex_hull_2d(vp.vertices)
        v = hull.vertices
        out = np.ones(pts.shape[0], dtype=bool)
        for i in range(v.shape[0]):
            a, b = v[i], v[(i + 1) % v.shape[0]]
            edge = b - a
            # counterclockwise hull: interior lies left of each edge
            cross = edge[0] * (pts[:, 1] - a[1]) - edge[1] * (pts[:, 0] - a[0])
            out &= cross >= -1e-12
        return out
    return np.array([vp.contains(p) for p in pts])


def volume_ratio(inner: VPolytope, outer: VPolytope, bounding_box,
                 n_samples: int = 20000,
                 seed: int = 0) -> Tuple[float, float, int]:
    """Hit-or-miss estimate of vol(outer \\ inner) / vol(box).

    Returns (ratio, sampling std, count of sampled points found in inner
    but not outer — nonzero indicates inner is not contained in outer).
    """
    lo = np.asarray(bounding_box[0], dtype=float).ravel()
    hi = np.asarray(bounding_box[1], dtype=float).ravel()
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.uniform(lo, hi, size=(n_samples, lo.size))
    in_inner = _membership(inner, pts)
    in_outer = _membership(outer, pts)
    hits = in_outer & ~in_inner
    ratio = float(hits.mean())
    std = float(np.sqrt(ratio * (1.0 - ratio) / n_samples))
    violations = int(np.count_nonzero(in_inner & ~in_outer))
    return ratio, std, violations
