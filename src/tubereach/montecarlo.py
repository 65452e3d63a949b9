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


# trajectories rolled out together; the rollout's buffers hold this many
# columns, so memory does not grow with n_traj
_CHUNK = 16384


def _binomial_std(c1: int, c2: int, n_vertices: int, n_traj: int) -> float:
    """Standard error of the mean of s_j = c_j / n_vertices over n_traj
    trajectories, from the exact sums c1 = sum c_j and c2 = sum c_j^2."""
    var = (c2 * n_traj - c1 * c1) / (n_vertices * n_vertices * n_traj * n_traj)
    return float(np.sqrt(var / n_traj))


def simulate_reach_probs(sys: StochasticLTVSystem, tube: TargetTube, x0s, Us,
                         n_traj: int, seed: int = 0
                         ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Empirical probabilities that open-loop trajectories from each x0s[v]
    under Us[v] (None: zero input) stay in the tube at every step, their
    binomial standard deviations, and the standard error of their mean.

    All vertices share one noise draw from the Philox stream `seed` (common
    random numbers), so each vertex's estimate equals the one it gets
    alone, and the vertices' estimates are positively correlated; the
    standard error of their mean is exact under that correlation.  A
    trajectory is x_k = m_k + e_k: the mean path m_k depends on the vertex,
    the zero-mean noise path e_k does not.  The noise path is projected
    once per step onto the tube rows, and each vertex compares those
    projections with its own margins.  Trajectories are rolled out in
    chunks of _CHUNK, so memory does not grow with n_traj: a few buffers of
    one chunk, and one flag per vertex and trajectory of the chunk."""
    if n_traj < 100:
        raise ValueError("n_traj must be at least 100")
    x0s = [np.asarray(x0, dtype=float).ravel() for x0 in x0s]
    Us = list(Us)
    if not x0s or len(Us) != len(x0s):
        raise ValueError("need at least one initial state and one input "
                         "sequence (or None) per initial state")
    n, m, N = sys.state_dim, sys.input_dim, sys.horizon
    inside = [v for v, x0 in enumerate(x0s) if tube[0].contains(x0)]

    # margins[k][v, i]: how far row i of T_{k+1} lies beyond the mean state
    # of vertex inside[v], with the 1e-12 slack of a closed-set test; each
    # vertex on its own, so its margins do not depend on the batch
    margins = [np.empty((len(inside), tube[k + 1].n_rows)) for k in range(N)]
    for v, idx in enumerate(inside):
        mean = x0s[idx]
        u = None if Us[idx] is None else np.asarray(Us[idx], dtype=float).ravel()
        for k in range(N):
            mean = sys.A_seq[k] @ mean + sys.disturbance.mean_per_step[k]
            if m and u is not None:
                mean = mean + sys.B_seq[k] @ u[k * m:(k + 1) * m]
            t = tube[k + 1]
            margins[k][v] = t.offsets + 1e-12 - t.normals @ mean
    factors = [_cov_factor(c) for c in sys.disturbance.cov_per_step]

    counts = np.zeros(len(x0s), dtype=np.int64)
    c1 = c2 = 0  # sums over trajectories of (vertices kept) and its square
    rng = np.random.Generator(np.random.Philox(seed))
    rows = max(t.n_rows for t in tube.sets[1:])
    size = min(_CHUNK, n_traj)
    # flat buffers, viewed per chunk as contiguous (rows, chunk) blocks:
    # the noise state e, its propagation A e, the draw, the projections
    e_buf, ae_buf, draw_buf = (np.empty(n * size) for _ in range(3))
    z_buf = np.empty(rows * size)
    alive_buf = np.empty(len(inside) * size, dtype=bool)
    ok_buf = np.empty(size, dtype=bool)
    # nothing to roll out when every vertex starts outside T_0
    for start in range(0, n_traj if inside else 0, size):
        c = min(size, n_traj - start)
        e, ae, draw = (b[:n * c].reshape(n, c)
                       for b in (e_buf, ae_buf, draw_buf))
        alive = alive_buf[:len(inside) * c].reshape(len(inside), c)
        ok = ok_buf[:c]
        e[:] = 0.0
        alive[:] = True
        for k in range(N):
            rng.standard_normal(out=draw)
            np.matmul(sys.A_seq[k], e, out=ae)
            np.matmul(factors[k], draw, out=e)
            e += ae
            t = tube[k + 1]
            z = z_buf[:t.n_rows * c].reshape(t.n_rows, c)
            np.matmul(t.normals, e, out=z)
            for keep, bound in zip(alive, margins[k]):
                for i in range(t.n_rows):
                    np.less_equal(z[i], bound[i], out=ok)
                    keep &= ok
        kept = alive.sum(axis=0, dtype=np.int64)
        c1 += int(kept.sum())
        c2 += int((kept * kept).sum())
        counts[inside] += np.count_nonzero(alive, axis=1)
    probs = counts / n_traj
    stds = np.array([_binomial_std(int(k), int(k), 1, n_traj) for k in counts])
    return probs, stds, _binomial_std(c1, c2, len(x0s), n_traj)


def simulate_reach_prob(sys: StochasticLTVSystem, tube: TargetTube, x0, U,
                        n_traj: int, seed: int = 0) -> Tuple[float, float]:
    """Empirical probability that open-loop trajectories from x0 stay in
    the tube at every step, with its binomial standard deviation."""
    probs, stds, _ = simulate_reach_probs(sys, tube, [x0], [U], n_traj, seed)
    return float(probs[0]), float(stds[0])


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
    open-loop controllers, compared against the threshold alpha.

    pooled_binomial_std is the standard error of mean_error.  The vertices
    share their trajectories, so their estimates are correlated and it is
    measured over the trajectories: the spread of the share of vertices
    each trajectory keeps in the tube."""

    records: List[VertexRecord]
    alpha: float
    n_traj: int
    seed: int
    pooled_binomial_std: float

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    @property
    def std_error(self) -> float:
        return float(self.errors.std(ddof=1)) if len(self.records) > 1 else 0.0

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "pooled_binomial_std": self.pooled_binomial_std,
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
    (the anchor when there is none) and report the empirical probability
    against alpha.

    Every vertex is rolled out on the same n_traj trajectories, drawn from
    the Philox stream `seed` (common random numbers).  Each vertex's
    estimate equals simulate_reach_prob of that vertex alone at `seed`,
    and memory is bounded by the trajectory chunk, whatever n_traj."""
    if result.is_empty:
        raise ValueError("cannot validate an empty result")
    points = [(bp.point, bp.U) for bp in result.boundary_points
              if bp.status == "ok" and bp.U is not None]
    if not points and result.anchor.U is not None:
        points = [(result.anchor.x_anchor, result.anchor.U)]
    records, pooled = [], float("nan")
    if points:
        probs, stds, pooled = simulate_reach_probs(
            sys, tube, [x for x, _ in points], [u for _, u in points],
            n_traj, seed)
        records = [VertexRecord(point=x, alpha=result.alpha,
                                empirical_probability=float(p),
                                binomial_std=float(sd))
                   for (x, _), p, sd in zip(points, probs, stds)]
    return ValidationReport(records=records, alpha=result.alpha,
                            n_traj=n_traj, seed=seed,
                            pooled_binomial_std=pooled)
