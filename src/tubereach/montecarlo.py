"""Trajectory simulation and empirical validation of computed reach sets.

Counter-based RNG (Philox) everywhere, so runs are reproducible and
trajectory chunks are rolled out in parallel without coordination: chunk j
of a run at `seed` draws from Philox(seed).jumped(j), its own stream.  The
chunks go to one worker thread per CPU available; each worker holds the
buffers of one chunk, so memory is bounded by workers x chunk.  Workers
return integer counts, summed after they join, so every estimate is the
same whatever the worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Tuple

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


# trajectories rolled out together; each worker's buffers hold this many
# columns, so memory does not grow with n_traj
_CHUNK = 8192


def _cpus() -> int:
    """CPUs this process may run on: the rollout's worker count, capped
    at the number of chunks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _binomial_std(c1: int, c2: int, n_vertices: int, n_traj: int) -> float:
    """Standard error of the mean of s_j = c_j / n_vertices over n_traj
    trajectories, from the exact sums c1 = sum c_j and c2 = sum c_j^2."""
    var = (c2 * n_traj - c1 * c1) / (n_vertices * n_vertices * n_traj * n_traj)
    return float(np.sqrt(var / n_traj))


def _roll_chunks(sys: StochasticLTVSystem, tube: TargetTube, factors,
                 margins, n_traj: int, seed: int, chunks: Iterable[int]
                 ) -> Tuple[np.ndarray, int, int]:
    """Roll out the given chunks, chunk j being trajectories j*_CHUNK on,
    drawn from the stream Philox(seed).jumped(j).  Returns how many of them
    each vertex keeps in the tube, and the sums over them of c (vertices
    kept) and of c^2.  The buffers belong to this call: flat, viewed per
    chunk as contiguous blocks of the noise state e, its propagation A e,
    the draw, the projections, and a flag per vertex and trajectory."""
    n, N = sys.state_dim, sys.horizon
    n_v = margins[0].shape[1]
    size = min(_CHUNK, n_traj)
    e_buf, ae_buf, draw_buf = (np.empty(n * size) for _ in range(3))
    z_buf = np.empty(max(t.n_rows for t in tube.sets[1:]) * size)
    alive_buf, ok_buf = (np.empty(n_v * size, dtype=bool) for _ in range(2))
    counts = np.zeros(n_v, dtype=np.int64)
    c1 = c2 = 0
    for j in chunks:
        rng = np.random.Generator(np.random.Philox(seed).jumped(j))
        c = min(size, n_traj - j * _CHUNK)
        e, ae, draw = (b[:n * c].reshape(n, c)
                       for b in (e_buf, ae_buf, draw_buf))
        alive, ok = (b[:n_v * c].reshape(n_v, c) for b in (alive_buf, ok_buf))
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
            # row i against every vertex's margin at once
            for zi, bound in zip(z, margins[k]):
                np.less_equal(zi, bound[:, None], out=ok)
                alive &= ok
        kept = alive.sum(axis=0, dtype=np.int64)
        c1 += int(kept.sum())
        c2 += int((kept * kept).sum())
        counts += np.count_nonzero(alive, axis=1)
    return counts, c1, c2


def simulate_reach_probs(sys: StochasticLTVSystem, tube: TargetTube, x0s, Us,
                         n_traj: int, seed: int = 0
                         ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Empirical probabilities that open-loop trajectories from each x0s[v]
    under Us[v] (None: zero input) stay in the tube at every step, their
    binomial standard deviations, and the standard error of their mean.

    All vertices share one noise draw (common random numbers), so each
    vertex's estimate equals the one it gets alone, and the vertices'
    estimates are positively correlated; the standard error of their mean
    is exact under that correlation.  A trajectory is x_k = m_k + e_k: the
    mean path m_k depends on the vertex, the zero-mean noise path e_k does
    not.  The noise path is projected once per step onto the tube rows,
    and each vertex compares those projections with its own margins.

    Trajectories go in chunks of _CHUNK; chunk j draws from the Philox
    stream Philox(seed).jumped(j), so a run of at most _CHUNK trajectories
    draws from Philox(seed) itself.  The chunks are rolled out on a thread
    pool of one worker per CPU available (at most one per chunk); each
    worker owns its generators and a few buffers of one chunk, so memory is
    bounded by workers x chunk, whatever n_traj.  The workers' results are
    integer counts, added up after the pool joins, so the estimates do not
    depend on the worker count."""
    if n_traj < 100:
        raise ValueError("n_traj must be at least 100")
    x0s = [np.asarray(x0, dtype=float).ravel() for x0 in x0s]
    Us = list(Us)
    if not x0s or len(Us) != len(x0s):
        raise ValueError("need at least one initial state and one input "
                         "sequence (or None) per initial state")
    m, N = sys.input_dim, sys.horizon
    inside = [v for v, x0 in enumerate(x0s) if tube[0].contains(x0)]

    # margins[k][i, v]: how far row i of T_{k+1} lies beyond the mean state
    # of vertex inside[v], with the 1e-12 slack of a closed-set test; each
    # vertex on its own, so its margins do not depend on the batch
    margins = [np.empty((tube[k + 1].n_rows, len(inside))) for k in range(N)]
    for v, idx in enumerate(inside):
        mean = x0s[idx]
        u = None if Us[idx] is None else np.asarray(Us[idx], dtype=float).ravel()
        for k in range(N):
            mean = sys.A_seq[k] @ mean + sys.disturbance.mean_per_step[k]
            if m and u is not None:
                mean = mean + sys.B_seq[k] @ u[k * m:(k + 1) * m]
            t = tube[k + 1]
            margins[k][:, v] = t.offsets + 1e-12 - t.normals @ mean
    factors = [_cov_factor(c) for c in sys.disturbance.cov_per_step]

    counts = np.zeros(len(x0s), dtype=np.int64)
    c1 = c2 = 0  # sums over trajectories of (vertices kept) and its square
    # nothing to roll out when every vertex starts outside T_0
    n_chunks = -(-n_traj // _CHUNK) if inside else 0
    workers = min(_cpus(), n_chunks)
    if workers:
        roll = partial(_roll_chunks, sys, tube, factors, margins, n_traj, seed)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(roll, (range(w, n_chunks, workers)
                                         for w in range(workers))))
        for kept, s1, s2 in parts:
            counts[inside] += kept
            c1 += s1
            c2 += s2
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
    each trajectory keeps in the tube.  None in documents written before
    it was recorded."""

    records: List[VertexRecord]
    alpha: float
    n_traj: int
    seed: int
    pooled_binomial_std: Optional[float]

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

    @classmethod
    def from_json(cls, text: str) -> "ValidationReport":
        """Inverse of :meth:`to_json`; a document that lacks a key other
        than pooled_binomial_std raises ValueError naming it."""
        doc = json.loads(text)
        try:
            alpha = float(doc["alpha"])
            return cls(
                records=[VertexRecord(
                    point=np.asarray(r["point"], dtype=float), alpha=alpha,
                    empirical_probability=float(r["empirical_probability"]),
                    binomial_std=float(r["binomial_std"]))
                    for r in doc["records"]],
                alpha=alpha, n_traj=int(doc["n_traj"]), seed=int(doc["seed"]),
                pooled_binomial_std=doc.get("pooled_binomial_std"))
        except KeyError as exc:
            raise ValueError(
                f"validation document lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed validation document: {exc}") from None


def validate_vertices(result: ReachSetResult, sys: StochasticLTVSystem,
                      tube: TargetTube, n_traj: int,
                      seed: int = 0) -> ValidationReport:
    """Simulate each certified boundary point under its stored controller
    (the anchor when there is none) and report the empirical probability
    against alpha.

    Every vertex is rolled out on the same n_traj trajectories (common
    random numbers), chunk j of them drawn from Philox(seed).jumped(j).
    Each vertex's estimate equals simulate_reach_prob of that vertex alone
    at `seed`.  The chunks run on one worker thread per CPU available, and
    the report does not depend on how many; memory is bounded by workers x
    chunk, whatever n_traj."""
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
