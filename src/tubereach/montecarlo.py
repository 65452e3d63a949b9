"""Trajectory simulation and empirical validation of computed reach sets.

Every run is reproducible from its seed, and its trajectories are rolled
out in parallel without coordination.  A run of n trajectories is split
into an even number K of chunks, K = ceil(n / _CHUNK) rounded up to even,
whose sizes differ by at most one: chunk j holds trajectories
floor(j n / K) to floor((j + 1) n / K) - 1 and draws from its own SFC64
stream, spawned from SeedSequence(seed) with spawn key (j,).  The chunks
go, strided, to one worker thread per CPU available; K being even, two
workers get equal shares, within one trajectory a chunk.  Each worker
holds the buffers of one chunk, so memory is bounded by workers x chunk.
Workers return integer counts, summed after they join, so every estimate
is the same whatever the worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .chance import tube_rows
from .reachalgo import ReachSetResult, _finite
from .sysmodel import StochasticLTVSystem, TargetTube


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Sampling factor L with L L^T = cov, tolerant of semidefinite cov."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


# most trajectories rolled out together; each worker's buffers hold at most
# this many columns, so memory does not grow with n_traj
_CHUNK = 8192


def _chunk_bounds(n_traj: int) -> List[int]:
    """Where each chunk of an n_traj run starts, and where the last ends:
    K + 1 offsets for an even K = ceil(n_traj / _CHUNK) rounded up, chunk j
    being trajectories bounds[j] to bounds[j + 1] - 1.  Sizes differ by at
    most one, so a strided split over two workers is balanced."""
    k = -(-n_traj // _CHUNK)
    k += k % 2
    return [j * n_traj // k for j in range(k + 1)]


def _chunk_rng(seed: int, j: int) -> np.random.Generator:
    """The generator of chunk j of a run at seed: an SFC64 stream spawned
    from SeedSequence(seed) with spawn key (j,), independent of every
    other chunk's.  The only place the package builds a generator."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(j,))))


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
                 margins, bounds: List[int], seed: int, chunks: Iterable[int]
                 ) -> Tuple[np.ndarray, int, int]:
    """Roll out the given chunks, chunk j being trajectories bounds[j] to
    bounds[j + 1] - 1, drawn from _chunk_rng(seed, j).  Returns how many of
    them each vertex keeps in the tube, and the sums over them of c
    (vertices kept) and of c^2.  The buffers belong to this call, sized to
    the largest chunk: flat, viewed per chunk as contiguous blocks of the
    noise state e, its propagation A e, the draw, the projections, and a
    flag per vertex and trajectory."""
    n, N = sys.state_dim, sys.horizon
    n_v = margins[0].shape[1]
    size = max(b - a for a, b in zip(bounds, bounds[1:]))
    e_buf, ae_buf, draw_buf = (np.empty(n * size) for _ in range(3))
    z_buf = np.empty(max(t.n_rows for t in tube.sets[1:]) * size)
    alive_buf, ok_buf = (np.empty(n_v * size, dtype=bool) for _ in range(2))
    counts = np.zeros(n_v, dtype=np.int64)
    c1 = c2 = 0
    for j in chunks:
        rng = _chunk_rng(seed, j)
        c = bounds[j + 1] - bounds[j]
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
    and each vertex compares them with its margins from chance.tube_rows.

    The trajectories go in the chunks of _chunk_bounds(n_traj): an even
    number of them, at most _CHUNK each, whose sizes differ by at most one.
    Chunk j draws from its own stream, _chunk_rng(seed, j).  The chunks are
    rolled out, strided, on a thread pool of one worker per CPU available
    (at most one per chunk); each worker owns its generators and a few
    buffers sized to the largest chunk, so memory is bounded by workers x
    chunk, whatever n_traj.  The workers' results are integer counts,
    added up after the pool joins, so the estimates do not depend on the
    worker count.

    Raises ValueError when an initial state does not have the system's n
    entries, or an input sequence not its m N (input dimension times
    horizon), naming both sizes, and when either holds a NaN or infinite
    entry, naming the vertex."""
    if n_traj < 100:
        raise ValueError("n_traj must be at least 100")
    n, m, N = sys.state_dim, sys.input_dim, sys.horizon
    x0s = [np.asarray(x0, dtype=float).ravel() for x0 in x0s]
    Us = [np.zeros(m * N) if u is None else np.asarray(u, dtype=float).ravel()
          for u in Us]
    if not x0s or len(Us) != len(x0s):
        raise ValueError("need at least one initial state and one input "
                         "sequence (or None) per initial state")
    for v, (x0, u) in enumerate(zip(x0s, Us)):
        if x0.size != n:
            raise ValueError(f"initial state {v} has {x0.size} entries, "
                             f"but the system state has {n}")
        if u.size != m * N:
            raise ValueError(
                f"input sequence {v} has {u.size} entries, but the system "
                f"takes {m * N}: {m} per step over a horizon of {N}")
        if not np.isfinite(x0).all():
            raise ValueError(f"initial state {v} has a NaN or infinite "
                             "entry")
        if not np.isfinite(u).all():
            raise ValueError(f"input sequence {v} has a NaN or infinite "
                             "entry")
    inside = [v for v, x0 in enumerate(x0s) if tube[0].contains(x0)]

    # margins[k][i, v]: how far row i of T_{k+1} lies beyond the mean state
    # of vertex inside[v], with the 1e-12 slack of a closed-set test; the
    # products are stacked per vertex, so they do not depend on the batch
    x0c, uc, rhs, _ = tube_rows(sys, tube)
    X0, U = (np.array(a)[inside, :, None] for a in (x0s, Us))
    margins = np.split(
        rhs[:, None] + 1e-12 - (x0c @ X0)[..., 0].T - (uc @ U)[..., 0].T,
        np.cumsum([tube[k].n_rows for k in range(1, N)]))
    factors = [_cov_factor(c) for c in sys.disturbance.cov_per_step]

    counts = np.zeros(len(x0s), dtype=np.int64)
    c1 = c2 = 0  # sums over trajectories of (vertices kept) and its square
    # nothing to roll out when every vertex starts outside T_0
    bounds = _chunk_bounds(n_traj)
    n_chunks = len(bounds) - 1 if inside else 0
    workers = min(_cpus(), n_chunks)
    if workers:
        roll = partial(_roll_chunks, sys, tube, factors, margins, bounds, seed)
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
        """Inverse of :meth:`to_json`.  A document that lacks a key other
        than pooled_binomial_std, holds a NaN, infinite or non-number value
        (pooled_binomial_std may be null) or a fractional n_traj or seed
        raises ValueError naming the key, as the result reader does; so
        does a value out of range: alpha outside (0, 1], n_traj below the
        rollout's 100, no record, a probability outside [0, 1] or a
        negative standard deviation."""
        doc = json.loads(text)
        try:
            alpha = _finite(doc, "alpha", "validation")
            n_traj, seed = (_finite(doc, key, "validation")
                            for key in ("n_traj", "seed"))
            for key, value in (("n_traj", n_traj), ("seed", seed)):
                if value != int(value):
                    raise ValueError(f"validation {key}: {value} is not an "
                                     "integer")
            report = cls(
                records=[VertexRecord(
                    point=_finite(r, "point", f"record {i}", ndim=1),
                    alpha=alpha, empirical_probability=_finite(
                        r, "empirical_probability", f"record {i}"),
                    binomial_std=_finite(r, "binomial_std", f"record {i}"))
                    for i, r in enumerate(doc["records"])],
                alpha=alpha, n_traj=int(n_traj), seed=int(seed),
                pooled_binomial_std=_finite(
                    doc, "pooled_binomial_std", "validation", True)
                if "pooled_binomial_std" in doc else None)
        except KeyError as exc:
            raise ValueError(
                f"validation document lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed validation document: {exc}") from None
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"validation alpha: {alpha} outside (0, 1]")
        if n_traj < 100:
            raise ValueError(f"validation n_traj: {n_traj:g} is below 100")
        if not report.records:
            raise ValueError("validation records: none")
        for i, r in enumerate(report.records):
            if not 0.0 <= r.empirical_probability <= 1.0:
                raise ValueError(f"record {i} empirical_probability: "
                                 f"{r.empirical_probability} outside [0, 1]")
            if r.binomial_std < 0.0:
                raise ValueError(f"record {i} binomial_std: "
                                 f"{r.binomial_std} is negative")
        pooled = report.pooled_binomial_std
        if pooled is not None and pooled < 0.0:
            raise ValueError(f"validation pooled_binomial_std: {pooled} is "
                             "negative")
        return report


def validate_vertices(result: ReachSetResult, sys: StochasticLTVSystem,
                      tube: TargetTube, n_traj: int,
                      seed: int = 0) -> ValidationReport:
    """Simulate each ok boundary point under its stored controller (the
    anchor alone when no search succeeded), as controller_points() gives
    them, and report the empirical probability against alpha.

    Every vertex is rolled out on the same n_traj trajectories (common
    random numbers), split into an even number of balanced chunks, chunk j
    drawn from the SFC64 stream spawned from SeedSequence(seed) with spawn
    key (j,).  Each vertex's estimate equals the one simulate_reach_probs
    gives that vertex alone at `seed`.  The chunks run on one worker
    thread per CPU available, and the report does not depend on how
    many; memory is bounded by workers x chunk, whatever n_traj."""
    points, controls = result.controller_points()
    if len(points) > 1:  # the anchor leads
        points, controls = points[1:], controls[1:]
    probs, stds, pooled = simulate_reach_probs(sys, tube, points, controls,
                                               n_traj, seed)
    records = [VertexRecord(point=x, alpha=result.alpha,
                            empirical_probability=float(p),
                            binomial_std=float(sd))
               for x, p, sd in zip(points, probs, stds)]
    return ValidationReport(records=records, alpha=result.alpha,
                            n_traj=n_traj, seed=seed,
                            pooled_binomial_std=pooled)
