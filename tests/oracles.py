"""Independent oracles that only the tests call.

- The stacked dynamics X = Acal x0 + H U + G W over the whole horizon,
  built by explicit products: the reference for sysmodel.step_moments.
- Genz's quasi-Monte-Carlo estimator of a multivariate-normal box
  probability (Genz, JCGS 1992): the reference for certified bounds.
- A hit-or-miss estimate of the volume gap between two polytopes.
- Membership of a whole trajectory in a target tube.
- The largest gap between a secant and the upper normal quantile, and
  its derivative in the secant's right end, with the tangent point found
  by Brent's method: the reference for the closed form in
  gaussian._secant_gap.
- Vertex pruning by one feasibility LP per point, in any dimension: the
  reference for geometry.extreme_indices.
- The risk LP's table and each of its models assembled by scipy.sparse
  stacking, and the arrays its CSR -> CSC conversion hands to HiGHS: the
  reference for the column-wise slicing of chance.RiskLP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from tubereach.chance import SIGMA_DETERMINISTIC, RiskLP, tube_rows
from tubereach.gaussian import _upper_quantile
from tubereach.geometry import VPolytope, prune_vertices
from tubereach.lpsolve import solve_lp
from tubereach.sysmodel import StochasticLTVSystem, TargetTube


def contains_trajectory(tube: TargetTube, states, tol: float = 1e-9) -> bool:
    """states has rows x_0..x_N."""
    return all(poly.contains(states[k], tol)
               for k, poly in enumerate(tube.sets))


@dataclass
class ConcatenatedDynamics:
    """X = Acal x0 + H U + G W for X = [x_1; ...; x_N]."""

    Acal: np.ndarray
    H: np.ndarray
    G: np.ndarray
    muW: np.ndarray
    CW: np.ndarray
    state_dim: int
    input_dim: int
    horizon: int

    def block(self, mat: np.ndarray, k: int) -> np.ndarray:
        """Rows of mat for state x_k (k in 1..N)."""
        n = self.state_dim
        return mat[(k - 1) * n:k * n]


def concat_matrices(sys: StochasticLTVSystem) -> ConcatenatedDynamics:
    """Stack the dynamics over the horizon into block matrices."""
    n, m, nsteps = sys.state_dim, sys.input_dim, sys.horizon
    acal = np.zeros((n * nsteps, n))
    hmat = np.zeros((n * nsteps, m * nsteps))
    gmat = np.zeros((n * nsteps, n * nsteps))
    # prod[k] = A_{k-1} ... A_0 maps x0 to the mean path; build row blocks
    # cumulatively: block for x_{k+1} = A_k @ block for x_k
    cur = np.eye(n)
    for k in range(nsteps):
        cur = sys.A_seq[k] @ cur
        acal[k * n:(k + 1) * n] = cur
    for k in range(nsteps):      # state x_{k+1} occupies block row k
        for j in range(k + 1):   # contribution of u_j / w_j
            prod = np.eye(n)
            for i in range(j + 1, k + 1):
                prod = sys.A_seq[i] @ prod
            if m:
                hmat[k * n:(k + 1) * n, j * m:(j + 1) * m] = prod @ sys.B_seq[j]
            gmat[k * n:(k + 1) * n, j * n:(j + 1) * n] = prod
    muw = np.concatenate(sys.disturbance.mean_per_step)
    cw = block_diag(*sys.disturbance.cov_per_step)
    return ConcatenatedDynamics(Acal=acal, H=hmat, G=gmat, muW=muw,
                                CW=np.atleast_2d(cw), state_dim=n,
                                input_dim=m, horizon=nsteps)


def state_mean_cov(cd: ConcatenatedDynamics, x0, u_seq=None):
    """Mean and covariance of the concatenated state X."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != cd.state_dim:
        raise ValueError("x0 dimension mismatch")
    u_vec = np.zeros(cd.input_dim * cd.horizon) if u_seq is None else \
        np.asarray(u_seq, dtype=float).ravel()
    if u_vec.size != cd.input_dim * cd.horizon:
        raise ValueError("input vector length mismatch")
    mean = cd.Acal @ x0 + cd.H @ u_vec + cd.G @ cd.muW
    cov = cd.G @ cd.CW @ cd.G.T
    return mean, cov


@dataclass
class MvnBox:
    """Axis-aligned integration region for a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        d = self.mean.size
        if self.cov.shape != (d, d):
            raise ValueError("covariance shape mismatch")
        if self.lower.size != d or self.upper.size != d:
            raise ValueError("bound length mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower > upper")
        sym = 0.5 * (self.cov + self.cov.T)
        if np.max(np.abs(self.cov - sym)) > 1e-8 * max(1.0, np.abs(self.cov).max()):
            raise ValueError("covariance must be symmetric")
        if d and np.min(np.linalg.eigvalsh(sym)) < -1e-10:
            raise ValueError("covariance is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.size


def _pivoted_cholesky(cov: np.ndarray, tol: float = 1e-10):
    """Cholesky with diagonal pivoting; returns (L, perm) with cov[p][:,p] ~= L L^T.

    Handles rank-deficient PSD matrices; raises on indefinite input.
    """
    d = cov.shape[0]
    a = cov.copy()
    perm = np.arange(d)
    L = np.zeros((d, d))
    scale = max(np.max(np.abs(np.diag(cov))), 1.0)
    for i in range(d):
        diag = np.diag(a)[i:]
        j = i + int(np.argmax(diag))
        if a[j, j] < -tol * scale:
            raise ValueError("covariance is not positive semidefinite")
        if a[j, j] <= tol * scale:
            break
        for arr in (a,):
            arr[[i, j], :] = arr[[j, i], :]
            arr[:, [i, j]] = arr[:, [j, i]]
        L[[i, j], :] = L[[j, i], :]
        perm[[i, j]] = perm[[j, i]]
        piv = math.sqrt(a[i, i])
        L[i, i] = piv
        if i + 1 < d:
            L[i + 1:, i] = a[i + 1:, i] / piv
            a[i + 1:, i + 1:] -= np.outer(L[i + 1:, i], L[i + 1:, i])
    return L, perm


_PRIMES = None


def _kronecker_roots(d: int) -> np.ndarray:
    """Square roots of the first d primes, the Richtmyer lattice generator."""
    global _PRIMES
    if _PRIMES is None or len(_PRIMES) < d:
        primes = []
        n = 2
        while len(primes) < max(d, 64):
            if all(n % p for p in primes):
                primes.append(n)
            n += 1
        _PRIMES = primes
    return np.sqrt(np.array(_PRIMES[:d], dtype=float))


def genz_mvn_probability(box: MvnBox, samples: int = 1024, batches: int = 10,
                         seed: int = 0) -> Tuple[float, float]:
    """Estimate P(lower <= X <= upper) for X ~ N(mean, cov).

    Sequential-conditioning transform to the unit cube via pivoted
    Cholesky, integrated with a randomly shifted Kronecker lattice (plain
    Monte Carlo beyond 100 dimensions).  Returns (estimate, std_error)
    where std_error is the batch standard deviation over sqrt(batches).
    """
    if samples < 100 or batches < 2:
        raise ValueError("require samples >= 100 and batches >= 2")
    d = box.dim
    L, perm = _pivoted_cholesky(box.cov)
    lo = (box.lower - box.mean)[perm]
    hi = (box.upper - box.mean)[perm]
    rng = np.random.Generator(np.random.Philox(key=seed))
    use_lattice = d <= 100
    roots = _kronecker_roots(max(d - 1, 1)) if use_lattice else None

    batch_means = np.empty(batches)
    for b in range(batches):
        if use_lattice:
            shift = rng.random(max(d - 1, 1))
            k = np.arange(1, samples + 1)[:, None]
            w = np.mod(k * roots[None, :] + shift[None, :], 1.0)
        else:
            w = rng.random((samples, max(d - 1, 1)))
        batch_means[b] = _genz_transform(L, lo, hi, w)
    est = float(np.clip(batch_means.mean(), 0.0, 1.0))
    err = float(batch_means.std(ddof=1) / math.sqrt(batches))
    return est, err


def _genz_transform(L: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    w: np.ndarray) -> float:
    """Genz sequential conditioning; w holds unit-cube points, one row each."""
    nsamp = w.shape[0]
    d = lo.size
    f = np.ones(nsamp)
    y = np.zeros((nsamp, d))
    for i in range(d):
        drift = y[:, :i] @ L[i, :i] if i else 0.0
        li = L[i, i]
        if li > 1e-13:
            a = ndtr(np.clip((lo[i] - drift) / li, -38, 38))
            bnd = ndtr(np.clip((hi[i] - drift) / li, -38, 38))
        else:
            # degenerate coordinate: 0/1 indicator given earlier draws
            inside = (drift >= lo[i] - 1e-12) & (drift <= hi[i] + 1e-12)
            a = np.zeros(nsamp)
            bnd = np.where(inside, 1.0, 0.0)
        width = np.maximum(bnd - a, 0.0)
        f *= width
        if i < d - 1:
            u = a + w[:, i] * width
            u = np.clip(u, 1e-16, 1.0 - 1e-16)
            y[:, i] = ndtri(u)
    return float(f.mean())


def _membership(vp: VPolytope, pts: np.ndarray) -> np.ndarray:
    """Vectorized point-in-polytope for 2D hulls; LP fallback otherwise."""
    if vp.dim == 2 and vp.n_vertices >= 3:
        hull = prune_vertices(vp)
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


def _upper_quantile_deriv(delta: float) -> float:
    """d/d delta of Phi^{-1}(1 - delta): -1 / phi(Phi^{-1}(delta))."""
    q = ndtri(delta)
    return -math.sqrt(2.0 * math.pi) * math.exp(0.5 * q * q)


def brentq_secant_gap(a: float, fa: float, b: float) -> Tuple[float, float]:
    """Max of secant-minus-function over [a, b] for the upper quantile
    f = Phi^{-1}(1 - delta), and its derivative in b, with the tangent
    point found by Brent's method (gaussian._secant_gap's signature; fa,
    f(a), is worked out afresh rather than taken)."""
    fa, fb = _upper_quantile(a), _upper_quantile(b)
    slope = (fb - fa) / (b - a)
    da, db = _upper_quantile_deriv(a), _upper_quantile_deriv(b)
    if not (da < slope < db):
        return 0.0, 0.0
    x = brentq(lambda t: _upper_quantile_deriv(t) - slope, a, b, xtol=1e-14)
    return (fa + slope * (x - a) - _upper_quantile(x),
            (db - slope) * (x - a) / (b - a))


def loop_box_bounds(normals: np.ndarray, offsets: np.ndarray):
    """(lower, upper) of {x : normals @ x <= offsets} if every face is
    axis-aligned, else None, one row at a time (the former loop of
    geometry.HPolytope.as_box_bounds)."""
    lo = np.full(normals.shape[1], -np.inf)
    hi = np.full(normals.shape[1], np.inf)
    for row, off in zip(normals, offsets):
        nz = np.flatnonzero(row)
        if nz.size != 1:
            return None
        j = nz[0]
        if row[j] > 0:
            hi[j] = min(hi[j], off / row[j])
        else:
            lo[j] = max(lo[j], off / row[j])
    return lo, hi


def lp_prune_vertices(verts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The rows of verts left after dropping, in order, each point within
    tol of an earlier one, then each point that some convex weights on
    the remaining others reproduce within max(tol, 1e-7) (one LP per
    point; the former loop of geometry.prune_vertices)."""
    keep = []
    for i, v in enumerate(verts):
        if not keep or np.linalg.norm(verts[keep] - v, axis=1).min() > tol:
            keep.append(i)
    verts = verts[keep]
    survivors = list(range(verts.shape[0]))
    i = 0
    while i < len(survivors) and len(survivors) > 1:
        others = verts[[s for s in survivors if s != survivors[i]]]
        x = verts[survivors[i]]
        k = others.shape[0]
        target = np.append(x, 1.0)
        sol = solve_lp(np.zeros(k), np.vstack([others.T, np.ones((1, k))]),
                       target, target, [(0.0, 1.0)] * k)
        if sol.optimal and \
                np.linalg.norm(others.T @ sol.z - x) <= max(tol, 1e-7):
            survivors.pop(i)
        else:
            i += 1
    return verts[survivors]


def scipy_risk_table(sys: StochasticLTVSystem, tube: TargetTube,
                     risk: RiskLP) -> sp.csr_array:
    """risk.rows as scipy.sparse stacking assembles it: the tube rows' U
    coefficients, an empty budget row, block-diagonal input rows (a
    non-box input set) and T_0's empty rows, beside the segment columns
    (the former assembly of chance.RiskLP)."""
    _, coef_u, _, sigma = tube_rows(sys, tube)
    # RiskLP's order: the stochastic rows first, each group in step order
    order = np.argsort(sigma < SIGMA_DETERMINISTIC, kind="stable")
    coef_u, sigma = coef_u[order], sigma[order]
    nr, n_u = risk.n_risk, risk.n_u
    slopes = np.array([slope for slope, _ in risk.pieces])
    u_rows = [sp.csr_array(coef_u)]
    if nr:
        u_rows.append(sp.csr_array((1, n_u)))
    if sys.input_dim and sys.input_set.as_box_bounds() is None:
        u_rows.append(sp.block_diag([sys.input_set.normals] * sys.horizon))
    u_rows.append(sp.csr_array((tube[0].n_rows, n_u)))
    n_seg = nr * slopes.size
    owner = np.repeat(np.arange(nr), slopes.size)
    segments = sp.csr_array(
        (np.concatenate([sigma[:nr][owner] * np.tile(slopes, nr),
                         np.ones(n_seg)]),
         (np.concatenate([owner, np.full(n_seg, coef_u.shape[0])]),
          np.tile(np.arange(n_seg), 2))),
        shape=(risk.rhs.size, n_seg))
    table = sp.hstack([sp.vstack(u_rows), segments], format="csr")
    table.eliminate_zeros()  # sp.block_diag keeps explicit zeros
    return table


def scipy_model_arrays(risk: RiskLP, table, c, E, cols, y_lo, y_hi,
                       radius=False, maximize=False) -> dict:
    """The arrays that passModel receives for risk._model(c, E, cols,
    y_lo, y_hi, radius, maximize) when the model is the hstack of
    table[keep][:, cols], _x0 @ E and _ball, stacked and converted from
    CSR to CSC (the former assembly of both), by passModel's argument
    names."""
    n_y, n_r = E.shape[1], int(radius)
    keep = risk._kept_rows(cols)
    segments = np.flatnonzero(cols)
    matrix = sp.hstack(
        [table[keep][:, np.concatenate(
            [np.arange(risk.n_u), risk.n_u + segments])],
         sp.csr_array((risk._x0 @ E)[keep]),
         sp.csr_array(risk._ball[keep, None][:, :n_r])], format="csr")
    a = sp.csc_array(sp.vstack([sp.csr_array(matrix)]))
    bounds = np.concatenate([
        risk._u_bounds,
        np.column_stack([np.zeros(segments.size),
                         risk._lengths[segments % cols.shape[1]]]),
        np.tile([y_lo, y_hi], (n_y, 1)),
        np.tile([0.0, np.inf], (n_r, 1))])
    objective = np.zeros(len(bounds))
    if maximize:
        objective[-1] = -1.0
    else:
        objective[risk.n_u:risk.n_u + segments.size] = 1.0
    rhs = risk.rhs[keep] - (risk._x0 @ c)[keep]
    return {"num_col": len(bounds), "num_row": rhs.size, "num_nz": a.nnz,
            "col_cost": objective, "col_lower": bounds[:, 0],
            "col_upper": bounds[:, 1],
            "row_lower": np.full(rhs.size, -np.inf), "row_upper": rhs,
            "a_start": a.indptr[:-1].astype(np.int32),
            "a_index": a.indices.astype(np.int32), "a_value": a.data}
