"""Correctness checks that do not trust the library's own certificates.

Each check recomputes what it needs from the system definition and the
stored (x0, U) of a vertex: its own mean/covariance recursion, the exact
Gaussian tail of every tube row, its own grid-distance test against the
dynamic-programming level set, and its own hull areas.  A check returns a
list of problems; an empty list means the operation passed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.special import ndtr

# A row whose standard deviation is below this is checked as a hard
# constraint on the mean, not as a Gaussian tail.
SIGMA_DETERMINISTIC = 1e-12
# Slack allowed on the threshold test 1 - sum(delta) >= alpha.
ALPHA_TOL = 1e-9
# Absolute feasibility tolerance of the LP solvers (HiGHS and the bundled
# simplex both accept 1e-7), scaled by the size of the right-hand side.
FEAS_TOL = 1e-7
# Monte-Carlo estimates may fall this many binomial standard deviations
# below the closed-form bound before a vertex counts as failed.
MC_SIGMAS = 4.0


def _violated(normals, offsets, x) -> bool:
    tol = FEAS_TOL * np.maximum(1.0, np.abs(offsets))
    return bool(np.any(normals @ x > offsets + tol))


def union_bound(system, tube, x0, U) -> Tuple[Optional[float], str]:
    """Closed-form lower bound 1 - sum_i P(row i violated) on the
    probability that the open-loop trajectory from x0 under U stays in
    the tube, or (None, reason) when a hard constraint fails."""
    x0 = np.asarray(x0, dtype=float).ravel()
    m = system.input_dim
    u = np.zeros(0) if U is None else np.asarray(U, dtype=float).ravel()
    if u.size != m * system.horizon:
        return None, f"controller has {u.size} entries, expected {m * system.horizon}"
    if _violated(tube[0].normals, tube[0].offsets, x0):
        return None, "x0 lies outside T_0"
    for k in range(system.horizon):
        if m and _violated(system.input_set.normals, system.input_set.offsets,
                           u[k * m:(k + 1) * m]):
            return None, f"u_{k} lies outside the input set"
    mean = x0.copy()
    cov = np.zeros((x0.size, x0.size))
    total = 0.0
    for k in range(system.horizon):
        a = system.A_seq[k]
        mean = a @ mean + system.disturbance.mean_per_step[k]
        if m:
            mean = mean + system.B_seq[k] @ u[k * m:(k + 1) * m]
        cov = a @ cov @ a.T + system.disturbance.cov_per_step[k]
        step = tube[k + 1]
        margin = step.offsets - step.normals @ mean
        var = np.einsum("ij,jk,ik->i", step.normals, cov, step.normals)
        sigma = np.sqrt(np.maximum(var, 0.0))
        hard = sigma < SIGMA_DETERMINISTIC
        if np.any(margin[hard] < -FEAS_TOL * np.maximum(1.0, np.abs(step.offsets[hard]))):
            return None, f"deterministic row of T_{k + 1} violated"
        total += float(ndtr(-margin[~hard] / sigma[~hard]).sum())
    return 1.0 - total, ""


def certified_points(result):
    """(point, U) of the anchor and every boundary point marked ok."""
    pts = [(result.anchor.x_anchor, result.anchor.U)]
    pts.extend((bp.point, bp.U) for bp in result.boundary_points
               if bp.status == "ok")
    return pts


def check_reach_set(result, system, tube, alpha) -> Tuple[List[str], List[float]]:
    """Re-derive the bound of the anchor and each certified vertex.

    Returns (problems, bounds of the boundary points in result order).
    """
    if result.is_empty:
        return [f"empty set at alpha={alpha}: {result.diagnostic}"], []
    problems, bounds = [], []
    for i, (point, u) in enumerate(certified_points(result)):
        bound, why = union_bound(system, tube, point, u)
        label = "anchor" if i == 0 else f"vertex {i - 1}"
        if bound is None:
            problems.append(f"{label}: {why}")
        elif bound < alpha - ALPHA_TOL:
            problems.append(f"{label}: union bound {bound:.9f} < alpha {alpha}")
        if i:
            bounds.append(np.nan if bound is None else bound)
    return problems, bounds


def check_validation(report, bounds) -> List[str]:
    """Each vertex's Monte-Carlo estimate is at least its closed-form
    bound minus MC_SIGMAS binomial standard deviations."""
    if len(report.records) != len(bounds):
        return [f"{len(report.records)} validated points for "
                f"{len(bounds)} certified vertices"]
    problems = []
    for i, (rec, bound) in enumerate(zip(report.records, bounds)):
        floor = bound - MC_SIGMAS * rec.binomial_std
        if not rec.empirical_probability >= floor:
            problems.append(f"vertex {i}: Monte-Carlo {rec.empirical_probability:.5f}"
                            f" < bound {bound:.5f} - {MC_SIGMAS:g} sigma")
    return problems


def _dp_cells(table, alpha) -> np.ndarray:
    """Centres of the grid cells whose DP value is at least alpha."""
    mesh = np.meshgrid(*table.grids, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return pts[(table.values[0] >= alpha).ravel()]


def check_inside_dp(vertices, table, alpha) -> List[str]:
    """Every vertex lies within one grid cell (Chebyshev distance) of a
    cell the DP certifies at alpha."""
    good = _dp_cells(table, alpha)
    if good.size == 0:
        return [f"DP level set at {alpha} is empty"]
    gaps = np.array([np.abs(good - v).max(axis=1).min() for v in vertices])
    worst = float(gaps.max())
    if worst > table.state_spacing + 1e-9:
        return [f"vertex {int(gaps.argmax())} lies {worst:.4f} from the DP level "
                f"set at {alpha:.4f}, beyond one cell ({table.state_spacing})"]
    return []


def _sorted_rows(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v[np.lexsort(v.T[::-1])]


def check_same_hull(got, want, what) -> List[str]:
    a, b = _sorted_rows(got.vertices), _sorted_rows(want.vertices)
    if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=1e-9):
        return [f"{what}: {a.shape[0]} vertices do not reproduce the "
                f"{b.shape[0]}-vertex input hull"]
    return []


def check_symmetric(vertices, tol=1e-6) -> List[str]:
    lo, hi = float(np.min(vertices)), float(np.max(vertices))
    if abs(lo + hi) > tol:
        return [f"interval [{lo:.9f}, {hi:.9f}] is not symmetric about 0"]
    return []


def _measure(points) -> float:
    """Length of a 1-D point set, area of the hull of a 2-D one."""
    if points.shape[1] == 1:
        return float(points.max() - points.min())
    try:
        return float(ConvexHull(points).volume)
    except QhullError:  # fewer than 3 points, or all on one line
        return 0.0


def slice_area_fraction(result, tube, slice_dims) -> float:
    """Measure of the set in its 2-D slice (length in 1-D) over the
    measure of T_0 in the same slice through the anchor."""
    verts = result.polytope.vertices
    anchor = result.anchor.x_anchor
    t0 = tube[0]
    if verts.shape[1] == 1:
        a, b = t0.normals[:, 0], t0.offsets
        base = float(np.min(b[a > 0] / a[a > 0]) - np.max(b[a < 0] / a[a < 0]))
        return _measure(verts) / base
    dims = list(slice_dims)
    rest = [k for k in range(verts.shape[1]) if k not in dims]
    a = t0.normals[:, dims]
    b = t0.offsets - t0.normals[:, rest] @ anchor[rest]
    keep = np.linalg.norm(a, axis=1) > 0.0
    halfspaces = np.hstack([a[keep], -b[keep, None]])
    corners = HalfspaceIntersection(halfspaces, anchor[dims]).intersections
    return _measure(verts[:, dims]) / _measure(corners)
