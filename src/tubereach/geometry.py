"""Convex-set primitives: boxes, H/V-polytopes, 2D hulls, scaled
Minkowski sums, and direction-vector generation.

H-representation is used for constraints (input sets, target tubes) and
V-representation for computed sets.  General H<->V conversion is out of
scope; point membership in a V-polytope is decided by an LP feasibility
problem so hulls above 2D are never facet-enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .lpsolve import solve_lp

DEFAULT_TOL = 1e-9


@dataclass
class HPolytope:
    """The set {x : normals @ x <= offsets}.  Normals are finite and
    offsets are never NaN; a +inf offset is a vacuous face."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        self.offsets = np.asarray(self.offsets, dtype=float).ravel()
        if self.normals.shape[0] != self.offsets.size:
            raise ValueError("normals/offsets row count mismatch")
        if not np.isfinite(self.normals).all() or np.isnan(self.offsets).any():
            raise ValueError("normals must be finite and offsets not NaN")
        if self.normals.shape[1] > 0 and np.any(
                np.linalg.norm(self.normals, axis=1) == 0.0):
            raise ValueError("every normal row must be nonzero")
        self._box = self._axis_box()
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_rows(self) -> int:
        return self.offsets.size

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Closed-set membership: normals @ x <= offsets + tol elementwise."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError(f"point dimension {x.size} != polytope "
                             f"dimension {self.dim}")
        if tol < 0.0:
            raise ValueError("tol must be nonnegative")
        return bool(np.all(self.normals @ x <= self.offsets + tol))

    def ray_exit(self, point, direction) -> float:
        """Largest step t >= 0 with point + t * direction still inside
        (0 when the point lies on or beyond a face the ray crosses), or
        inf when no face lies ahead.  Faces nearly parallel to the ray are
        ignored, which can only lengthen the step."""
        point = np.asarray(point, dtype=float).ravel()
        rates = self.normals @ np.asarray(direction, dtype=float).ravel()
        ahead = rates > 1e-12
        if not ahead.any():
            return np.inf
        slack = self.offsets[ahead] - self.normals[ahead] @ point
        return max(float(np.min(slack / rates[ahead])), 0.0)

    def is_empty(self) -> bool:
        return self._support()[2]

    def is_bounded(self) -> bool:
        """Empty sets count as bounded; a nonempty one is bounded iff
        every side of its bounding box is finite."""
        lo, hi, empty = self._support()
        return empty or bool(np.isfinite((lo, hi)).all())

    def interval_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding intervals (+/-inf where unbounded), as
        read-only arrays; see _support."""
        lo, hi, _ = self._support()
        return lo, hi

    def _support(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """(lo, hi, empty), worked out on the first call: the box itself
        when every face is axis-aligned, else 2n cold support LPs max and
        min x_j.  An infeasible one proves the set empty; any other status
        but optimal leaves that side infinite."""
        if self._bounds is None:
            if self._box is not None:
                lo, hi = self._box
                empty = bool(np.any(lo > hi))
            else:
                lo = np.full(self.dim, -np.inf)
                hi = np.full(self.dim, np.inf)
                empty = False
                for j in range(self.dim):
                    for sign, out in ((1.0, hi), (-1.0, lo)):
                        c = np.zeros(self.dim)
                        c[j] = -sign
                        sol = solve_lp(c, self.normals, self.offsets)
                        empty |= sol.status == "infeasible"
                        if sol.optimal:
                            out[j] = sign * -sol.objective_value
                lo.flags.writeable = hi.flags.writeable = False
            self._bounds = lo, hi, empty
        return self._bounds

    def as_box_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(lower, upper) if every face is axis-aligned, else None.  Worked
        out when the polytope is made; the arrays are read-only."""
        return self._box

    def _axis_box(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        rows, axes = np.nonzero(self.normals)
        if not np.array_equal(rows, np.arange(self.n_rows)):
            return None
        coef = self.normals[rows, axes]
        bound = self.offsets / coef
        up = coef > 0
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        np.minimum.at(hi, axes[up], bound[up])
        np.maximum.at(lo, axes[~up], bound[~up])
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi


@dataclass
class VPolytope:
    """Convex hull of a finite list of points, each with finite entries."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.vertices.shape[0] == 0:
            raise ValueError("vertex list must be nonempty")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership within tol (max norm), by the distance LP of
        convex_weights."""
        return self.convex_weights(x, tol) is not None

    def convex_weights(self, x, tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
        """Convex weights w (w >= 0, sum(w) = 1) whose blend V^T w lies
        nearest x in the max norm, or None if that distance exceeds tol:
        the LP min t subject to |V^T w - x| <= t elementwise."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError(f"point dimension {x.size} != polytope "
                             f"dimension {self.dim}")
        if tol < 0.0:
            raise ValueError("tol must be nonnegative")
        k = self.n_vertices
        v = self.vertices.T
        # variables [w, t]; rows |V^T w - x| <= t, then sum(w) = 1
        gap = -np.ones((self.dim, 1))
        sol = solve_lp(np.append(np.zeros(k), 1.0),
                       np.block([[v, gap], [-v, gap], [np.ones(k), 0.0]]),
                       np.concatenate([x, -x, [1.0]]),
                       np.append(np.full(2 * self.dim, -np.inf), 1.0),
                       [(0.0, np.inf)] * (k + 1))
        return sol.z[:k] if sol.optimal and sol.z[k] <= tol else None


@dataclass
class DirectionSet:
    """Unit direction vectors, optionally confined to a 2D coordinate slice."""

    directions: np.ndarray
    slice_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        norms = np.linalg.norm(self.directions, axis=1)
        # a NaN or infinite entry makes its norm NaN or inf, which fails too
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("directions must have unit Euclidean norm")

    def __len__(self) -> int:
        return self.directions.shape[0]


def box_polytope(center, half_widths) -> HPolytope:
    """Axis-aligned box as 2n half-spaces."""
    center = np.asarray(center, dtype=float).ravel()
    half = np.asarray(half_widths, dtype=float).ravel()
    if center.size != half.size:
        raise ValueError("center/half_widths length mismatch")
    if np.any(half <= 0.0):
        raise ValueError("half-widths must be positive")
    n = center.size
    eye = np.eye(n)
    normals = np.vstack([eye, -eye])
    offsets = np.concatenate([center + half, -center + half])
    return HPolytope(normals=normals, offsets=offsets)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts: np.ndarray) -> np.ndarray:
    """Indices of the counterclockwise extreme points of the 2D points,
    each the first of its duplicates; both ends when all are collinear."""
    # the unique points in lexicographic order
    _, order = np.unique(pts, axis=0, return_index=True)
    if order.size <= 2:
        return order
    tol = 1e-12  # cross products this small count as collinear
    lower: List[int] = []
    for i in order:
        while len(lower) >= 2 and \
                _cross(pts[lower[-2]], pts[lower[-1]], pts[i]) <= tol:
            lower.pop()
        lower.append(i)
    upper: List[int] = []
    for i in order[::-1]:
        while len(upper) >= 2 and \
                _cross(pts[upper[-2]], pts[upper[-1]], pts[i]) <= tol:
            upper.pop()
        upper.append(i)
    return np.array(lower[:-1] + upper[:-1])


# a point set is flat when at most two singular values of its offsets
# from its first point exceed this share of the largest
_FLAT_RCOND = 1e-10


def extreme_indices(points) -> np.ndarray:
    """Row indices of the vertices of the convex hull of points (n x d).

    In 2D: the monotone chain (Andrew, 1979), counterclockwise, each
    vertex the first of its exact duplicates.  In other dimensions,
    points within DEFAULT_TOL of an earlier point are dropped first and
    the indices come in input order: the two ends of a set that spans at
    most a line (every 1-D set); the 2D hull in the plane's coordinates
    of a set that spans a plane (see _FLAT_RCOND); else, one feasibility
    LP per point, the points farther than 1e-7 from the hull of the
    others."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 2:
        return _hull_2d(pts)
    # each point is compared only with the points kept before it, held
    # in one buffer, so memory stays linear in the points
    kept = np.empty_like(pts)
    keep: List[int] = []
    for i, p in enumerate(pts):
        if not keep or np.linalg.norm(kept[:len(keep)] - p,
                                      axis=1).min() > DEFAULT_TOL:
            kept[len(keep)] = p
            keep.append(i)
    if len(keep) <= 1:
        return np.array(keep, dtype=int)
    offsets = pts[keep] - pts[keep[0]]
    _, sv, axes = np.linalg.svd(offsets, full_matrices=False)
    rank = int(np.count_nonzero(sv > _FLAT_RCOND * sv[0]))
    if rank == 1:
        along = offsets @ axes[0]
        return np.array(keep)[np.sort([np.argmin(along), np.argmax(along)])]
    if rank == 2:
        return np.array(keep)[np.sort(_hull_2d(offsets @ axes[:2].T))]
    survivors = keep
    i = 0
    while i < len(survivors):
        others = pts[survivors[:i] + survivors[i + 1:]]
        if VPolytope(others).contains(pts[survivors[i]], 1e-7):
            survivors.pop(i)
        else:
            i += 1
    return np.array(survivors)


def prune_vertices(vpoly: VPolytope) -> VPolytope:
    """The hull vertices of vpoly, input rows bit for bit (see
    extreme_indices for their order)."""
    return VPolytope(vertices=vpoly.vertices[extreme_indices(vpoly.vertices)])


def minkowski_interpolate(v1: VPolytope, v2: VPolytope, gamma: float) -> VPolytope:
    """Pruned V-rep of conv{gamma*a + (1-gamma)*b : a in v1, b in v2}."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    if v1.dim != v2.dim:
        raise ValueError(f"dimension mismatch: {v1.dim} != {v2.dim}")
    sums = (gamma * v1.vertices[:, None, :]
            + (1.0 - gamma) * v2.vertices[None, :, :]).reshape(-1, v1.dim)
    return prune_vertices(VPolytope(vertices=sums))


def spread_directions(count: int, dim: int,
                      slice_dims: Optional[Tuple[int, int]] = None) -> DirectionSet:
    """count unit vectors uniformly spaced by angle in a 2D plane.

    For dim <= 2 the plane is the full space (dim == 1 yields {+1, -1});
    for dim > 2 a slice_dims coordinate pair selects the plane and the
    remaining coordinates are zero.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim == 1:
        return DirectionSet(directions=np.array([[1.0], [-1.0]]))
    if dim > 2 and slice_dims is None:
        raise ValueError("slice_dims required for dim > 2")
    if slice_dims is not None and not (
            len(slice_dims) == 2 and slice_dims[0] != slice_dims[1]
            and all(isinstance(d, (int, np.integer)) and 0 <= d < dim
                    for d in slice_dims)):
        raise ValueError(f"slice_dims {tuple(slice_dims)} must be two "
                         f"distinct coordinates in [0, {dim})")
    i, j = (0, 1) if dim == 2 else slice_dims
    angles = 2.0 * np.pi * np.arange(count) / count
    dirs = np.zeros((count, dim))
    dirs[:, i] = np.cos(angles)
    dirs[:, j] = np.sin(angles)
    return DirectionSet(directions=dirs,
                        slice_dims=None if dim == 2 else (i, j))
