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

from .lpsolve import LinearProgram, solve_lp

DEFAULT_TOL = 1e-9


@dataclass
class HPolytope:
    """The set {x : normals @ x <= offsets}."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        self.offsets = np.asarray(self.offsets, dtype=float).ravel()
        if self.normals.shape[0] != self.offsets.size:
            raise ValueError("normals/offsets row count mismatch")
        if self.normals.shape[1] > 0 and np.any(
                np.linalg.norm(self.normals, axis=1) == 0.0):
            raise ValueError("every normal row must be nonzero")
        self._empty: Optional[bool] = None
        self._bounded: Optional[bool] = None

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
        if self._empty is None:
            box = self.as_box_bounds()
            if box is not None:
                self._empty = bool(np.any(box[0] > box[1]))
            else:
                lp = LinearProgram(objective=np.zeros(self.dim),
                                   ineq=(self.normals, self.offsets))
                self._empty = not solve_lp(lp).optimal
        return self._empty

    def is_bounded(self) -> bool:
        """Empty sets count as bounded.  A nonempty {x : A x <= b} is
        bounded iff its recession cone {d : A d <= 0} is {0}, that is
        (Stiemke's lemma) iff rank A = n and some y > 0 has A^T y = 0."""
        if self._bounded is None:
            box = self.as_box_bounds()
            if self.is_empty():
                self._bounded = True
            elif box is not None:
                self._bounded = bool(np.all(np.isfinite(box)))
            elif np.linalg.matrix_rank(self.normals) < self.dim:
                self._bounded = False
            else:
                unit = self.normals / np.linalg.norm(self.normals, axis=1,
                                                     keepdims=True)
                lp = LinearProgram(objective=np.zeros(self.n_rows),
                                   eq=(unit.T, np.zeros(self.dim)),
                                   bounds=[(1.0, np.inf)] * self.n_rows)
                self._bounded = solve_lp(lp).optimal
        return self._bounded

    def interval_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding intervals: the box itself when every face
        is axis-aligned, else 2n support LPs (+/-inf where unbounded)."""
        box = self.as_box_bounds()
        if box is not None:
            return box
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        for j in range(self.dim):
            for sign, out in ((1.0, hi), (-1.0, lo)):
                c = np.zeros(self.dim)
                c[j] = -sign
                sol = solve_lp(LinearProgram(
                    objective=c, ineq=(self.normals, self.offsets)))
                if sol.optimal:
                    out[j] = sign * -sol.objective_value
        return lo, hi

    def as_box_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(lower, upper) if every face is axis-aligned, else None."""
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        for row, off in zip(self.normals, self.offsets):
            nz = np.flatnonzero(row)
            if nz.size != 1:
                return None
            j = nz[0]
            if row[j] > 0:
                hi[j] = min(hi[j], off / row[j])
            else:
                lo[j] = max(lo[j], off / row[j])
        return lo, hi


@dataclass
class VPolytope:
    """Convex hull of a finite list of points."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.vertices.shape[0] == 0:
            raise ValueError("vertex list must be nonempty")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership within tol (max norm) via LP feasibility over convex
        weights."""
        return self.convex_weights(x, tol) is not None

    def convex_weights(self, x, tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
        """Some w >= 0 with sum(w) = 1 and |V^T w - x| <= tol elementwise
        (convex weights reproducing x within tol, max norm), or None if x
        is farther from the hull."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError("dimension mismatch")
        if tol < 0.0:
            raise ValueError("tol must be nonnegative")
        k = self.n_vertices
        v = self.vertices.T
        lp = LinearProgram(objective=np.zeros(k),
                           ineq=(np.vstack([v, -v]),
                                 np.concatenate([x + tol, tol - x])),
                           eq=(np.ones((1, k)), np.ones(1)),
                           bounds=[(0.0, np.inf)] * k)
        sol = solve_lp(lp)
        return sol.z if sol.optimal else None


@dataclass
class DirectionSet:
    """Unit direction vectors, optionally confined to a 2D coordinate slice."""

    directions: np.ndarray
    slice_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("directions must have unit Euclidean norm")

    def __len__(self) -> int:
        return self.directions.shape[0]

    def __iter__(self):
        return iter(self.directions)


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


def convex_hull_2d(points, tol: float = 1e-12) -> VPolytope:
    """Monotone-chain hull; counterclockwise extreme points, collinear
    interior points removed."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("need at least one point")
    if pts.shape[1] != 2:
        raise ValueError("convex_hull_2d expects 2D points")
    uniq = np.unique(pts, axis=0)  # lexicographic sort
    if uniq.shape[0] <= 2:
        return VPolytope(vertices=uniq)
    lower: List[np.ndarray] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= tol:
            lower.pop()
        lower.append(p)
    upper: List[np.ndarray] = []
    for p in uniq[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= tol:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear
        return VPolytope(vertices=np.vstack([uniq[0], uniq[-1]]))
    return VPolytope(vertices=np.vstack(hull))


def prune_vertices(vpoly: VPolytope, tol: float = DEFAULT_TOL) -> VPolytope:
    """Drop duplicates and points in the convex hull of the others."""
    verts = vpoly.vertices
    if vpoly.dim == 2 and verts.shape[0] > 3:
        return convex_hull_2d(verts)  # hull drops duplicates itself
    # deduplicate within tolerance
    dist = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
    keep: List[int] = []
    for i in range(verts.shape[0]):
        if not keep or dist[i, keep].min() > tol:
            keep.append(i)
    verts = verts[keep]
    if verts.shape[0] <= 1:
        return VPolytope(vertices=verts)
    survivors = list(range(verts.shape[0]))
    i = 0
    while i < len(survivors):
        others = [s for s in survivors if s != survivors[i]]
        if len(others) >= 1 and _in_hull(verts[survivors[i]], verts[others], tol):
            survivors.pop(i)
        else:
            i += 1
    return VPolytope(vertices=verts[survivors])


def _in_hull(x: np.ndarray, pts: np.ndarray, tol: float) -> bool:
    k = pts.shape[0]
    a_eq = np.vstack([pts.T, np.ones((1, k))])
    b_eq = np.concatenate([x, [1.0]])
    lp = LinearProgram(objective=np.zeros(k), eq=(a_eq, b_eq),
                       bounds=[(0.0, 1.0)] * k)
    sol = solve_lp(lp)
    if not sol.optimal:
        return False
    return bool(np.linalg.norm(pts.T @ sol.z - x) <= max(tol, 1e-7))


def minkowski_interpolate(v1: VPolytope, v2: VPolytope, gamma: float) -> VPolytope:
    """Pruned V-rep of conv{gamma*a + (1-gamma)*b : a in v1, b in v2}."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    if v1.dim != v2.dim:
        raise ValueError("dimension mismatch")
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
    i, j = (0, 1) if dim == 2 else slice_dims
    angles = 2.0 * np.pi * np.arange(count) / count
    dirs = np.zeros((count, dim))
    dirs[:, i] = np.cos(angles)
    dirs[:, j] = np.sin(angles)
    return DirectionSet(directions=dirs,
                        slice_dims=None if dim == 2 else (i, j))
