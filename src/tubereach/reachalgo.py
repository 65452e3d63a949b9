"""Polytopic underapproximation of stochastic reach sets.

Main entry points: compute_reach_set (anchor + directional line searches,
anytime and parallelizable), interpolate_sets (cross-threshold Minkowski
interpolation), dp_values / dp_level_set (grid dynamic-programming
baseline for 1D/2D instances), and a sampling backend built on the
multivariate-normal box estimator with a derivative-free controller
search.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from . import chance
from .chance import AnchorResult
from .gaussian import PwaQuantile, build_pwa_quantile, genz_mvn_probability, MvnBox
from .geometry import (DirectionSet, HPolytope, VPolytope, convex_hull_2d,
                       minkowski_interpolate, prune_vertices)
from .lpsolve import LinearProgram, solve_lp
from .sysmodel import StochasticLTVSystem, TargetTube, concat_matrices, \
    state_mean_cov


@dataclass
class BoundaryPoint:
    index: int
    direction: np.ndarray
    theta: float
    point: np.ndarray
    U: Optional[np.ndarray]
    lower_bound: float
    status: str  # ok | infeasible | solver_failure | skipped
    diagnostic: str = ""


@dataclass
class ReachSetResult:
    """Anytime output: hull of the boundary points found so far, each
    carrying a certified open-loop controller and lower bound >= alpha."""

    alpha: float
    anchor: AnchorResult
    boundary_points: List[BoundaryPoint]
    polytope: Optional[VPolytope]
    backend: str  # chance | genz
    status: str  # ok | empty
    diagnostic: str = ""
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return self.polytope is None

    def controller_points(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """All stored points that carry a controller (anchor included)."""
        pts, ctrls = [], []
        if self.anchor.x_anchor is not None and self.anchor.U is not None:
            pts.append(self.anchor.x_anchor)
            ctrls.append(self.anchor.U)
        for bp in self.boundary_points:
            if bp.status == "ok" and bp.U is not None:
                pts.append(bp.point)
                ctrls.append(bp.U)
        if not pts:
            raise ValueError("result holds no certified points")
        return np.stack(pts), ctrls

    def to_json(self) -> str:
        doc = {
            "alpha": self.alpha,
            "backend": self.backend,
            "status": self.status,
            "diagnostic": self.diagnostic,
            "anchor": {
                "mode": self.anchor.mode,
                "status": self.anchor.status,
                "point": None if self.anchor.x_anchor is None
                else self.anchor.x_anchor.tolist(),
                "controls": None if self.anchor.U is None
                else self.anchor.U.tolist(),
                "lower_bound": self.anchor.lower_bound,
                "radius": self.anchor.radius,
            },
            "vertices": [
                {
                    "direction": bp.direction.tolist(),
                    "theta": bp.theta,
                    "point": bp.point.tolist(),
                    "lower_bound": bp.lower_bound,
                    "controls": None if bp.U is None else bp.U.tolist(),
                    "status": bp.status,
                }
                for bp in self.boundary_points
            ],
            "polytope": None if self.polytope is None
            else self.polytope.vertices.tolist(),
            "timings": self.timings,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReachSetResult":
        """Inverse of :meth:`to_json`; a document without timings (as
        `tubereach compute` writes them) reads as having none."""
        doc = json.loads(text)
        anchor = doc["anchor"]
        return cls(
            alpha=float(doc["alpha"]),
            anchor=AnchorResult(
                x_anchor=_array(anchor["point"]), U=_array(anchor["controls"]),
                lower_bound=float(anchor["lower_bound"]), mode=anchor["mode"],
                radius=anchor.get("radius"), status=anchor["status"]),
            boundary_points=[
                BoundaryPoint(index=i, direction=_array(v["direction"]),
                              theta=float(v["theta"]), point=_array(v["point"]),
                              U=_array(v["controls"]),
                              lower_bound=float(v["lower_bound"]),
                              status=v["status"])
                for i, v in enumerate(doc["vertices"])],
            polytope=None if doc["polytope"] is None
            else VPolytope(_array(doc["polytope"])),
            backend=doc["backend"], status=doc["status"],
            diagnostic=doc.get("diagnostic", ""),
            timings=doc.get("timings", {}))

    def vertex_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            dim = self.boundary_points[0].point.size if self.boundary_points \
                else (self.anchor.x_anchor.size if self.anchor.x_anchor is not None else 0)
            w.writerow(["index", "status", "theta", "lower_bound"]
                       + [f"x{i}" for i in range(dim)])
            for bp in self.boundary_points:
                w.writerow([bp.index, bp.status, f"{bp.theta:.12g}",
                            f"{bp.lower_bound:.12g}"]
                           + [f"{v:.12g}" for v in bp.point])


def _array(values) -> Optional[np.ndarray]:
    return None if values is None else np.asarray(values, dtype=float)


def _hull(points: np.ndarray) -> VPolytope:
    if points.shape[1] == 2 and points.shape[0] > 3:
        return convex_hull_2d(points)
    return prune_vertices(VPolytope(points))


def compute_reach_set(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                      directions: DirectionSet, anchor_mode: Optional[str] = None,
                      backend: str = "chance", pwa: Optional[PwaQuantile] = None,
                      max_directions: Optional[int] = None,
                      time_budget: Optional[float] = None, jobs: int = 1,
                      seed: int = 0, genz_samples: int = 2048) -> ReachSetResult:
    """Polytopic underapproximation of the alpha-level reach set.

    One line search per direction from the anchor; the hull of the
    successful boundary points is a valid underapproximation after any
    prefix of the direction list (anytime). Per-direction failures are
    recorded, never fatal. max_directions truncates the direction list;
    a search that would start more than time_budget seconds after the
    call is skipped (status "skipped"); jobs caps concurrent searches.
    """
    if backend not in ("chance", "genz"):
        raise ValueError(f"unknown backend {backend!r}")
    if anchor_mode is None:
        anchor_mode = "cheby" if backend == "chance" else "xmax"
    if anchor_mode not in ("xmax", "cheby", "both"):
        raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
    if pwa is None:
        pwa = build_pwa_quantile()
    t0 = time.perf_counter()

    # one assembly, shared read-only by the anchors and every search
    risk = chance.RiskLP(sys, tube, alpha, pwa)
    modes = ["xmax", "cheby"] if anchor_mode == "both" else [anchor_mode]
    anchors = [risk.anchor(mode) for mode in modes]
    t_anchor = time.perf_counter() - t0
    feasible_anchors = [a for a in anchors if a.feasible]
    if not feasible_anchors:
        return ReachSetResult(
            alpha=alpha, anchor=anchors[0], boundary_points=[], polytope=None,
            backend=backend, status="empty", diagnostic=anchors[0].diagnostic,
            timings={"anchor": t_anchor, "total": t_anchor})

    dirs = directions.directions
    if max_directions is not None:
        dirs = dirs[:max_directions]

    tasks: List[Tuple[int, AnchorResult, np.ndarray]] = []
    idx = 0
    for anc in feasible_anchors:
        for d in dirs:
            tasks.append((idx, anc, d))
            idx += 1

    deadline = None if time_budget is None else t0 + time_budget

    def search(task):
        i, anc, d = task
        if deadline is not None and time.perf_counter() > deadline:
            return BoundaryPoint(index=i, direction=d, theta=0.0,
                                 point=anc.x_anchor.copy(), U=None,
                                 lower_bound=0.0, status="skipped",
                                 diagnostic="time budget exhausted")
        if backend == "chance":
            ls = risk.line(anc.x_anchor, d)
            theta, u, lb = ls.theta_star, ls.U_star, ls.lower_bound
            status = "ok" if ls.status == "optimal" else ls.status
            diag = ls.diagnostic
        else:
            theta, u, lb, status, diag = _genz_line_search(
                sys, tube, alpha, risk, anc.x_anchor, d,
                samples=genz_samples, seed=seed + i)
        point = anc.x_anchor + theta * d
        return BoundaryPoint(index=i, direction=d, theta=theta, point=point,
                             U=u, lower_bound=lb, status=status,
                             diagnostic=diag)

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        points = list(pool.map(search, tasks))

    verts = [bp.point for bp in points if bp.status == "ok"]
    verts.extend(a.x_anchor for a in feasible_anchors)
    polytope = _hull(np.stack(verts))
    return ReachSetResult(
        alpha=alpha, anchor=feasible_anchors[0], boundary_points=points,
        polytope=polytope, backend=backend, status="ok",
        timings={"anchor": t_anchor,
                 "total": time.perf_counter() - t0})


def interpolate_sets(set1: ReachSetResult, set2: ReachSetResult,
                     beta: float) -> VPolytope:
    """Underapproximation at an intermediate threshold beta from sets at
    alpha1 < alpha2, via a log-weighted Minkowski combination (valid by
    log-concavity of the reach probability)."""
    a1, a2 = set1.alpha, set2.alpha
    if not (0.0 < a1 < a2 <= 1.0):
        raise ValueError("need 0 < alpha1 < alpha2 <= 1")
    if not (a1 <= beta <= a2):
        raise ValueError(f"beta must lie in [{a1}, {a2}]")
    if set1.is_empty or set2.is_empty:
        raise ValueError("both input sets must be nonempty; recompute at a "
                         "lower threshold or with more directions")
    gamma = interpolation_weight(a1, a2, beta)
    return minkowski_interpolate(set1.polytope, set2.polytope, gamma)


def interpolation_weight(alpha1: float, alpha2: float, beta: float) -> float:
    return (math.log(alpha2) - math.log(beta)) / \
        (math.log(alpha2) - math.log(alpha1))


# ---------------------------------------------------------------------------
# Dynamic-programming baseline (1D / 2D, diagonal per-step covariance)
# ---------------------------------------------------------------------------

@dataclass
class DpTable:
    grids: List[np.ndarray]  # per-dimension cell centers
    values: List[np.ndarray]  # V_k, k = 0..N, shape = grid shape
    input_grid: np.ndarray  # (n_inputs, m)
    state_spacing: float

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            dim = len(self.grids)
            w.writerow([f"x{i}" for i in range(dim)]
                       + [f"V{k}" for k in range(len(self.values))])
            mesh = np.meshgrid(*self.grids, indexing="ij")
            coords = np.stack([m.ravel() for m in mesh], axis=1)
            flat = [v.ravel() for v in self.values]
            for r in range(coords.shape[0]):
                w.writerow([f"{c:.12g}" for c in coords[r]]
                           + [f"{v[r]:.12g}" for v in flat])


def _tube_mask(poly: HPolytope, coords: np.ndarray) -> np.ndarray:
    return np.all(coords @ poly.normals.T <= poly.offsets + 1e-12, axis=1)


def _dim_mass(centers: np.ndarray, spacing: float, mu: np.ndarray,
              sigma: float) -> np.ndarray:
    """Probability mass of each grid cell for N(mu, sigma^2), one row per
    mu. Mass outside the grid is dropped (off-grid is off-tube)."""
    edges = np.concatenate([centers - spacing / 2.0,
                            [centers[-1] + spacing / 2.0]])
    if sigma < 1e-12:
        cell = np.searchsorted(edges, mu, side="right") - 1
        out = np.zeros((mu.size, centers.size))
        ok = (cell >= 0) & (cell < centers.size)
        out[np.flatnonzero(ok), cell[ok]] = 1.0
        return out
    cdf = ndtr((edges[None, :] - mu[:, None]) / sigma)
    return np.diff(cdf, axis=1)


def dp_values(sys: StochasticLTVSystem, tube: TargetTube,
              state_spacing: float, input_spacing: float,
              bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> DpTable:
    """Grid value iteration for the maximal reach probability.

    Backward recursion from the indicator of the terminal set; the
    per-step transition is the Gaussian cell mass around the propagated
    mean, maximized over a finite input grid. Restricted to state
    dimension <= 2 with diagonal per-step covariance.
    """
    n = sys.state_dim
    if n > 2:
        raise ValueError("dynamic-programming baseline supports dim <= 2")
    for cov in sys.disturbance.cov_per_step:
        off = cov - np.diag(np.diag(cov))
        if np.abs(off).max() > 1e-12:
            raise ValueError("per-step covariance must be diagonal")

    los, his = [], []
    for k in range(tube.horizon + 1):
        lo, hi = tube[k].interval_bounds()
        los.append(lo)
        his.append(hi)
    lo = np.min(np.stack(los), axis=0)
    hi = np.max(np.stack(his), axis=0)
    if bounds is not None:
        blo = np.asarray(bounds[0], dtype=float).ravel()
        bhi = np.asarray(bounds[1], dtype=float).ravel()
        if np.any(blo > lo + 1e-12) or np.any(bhi < hi - 1e-12):
            raise ValueError("grid bounds do not cover the target tube")
        lo, hi = blo, bhi

    grids = []
    for d in range(n):
        count = max(1, int(round((hi[d] - lo[d]) / state_spacing)))
        grids.append(lo[d] + state_spacing * (np.arange(count) + 0.5))
    mesh = np.meshgrid(*grids, indexing="ij")
    shape = mesh[0].shape
    coords = np.stack([g.ravel() for g in mesh], axis=1)

    m = sys.input_dim
    if m:
        ulo, uhi = sys.input_set.interval_bounds()
        axes = []
        for d in range(m):
            cnt = max(1, int(round((uhi[d] - ulo[d]) / input_spacing)) + 1)
            axes.append(np.linspace(ulo[d], uhi[d], cnt))
        umesh = np.meshgrid(*axes, indexing="ij")
        input_grid = np.stack([u.ravel() for u in umesh], axis=1)
        if sys.input_set.as_box_bounds() is None:
            keep = [sys.input_set.contains(u) for u in input_grid]
            input_grid = input_grid[np.asarray(keep)]
    else:
        input_grid = np.zeros((1, 0))

    masks = [_tube_mask(tube[k], coords) for k in range(tube.horizon + 1)]
    values = [None] * (tube.horizon + 1)
    values[-1] = masks[-1].astype(float)

    for k in range(tube.horizon - 1, -1, -1):
        vnext = values[k + 1]
        a, b = sys.A_seq[k], sys.B_seq[k]
        mu_w = sys.disturbance.mean_per_step[k]
        sig = np.sqrt(np.diag(sys.disturbance.cov_per_step[k]))
        drift = coords @ a.T + mu_w
        best = np.zeros(coords.shape[0])
        vgrid = vnext.reshape(shape)
        for u in input_grid:
            mean = drift + (b @ u if m else 0.0)
            if n == 1:
                mass = _dim_mass(grids[0], state_spacing, mean[:, 0], sig[0])
                exp = mass @ vgrid
            else:
                m0 = _dim_mass(grids[0], state_spacing, mean[:, 0], sig[0])
                m1 = _dim_mass(grids[1], state_spacing, mean[:, 1], sig[1])
                exp = np.einsum("si,ij,sj->s", m0, vgrid, m1, optimize=True)
            np.maximum(best, exp, out=best)
        values[k] = np.where(masks[k], best, 0.0)

    return DpTable(grids=grids,
                   values=[v.reshape(shape) for v in values],
                   input_grid=input_grid, state_spacing=state_spacing)


def dp_level_set(table: DpTable, alpha: float):
    """(mask of cells with V_0 >= alpha, contour polygon in 2D else None).

    Superlevel sets of the value function are convex, so the polygon is
    the hull of the selected cell centers.
    """
    mask = table.values[0] >= alpha
    polygon = None
    if len(table.grids) == 2 and mask.any():
        mesh = np.meshgrid(*table.grids, indexing="ij")
        pts = np.stack([m[mask] for m in mesh], axis=1)
        if pts.shape[0] >= 3:
            polygon = convex_hull_2d(pts)
        else:
            polygon = VPolytope(pts)
    return mask, polygon


# ---------------------------------------------------------------------------
# Sampling backend: MVN box estimate + derivative-free controller search
# ---------------------------------------------------------------------------

def genz_evaluate_W0(sys: StochasticLTVSystem, tube: TargetTube, x0, U,
                     samples: int = 2048, batches: int = 10,
                     seed: int = 0) -> Tuple[float, float]:
    """Open-loop reach probability for a box tube: probability that the
    concatenated state trajectory lies in the stacked per-step boxes.
    Returns (estimate, standard error); exactly 0 when x0 is outside T_0.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if not tube[0].contains(x0):
        return 0.0, 0.0
    lows, highs = [], []
    for k in range(1, tube.horizon + 1):
        box = tube[k].as_box_bounds()
        if box is None:
            raise ValueError("sampling backend requires axis-aligned box "
                             "tube steps; use the chance backend instead")
        lows.append(box[0])
        highs.append(box[1])
    cd = concat_matrices(sys)
    u = None if sys.input_dim == 0 else np.asarray(U, dtype=float).ravel()
    mean, cov = state_mean_cov(cd, x0, u)
    box = MvnBox(mean=mean, cov=cov, lower=np.concatenate(lows),
                 upper=np.concatenate(highs))
    return genz_mvn_probability(box, samples=samples, batches=batches,
                                seed=seed)


def pattern_search_maximize(objective: Callable[[np.ndarray], float],
                            u_init, input_set: Optional[HPolytope],
                            horizon: int, step_init: float = 0.25,
                            step_min: float = 1e-3,
                            max_evals: int = 500) -> Tuple[np.ndarray, float]:
    """Compass search over the coordinate directions with step halving.

    Candidates are clamped (box input sets) or projected (general
    polytopes) back into the per-step input set; the incumbent value is
    monotone nondecreasing.
    """
    u = np.asarray(u_init, dtype=float).ravel().copy()
    if input_set is not None and u.size:
        m = input_set.dim
        for j in range(horizon):
            if not input_set.contains(u[j * m:(j + 1) * m], tol=1e-9):
                raise ValueError("initial controller violates the input set")
    best = objective(u)
    evals = 1
    step = step_init

    def feasible(cand: np.ndarray) -> np.ndarray:
        if input_set is None or not cand.size:
            return cand
        m = input_set.dim
        box = input_set.as_box_bounds()
        out = cand.copy()
        for j in range(horizon):
            seg = out[j * m:(j + 1) * m]
            if box is not None:
                np.clip(seg, box[0], box[1], out=seg)
            elif not input_set.contains(seg, tol=1e-9):
                out[j * m:(j + 1) * m] = _project_into(input_set, seg)
        return out

    while step >= step_min and evals < max_evals:
        improved = False
        for i in range(u.size):
            for sgn in (1.0, -1.0):
                cand = u.copy()
                cand[i] += sgn * step
                cand = feasible(cand)
                val = objective(cand)
                evals += 1
                if val > best:
                    best, u = val, cand
                    improved = True
                    break
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        if not improved:
            step /= 2.0
    return u, best


def _project_into(poly: HPolytope, point: np.ndarray) -> np.ndarray:
    """L1 projection into an H-polytope via an LP with split residuals."""
    n = poly.dim
    # variables: [x, t] with t >= |x - point| componentwise
    a = []
    b = []
    a.append(np.hstack([poly.normals, np.zeros((poly.n_rows, n))]))
    b.append(poly.offsets)
    eye = np.eye(n)
    a.append(np.hstack([eye, -eye]))
    b.append(point)
    a.append(np.hstack([-eye, -eye]))
    b.append(-point)
    lp = LinearProgram(objective=np.concatenate([np.zeros(n), np.ones(n)]),
                       ineq=(np.vstack(a), np.concatenate(b)))
    sol = solve_lp(lp)
    if not sol.optimal:
        raise ValueError("input-set projection failed")
    return sol.z[:n]


def initial_guess_controller(result: ReachSetResult, x0,
                             tol: float = 1e-7):
    """Blend the stored vertex controllers with the convex weights that
    reproduce x0; returns (U, weights). Valid warm start anywhere inside
    the computed polytope."""
    x0 = np.asarray(x0, dtype=float).ravel()
    pts, ctrls = result.controller_points()
    weights = VPolytope(pts).convex_weights(x0, tol=tol)
    if weights is None:
        raise ValueError("x0 lies outside the computed polytope")
    u = sum(w * c for w, c in zip(weights, ctrls))
    return np.asarray(u), weights


def _genz_line_search(sys, tube, alpha, risk: chance.RiskLP, anchor, d,
                      samples, seed, tol_frac: float = 0.02):
    """Bisection on the step length: a point is feasible when the best
    sampled reach probability over controllers clears alpha. The chance
    LP at the fixed point supplies the controller warm start."""
    if not tube[0].contains(anchor, tol=1e-7):
        return 0.0, None, 0.0, "infeasible", "anchor lies outside T_0"

    def best_prob(x0, u_start):
        if u_start is None:
            u_start = np.zeros(sys.input_dim * sys.horizon)

        def obj(u):
            return genz_evaluate_W0(sys, tube, x0, u, samples=samples,
                                    seed=seed)[0]
        u, val = pattern_search_maximize(obj, u_start, sys.input_set,
                                         sys.horizon, max_evals=120)
        return val, u

    # exit of the ray from T_0 caps the step length
    hi = min(tube[0].ray_exit(anchor, d), 1e6)

    val0, u0 = best_prob(anchor, risk.controls(anchor))
    if val0 < alpha:
        return 0.0, u0, val0, "infeasible", \
            f"estimated probability {val0:.4f} < alpha at the anchor"
    lo, best_u, best_val = 0.0, u0, val0
    val_hi, u_hi = best_prob(anchor + hi * d, risk.controls(anchor + hi * d))
    if val_hi >= alpha:
        return hi, u_hi, val_hi, "ok", ""
    span = hi
    while hi - lo > tol_frac * span:
        mid = 0.5 * (lo + hi)
        val, u = best_prob(anchor + mid * d, risk.controls(anchor + mid * d))
        if val >= alpha:
            lo, best_u, best_val = mid, u, val
        else:
            hi = mid
    return lo, best_u, best_val, "ok", ""
