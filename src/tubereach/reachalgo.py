"""Polytopic underapproximation of stochastic reach sets.

Main entry points: compute_reach_set (anchor + directional line searches,
anytime and parallelizable), interpolate_sets (cross-threshold Minkowski
interpolation), dp_values / dp_level_set (grid dynamic-programming
baseline for 1D/2D instances) and initial_guess_controller (a warm start
blended from the stored vertex controllers).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from . import chance
from .chance import AnchorResult, BoundaryPoint
from .gaussian import PwaQuantile, build_pwa_quantile
from .geometry import (DirectionSet, HPolytope, VPolytope, extreme_indices,
                       minkowski_interpolate, prune_vertices)
from .sysmodel import StochasticLTVSystem, TargetTube

# directions per chain of line searches that share one LP model
CHAIN_LENGTH = 8
_ANCHOR_MODES = ("xmax", "cheby")


@dataclass
class ReachSetResult:
    """Anytime output: the hull of the anchor and the boundary points
    found so far, each carrying a certified open-loop controller and
    lower bound >= alpha; the hull is derived, never given."""

    alpha: float
    anchor: AnchorResult
    boundary_points: List[BoundaryPoint]
    polytope: Optional[VPolytope] = field(init=False)
    status: str  # ok | empty | solver_failure (anchor LP gave no verdict)
    diagnostic: str = ""
    # seconds per phase of this run (assemble, anchor, searches, hull and
    # total; an empty set stops after the anchor), the simplex iterations
    # and HiGHS seconds of the anchor and of the searches, and the rows
    # and columns of the largest search LP; not part of the JSON document
    timings: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for i, bp in enumerate(self.boundary_points):
            if bp.status == "ok" and bp.U is None:
                raise ValueError(f"vertex {i} controls: none on an ok point")
        if not self.is_empty and self.anchor.U is None:
            raise ValueError("anchor controls: none with a point")
        # the ok points in list order, then the anchor
        self.polytope = None if self.is_empty else prune_vertices(
            VPolytope(np.roll(self.controller_points()[0], -1, axis=0)))

    @property
    def is_empty(self) -> bool:
        return self.anchor.x_anchor is None

    def controller_points(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The certified points, the anchor then the ok vertices in list
        order, and their controllers."""
        if self.is_empty:
            raise ValueError("result holds no certified points")
        ok = [bp for bp in self.boundary_points if bp.status == "ok"]
        return (np.stack([self.anchor.x_anchor] + [bp.point for bp in ok]),
                [self.anchor.U] + [bp.U for bp in ok])

    def to_json(self) -> str:
        """The result document that `tubereach compute` stores: everything
        but the timings, so that reruns give the same bytes."""
        doc = {
            "alpha": self.alpha,
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
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReachSetResult":
        """Inverse of :meth:`to_json`; the polytope is derived from the
        points again, never read.  The "timings" and "backend" keys that
        older releases wrote are ignored.  A missing key, an alpha outside
        (0, 1], a NaN or infinite number and a status or mode outside its
        set raise ValueError naming the record and the key."""
        doc = json.loads(text)
        try:
            anchor = doc["anchor"]
            alpha = float(doc["alpha"])
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"alpha {alpha} outside (0, 1]")
            return cls(
                alpha=alpha,
                anchor=AnchorResult(
                    x_anchor=_finite(anchor, "point", "anchor", True),
                    U=_finite(anchor, "controls", "anchor", True),
                    lower_bound=_finite(anchor, "lower_bound", "anchor"),
                    mode=_name(anchor, "mode", "anchor", _ANCHOR_MODES),
                    radius=_finite(anchor, "radius", "anchor", True)
                    if "radius" in anchor else None,
                    status=_name(anchor, "status", "anchor",
                                 ("optimal", "empty", "solver_failure"))),
                boundary_points=[
                    BoundaryPoint(
                        direction=_finite(v, "direction", f"vertex {i}"),
                        theta=_finite(v, "theta", f"vertex {i}"),
                        point=_finite(v, "point", f"vertex {i}"),
                        U=_finite(v, "controls", f"vertex {i}", True),
                        lower_bound=_finite(v, "lower_bound", f"vertex {i}"),
                        status=_name(v, "status", f"vertex {i}",
                                     ("ok", "infeasible", "solver_failure",
                                      "skipped")))
                    for i, v in enumerate(doc["vertices"])],
                status=_name(doc, "status", "result",
                             ("ok", "empty", "solver_failure")),
                diagnostic=doc.get("diagnostic", ""))
        except KeyError as exc:
            raise ValueError(f"result document lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed result document: {exc}") from None


def _finite(record: dict, key: str, where: str, nullable: bool = False):
    """record[key], a JSON number or a list of them, as a float or a
    float array; null stays None where nullable.  Anything else, and a
    NaN or infinite entry, raises ValueError naming where and key."""
    value = record[key]
    if value is None and nullable:
        return None
    try:
        values = np.asarray(value, dtype=float)  # a null reads as NaN
    except (TypeError, ValueError):  # a string, a ragged list
        raise ValueError(f"{where} {key}: not a number or a list of "
                         "numbers") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{where} {key}: NaN or infinite entry")
    return values if values.ndim else float(values)


def _name(record: dict, key: str, where: str, names) -> str:
    """record[key] if it is one of names; ValueError naming where and
    key if not."""
    if record[key] not in names:
        raise ValueError(f"{where} {key}: {record[key]!r} is not one of "
                         f"{', '.join(names)}")
    return record[key]


def compute_reach_set(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                      directions: DirectionSet, anchor_mode: str = "cheby",
                      pwa: Optional[PwaQuantile] = None,
                      max_directions: Optional[int] = None,
                      time_budget: Optional[float] = None,
                      jobs: int = 1) -> ReachSetResult:
    """Polytopic underapproximation of the alpha-level reach set.

    One anchor ("cheby" or "xmax"), then one line search per direction
    from it; the hull of the anchor and the successful boundary points is
    a valid underapproximation after any prefix of the direction list
    (anytime). The result forms that hull itself; building it is timed
    as the "hull" phase. Per-direction failures are recorded, never
    fatal.
    The searches run in chains of CHAIN_LENGTH consecutive directions,
    each chain re-solving one LP model (RiskLP.lines).  max_directions
    (at least 0) truncates the direction list.  time_budget (at least 0
    seconds; inf allowed) puts one deadline, that many seconds after the
    call starts, on every chain: a search that would start after it is
    skipped (status "skipped"), and so is the rest of its chain.  jobs
    (at least 1) caps concurrent chains.
    """
    if anchor_mode not in _ANCHOR_MODES:
        raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if max_directions is not None and max_directions < 0:
        raise ValueError("max_directions must be at least 0, not "
                         f"{max_directions}")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be at least 0, not {time_budget}")
    dirs = directions.directions[:max_directions]
    if dirs.shape[1] != sys.state_dim:
        raise ValueError(f"directions have {dirs.shape[1]} entries, but the "
                         f"state has {sys.state_dim}")
    if pwa is None:
        pwa = build_pwa_quantile()
    t0 = time.perf_counter()

    # one assembly, shared read-only by the anchor and every search
    risk = chance.RiskLP(sys, tube, alpha, pwa)
    t_assembled = time.perf_counter()
    anchor = risk.anchor(anchor_mode)
    t_anchored = time.perf_counter()
    timings = {"assemble": t_assembled - t0,
               "anchor": t_anchored - t_assembled,
               "anchor_iterations": anchor.iterations,
               "anchor_solve": anchor.seconds}
    if not anchor.feasible:
        # empty, or solver_failure when the anchor LP gave no verdict
        return ReachSetResult(
            alpha=alpha, anchor=anchor, boundary_points=[],
            status=anchor.status, diagnostic=anchor.diagnostic,
            timings={**timings, "total": t_anchored - t0})

    # neighbouring directions give nearly the same LP, so each chain of
    # them shares one model; the cut depends on the direction list alone,
    # which keeps the results independent of jobs
    chains = [dirs[i:i + CHAIN_LENGTH]
              for i in range(0, len(dirs), CHAIN_LENGTH)]
    deadline = None if time_budget is None else t0 + time_budget
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        points = [bp for found in pool.map(
            lambda chain: list(risk.lines(anchor.x_anchor, chain, deadline)),
            chains) for bp in found]
    timings["searches"] = time.perf_counter() - t_anchored
    # simplex iterations and HiGHS seconds of every search, summed over
    # chains (so above searches when chains run side by side), and the
    # largest chain's LP
    timings["search_iterations"] = sum(bp.iterations for bp in points)
    timings["search_solve"] = sum(bp.seconds for bp in points)
    timings["search_rows"] = max((bp.lp_rows for bp in points), default=0)
    timings["search_cols"] = max((bp.lp_cols for bp in points), default=0)

    t_hull = time.perf_counter()
    result = ReachSetResult(alpha=alpha, anchor=anchor, boundary_points=points,
                            status="ok", timings=timings)
    t_end = time.perf_counter()
    timings.update(hull=t_end - t_hull, total=t_end - t0)
    return result


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
              state_spacing: float, input_spacing: float) -> DpTable:
    """Grid value iteration for the maximal reach probability.

    Backward recursion from the indicator of the terminal set; the
    per-step transition is the Gaussian cell mass around the propagated
    mean, maximized over a finite input grid. Restricted to state
    dimension <= 2 with diagonal per-step covariance and positive grid
    spacings.
    """
    n = sys.state_dim
    if n > 2:
        raise ValueError("dynamic-programming baseline supports dim <= 2")
    if not (state_spacing > 0.0 and input_spacing > 0.0):
        raise ValueError("grid spacings must be positive")
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
        polygon = prune_vertices(
            VPolytope(np.stack([m[mask] for m in mesh], axis=1)))
    return mask, polygon


# ---------------------------------------------------------------------------
# Controller warm starts
# ---------------------------------------------------------------------------

def initial_guess_controller(result: ReachSetResult, x0,
                             tol: float = 1e-7):
    """Blend the stored vertex controllers with convex weights whose
    blend of the points lies nearest x0, at most tol away in the max
    norm; returns (U, weights), the weights in controller_points()
    order.  Only the hull vertices among those points carry weight;
    every other point gets 0.  In 1D the hull has at most two ends, so
    the weights are unique.

    The blend is valid anywhere inside the computed polytope.  The
    probability that the trajectory stays in the tube is log-concave in
    (x0, U) jointly (Prekopa, 1973): the Gaussian noise density is
    log-concave, and the tube is convex in (x0, U, noise).  So at a blend
    of points whose reach probability is at least alpha it is at least
    alpha too, whatever the weights.  The risk LP's rows are linear in
    (x0, U, risks), so the same blend of the points' risk allocations
    meets them as well; no LP bound is computed at x0, though.  Any
    optimum of the weight LP serves, and none is sought."""
    x0 = np.asarray(x0, dtype=float).ravel()
    pts, ctrls = result.controller_points()
    hull = extreme_indices(pts)
    on_hull = VPolytope(pts[hull]).convex_weights(x0, tol=tol)
    if on_hull is None:
        raise ValueError("x0 lies outside the computed polytope")
    weights = np.zeros(len(pts))
    weights[hull] = on_hull
    u = sum(w * c for w, c in zip(weights, ctrls))
    return np.asarray(u), weights
