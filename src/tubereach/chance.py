"""Risk-allocated linear programs for open-loop reach-probability
maximization: anchor point via maximal lower bound, anchor via Chebyshev
centering, and directional line search.

Each half-space constraint of the target tube on a noisy state becomes a
univariate Gaussian tail condition with its own risk variable; the risks
share a budget of 1 - alpha (union bound), and the normal quantile is
replaced by its piecewise-affine overapproximation so everything is
linear.  The envelope, a maximum of affine pieces, enters in epigraph
form: each tail condition is one row in an extra variable t_i, and each
piece bounds t_i from below by a two-entry row in (delta_i, t_i).
:class:`RiskLP` assembles these rows once per (system, tube, alpha);
each question only says how the initial state enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .gaussian import PwaQuantile
from .lpsolve import LinearProgram, solve_lp
from .sysmodel import StochasticLTVSystem, TargetTube, step_moments

SIGMA_DETERMINISTIC = 1e-12


@dataclass
class TubeRow:
    """One tube half-space applied to a noisy state x_k, k >= 1."""

    step: int
    normal: np.ndarray
    offset: float
    sigma: float
    mean_const: float  # normal @ mu_k, the noise mean's share of x_k


@dataclass
class AnchorResult:
    x_anchor: Optional[np.ndarray]
    U: Optional[np.ndarray]
    lower_bound: float
    mode: str  # xmax | cheby
    radius: Optional[float] = None
    status: str = "optimal"  # optimal | empty | solver_failure
    diagnostic: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


@dataclass
class BoundaryPoint:
    """The point anchor + theta * direction that a line search certifies,
    with the open-loop controller U behind its lower bound."""

    direction: np.ndarray
    theta: float
    point: np.ndarray
    U: Optional[np.ndarray]
    lower_bound: float
    status: str  # ok | infeasible | solver_failure | skipped
    diagnostic: str = ""


@dataclass
class _Solution:
    status: str  # optimal | infeasible | solver_failure
    diagnostic: str = ""
    U: Optional[np.ndarray] = None
    deltas: Optional[np.ndarray] = None
    extra: Optional[np.ndarray] = None  # y, then the radius if asked for

    @property
    def lower_bound(self) -> float:
        return 0.0 if self.deltas is None else float(1.0 - self.deltas.sum())


def _tube_rows(moments, tube: TargetTube):
    stochastic, deterministic = [], []
    for k, (_, _, mu_k, cov_k) in enumerate(moments, start=1):
        for p, q in zip(tube[k].normals, tube[k].offsets):
            sigma = float(np.sqrt(max(p @ cov_k @ p, 0.0)))
            row = TubeRow(step=k, normal=p, offset=float(q), sigma=sigma,
                          mean_const=float(p @ mu_k))
            (stochastic if sigma >= SIGMA_DETERMINISTIC else deterministic).append(row)
    return stochastic, deterministic


class RiskLP:
    """The risk-allocated LP of one (system, tube, alpha), assembled once.

    Columns are [U (m*N) | risk deltas | t | y | radius], with one epigraph
    variable t_i per stochastic tube row standing for the PWA quantile
    envelope at delta_i.  The initial state enters as x0 = c + E y, so
    each question supplies only (c, E) -- c = 0 and E = I for the
    anchors, c = anchor and E = direction for a line search; every
    solve keeps x0 in T_0.  The rows over [U | deltas | t]
    are built here in sparse form: each stochastic row once, as
    p (Phi_k x0 + H_k U) + sigma_i t_i <= rhs_i with the step moments of
    sysmodel.step_moments (rhs_i takes p mu_k), then the deterministic tube
    rows, one row m_l delta_i - t_i <= -c_l per (stochastic row, PWA
    piece), the shared risk budget and the per-step input rows.  Pieces
    whose left knot lies at or above the delta cap never reach the
    envelope on [delta_lb, cap] and are left out, and t is bounded by the
    envelope at the cap and at delta_lb; neither changes the feasible
    set.  A solve appends the E columns, the T_0 rows and, for the
    Chebyshev anchor, the radius column.  Nothing is mutated after
    construction, so threads may share one instance.

    Each solve also gives every stochastic row its own risk window.  The
    box of y (a line's step lies in [0, exit of the ray from T_0]) and
    the interval bounds of the input set bound the row's mean
    p (Phi_k x0 + H_k U) to [m_min, m_max].  Inverting the envelope at the
    least and the largest margin rhs_i - m gives [delta_min, delta_need],
    rounded outward and clipped to [delta_lb, cap].  No allocation needs
    delta_i above delta_need: lowering it there keeps row i and loosens
    the budget.  Nor can it go below delta_min, which row i itself
    implies.  So delta_i is bounded to the window and only the pieces
    whose knot interval meets it are kept; a row with delta_need =
    delta_lb can never bind, and its tube row and pieces are dropped
    with delta_i fixed at delta_lb.  The optimal step or total risk is
    the full LP's; the optimal U and deltas may be another of its
    optima.  A row whose mean is unbounded above over the box gets the
    full window [delta_lb, cap]; at the anchors, where x0 is free, that
    is every row that depends on x0.

    So the Chebyshev anchor first solves a trial LP that pins more rows:
    every stochastic row with room at delta_lb at a seed, the centres of
    T_0's box and of the input box, is dropped with its pieces and
    delta_i fixed at delta_lb.  The mask depends only on (system, tube,
    alpha) and is found here; without a bounded box for T_0 (a cone, a
    half-line) or with no row to pin there is no trial.  Any solution of
    the full LP maps to one of the trial with the same x0 and U, by
    lowering each pinned delta_i to delta_lb, so the trial is a
    relaxation, and an infeasible trial is returned as it is.  Its
    optimum is returned only if every pinned row holds at delta_lb
    there, p (Phi_k x0 + H_k U) + sigma_i envelope(delta_lb) <= rhs_i with
    no tolerance: it is then feasible, hence optimal, for the full LP.
    Otherwise, or if the trial stops without a verdict, the full LP is
    solved, so the anchor takes at most two solves.  The optimal radius
    is the full LP's; the anchor's point, U and lower_bound may be
    another of its optima.  The xmax anchor solves the full LP alone:
    when the trial pins every row that depends on x0 its objective is
    constant over T_0, and its optimum mostly breaks a pinned row.
    """

    def __init__(self, sys: StochasticLTVSystem, tube: TargetTube,
                 alpha: float, pwa: PwaQuantile):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if tube.horizon != sys.horizon:
            raise ValueError("tube horizon must match the system horizon")
        if tube.dim != sys.state_dim:
            raise ValueError("tube dimension must match the state dimension")

        moments = step_moments(sys)
        stochastic, deterministic = _tube_rows(moments, tube)
        n, m, nsteps = sys.state_dim, sys.input_dim, sys.horizon
        self.alpha = alpha
        self.tube = tube
        self.deterministic_rows = deterministic
        self.n_u = m * nsteps
        self.n_risk = nr = len(stochastic)
        budget = 1.0 - alpha
        self.delta_lb, pwa_max = pwa.domain
        self.delta_cap = min(pwa_max, budget) if self.n_risk else pwa_max
        floor = self.n_risk * self.delta_lb
        self._floor_diagnostic = "" if floor <= budget else (
            f"risk budget {budget:.3g} below the floor {floor:.3g} "
            f"({self.n_risk} rows at delta_lb {self.delta_lb:.1g}): "
            "infeasible by construction")

        def coefficients(rows):
            """(U coefficients, x0 coefficients, rhs) of tube rows."""
            if not rows:
                return np.zeros((0, self.n_u)), np.zeros((0, n)), np.zeros(0)
            return (np.stack([r.normal @ moments[r.step - 1][1]
                              for r in rows]),
                    np.stack([r.normal @ moments[r.step - 1][0]
                              for r in rows]),
                    np.array([r.offset - r.mean_const for r in rows]))

        # secants are ordered by knot; piece l's left knot lies below the
        # cap iff it exceeds piece l-1 there
        slopes, intercepts = np.array(pwa.pieces).T
        rise = np.diff(slopes) * self.delta_cap + np.diff(intercepts)
        keep = np.concatenate([[True], rise > 0])
        slopes, intercepts = slopes[keep], intercepts[keep]
        self.pieces = list(zip(slopes, intercepts))
        # piece l rules the envelope on [knots[l], knots[l + 1]]; inner
        # knots are where consecutive secants meet
        self._knots = np.clip(np.concatenate(
            [[self.delta_lb], -np.diff(intercepts) / np.diff(slopes),
             [self.delta_cap]]), self.delta_lb, self.delta_cap)
        self._knot_env = np.max(slopes[:, None] * self._knots
                                + intercepts[:, None], axis=0)

        coef_u, x0_stochastic, rhs0 = coefficients(stochastic)
        det_u, x0_deterministic, det_rhs = coefficients(deterministic)
        # the x0 coefficients of the rows that come first: the tube rows
        self._x0 = np.vstack([x0_stochastic, x0_deterministic])
        sig = np.array([r.sigma for r in stochastic])
        self._sigma, self._rhs_risk = sig, rhs0
        u_lo, u_hi = sys.input_set.interval_bounds() if m \
            else (np.zeros(0), np.zeros(0))
        u_lo, u_hi = np.tile(u_lo, nsteps), np.tile(u_hi, nsteps)
        # range of the input's share of each stochastic row's mean
        self._u_range = _interval_range(coef_u, u_lo, u_hi)
        # the Chebyshev anchor's trial pins the rows with room at delta_lb
        # at the seed: the centres of T_0's box and of the input box
        self._pinned = None
        env_lb = pwa.envelope(self.delta_lb)
        t0_box = tube[0].as_box_bounds()
        if nr and t0_box is not None:
            seed_x0 = 0.5 * (t0_box[0] + t0_box[1])
            seed_u = 0.5 * (u_lo + u_hi)
            if np.isfinite(seed_x0).all() and np.isfinite(seed_u).all():
                limit = rhs0 - sig * env_lb
                pinned = coef_u @ seed_u + x0_stochastic @ seed_x0 <= limit
                if pinned.any():
                    self._pinned = pinned
                    self._pinned_rows = (coef_u[pinned],
                                         x0_stochastic[pinned],
                                         limit[pinned])
        piece = np.repeat(np.arange(slopes.size), nr)
        row = np.tile(np.arange(nr), slopes.size)
        epigraph = sp.coo_array(
            (np.concatenate([slopes[piece], -np.ones(row.size)]),
             (np.tile(np.arange(row.size), 2),
              np.concatenate([row, nr + row]))),
            shape=(row.size, 2 * nr))
        groups = [sp.hstack([sp.csr_array(coef_u),
                             sp.csr_array((nr, nr)), sp.diags_array(sig)]),
                  sp.hstack([sp.csr_array(det_u),
                             sp.csr_array((len(deterministic), 2 * nr))]),
                  sp.hstack([sp.csr_array((row.size, self.n_u)), epigraph])]
        rhs = [rhs0, det_rhs, -intercepts[piece]]
        if nr:
            groups.append(sp.csr_array(np.concatenate(
                [np.zeros(self.n_u), np.ones(nr), np.zeros(nr)])[None, :]))
            rhs.append(np.array([budget]))

        # input set rows per step (box input sets are handled via bounds)
        box = sys.input_set.as_box_bounds() if m else None
        if m and box is None:
            inputs = sp.block_diag([sys.input_set.normals] * nsteps)
            groups.append(sp.hstack(
                [inputs, sp.csr_array((inputs.shape[0], 2 * nr))]))
            rhs.extend([sys.input_set.offsets] * nsteps)
        self.rows = sp.vstack(groups, format="csr")
        self.rows.eliminate_zeros()  # sp.block_diag keeps explicit zeros
        self.rhs = np.concatenate(rhs)

        # bounds of U and of t; a solve puts each delta_i's window between
        self._u_bounds = [(box[0][i], box[1][i]) for i in range(m)] \
            * nsteps if box is not None else [(-np.inf, np.inf)] * self.n_u
        # the envelope decreases, so t_i = envelope(delta_i) fits these;
        # bounded, presolve settles more of the LP
        self._t_bounds = [(pwa.envelope(self.delta_cap), env_lb)] * nr

    def anchor(self, mode: str) -> AnchorResult:
        """Anchor maximizing the risk-allocation lower bound on the reach
        probability ("xmax"), or the center of the largest ball in T_0
        whose center keeps the risk allocation feasible ("cheby"); an
        empty underapproximation when infeasible."""
        if mode not in ("xmax", "cheby"):
            raise ValueError(f"unknown anchor mode {mode!r}")
        cheby = mode == "cheby"
        n = self.tube.dim

        def solve(pinned=None):
            return self._solve(np.zeros(n), np.eye(n), radius=cheby,
                               maximize=cheby, pinned=pinned)
        trial = cheby and self._pinned is not None
        sol = solve(self._pinned if trial else None)
        # an infeasible relaxation proves the full LP infeasible
        if trial and sol.status != "infeasible" and not (
                sol.status == "optimal"
                and self._pinned_rows_hold(sol.extra[:n], sol.U)):
            sol = solve()
        if sol.status != "optimal":
            status = "empty" if sol.status == "infeasible" else sol.status
            return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                                mode=mode, status=status,
                                diagnostic=sol.diagnostic)
        lb = sol.lower_bound
        if not cheby and lb < self.alpha - 1e-9:
            return AnchorResult(x_anchor=None, U=None, lower_bound=lb,
                                mode=mode, status="empty",
                                diagnostic=f"best lower bound {lb:.6f} < alpha")
        return AnchorResult(x_anchor=sol.extra[:n], U=sol.U, lower_bound=lb,
                            mode=mode,
                            radius=float(sol.extra[n]) if cheby else None)

    def _pinned_rows_hold(self, x0: np.ndarray, U: np.ndarray) -> bool:
        """Whether every row the trial pinned holds at delta_lb at
        (x0, U), with no tolerance."""
        coef_u, coef_x0, limit = self._pinned_rows
        return bool(np.all(coef_u @ U + coef_x0 @ x0 <= limit))

    def line(self, anchor, direction) -> BoundaryPoint:
        """Boundary point at the maximal step along a direction from the
        anchor keeping the risk allocation feasible; its input sequence
        certifies its lower bound.  A failed search stays at the anchor."""
        anchor = np.asarray(anchor, dtype=float).ravel()
        direction = np.asarray(direction, dtype=float).ravel()

        def at(theta, U=None, lower_bound=0.0, status="ok", diagnostic=""):
            return BoundaryPoint(direction=direction, theta=theta,
                                 point=anchor + theta * direction, U=U,
                                 lower_bound=lower_bound, status=status,
                                 diagnostic=diagnostic)
        if not self.tube[0].contains(anchor, tol=1e-7):
            return at(0.0, status="infeasible",
                      diagnostic="anchor lies outside T_0")
        # the T_0 rows imply the cap; as a bound it narrows the windows
        sol = self._solve(anchor, direction[:, None], y_lo=0.0,
                          y_hi=self.tube[0].ray_exit(anchor, direction),
                          maximize=True)
        if sol.status != "optimal":
            return at(0.0, status=sol.status, diagnostic=sol.diagnostic)
        return at(max(float(sol.extra[0]), 0.0), sol.U, sol.lower_bound)

    def _solve(self, c: np.ndarray, E: np.ndarray, y_lo: float = -np.inf,
               y_hi: float = np.inf, radius: bool = False,
               maximize: bool = False,
               pinned: Optional[np.ndarray] = None) -> _Solution:
        """Solve with x0 = c + E y and y_lo <= y <= y_hi, over the rows
        that the risk windows keep, less the stochastic rows in pinned,
        whose risk is fixed at delta_lb.  x0 must lie in T_0, by a margin
        of the radius column when one is asked for.  The objective is the
        total risk, or with maximize the last column (the step or the
        radius)."""
        if self._floor_diagnostic:
            return _Solution("infeasible", self._floor_diagnostic)
        n_y, n_r = E.shape[1], int(radius)
        x0_cols, x0_const = self._x0 @ E, self._x0 @ c
        lo, hi, keep = self._windows(x0_cols, x0_const, y_lo, y_hi, pinned)
        rows, row_rhs = self.rows, self.rhs
        if not keep.all():
            tube_rows = keep[:x0_const.size]
            rows, row_rhs = rows[keep], row_rhs[keep]
            x0_cols, x0_const = x0_cols[tube_rows], x0_const[tube_rows]
        n_rest = row_rhs.size - x0_const.size
        t0 = self.tube[0]
        ball = np.linalg.norm(t0.normals, axis=1)[:, None] if radius \
            else np.zeros((t0.n_rows, 0))
        blocks = [[rows,
                   sp.vstack([sp.csr_array(x0_cols),
                              sp.csr_array((n_rest, n_y))]),
                   sp.csr_array((row_rhs.size, n_r))],
                  [sp.csr_array((t0.n_rows, self.rows.shape[1])),
                   sp.csr_array(t0.normals @ E), sp.csr_array(ball)]]
        rhs = [row_rhs - np.concatenate([x0_const, np.zeros(n_rest)]),
               t0.offsets - t0.normals @ c]
        bounds = self._u_bounds + list(zip(lo, hi)) + self._t_bounds \
            + [(y_lo, y_hi)] * n_y + [(0.0, np.inf)] * n_r
        objective = np.zeros(len(bounds))
        if maximize:
            objective[-1] = -1.0
        else:
            objective[self.n_u:self.n_u + self.n_risk] = 1.0
        lp = LinearProgram(objective=objective,
                           ineq=(sp.block_array(blocks, format="csr"),
                                 np.concatenate(rhs)),
                           bounds=bounds)
        sol = solve_lp(lp)
        if sol.status == "infeasible":
            return _Solution(
                "infeasible", "risk-allocated LP infeasible: the "
                "chance-constrained underapproximation is empty (the true "
                "reach set may still be nonempty)")
        if not sol.optimal:
            return _Solution("solver_failure",
                             f"LP solver returned {sol.status}")
        k = self.n_u + self.n_risk
        return _Solution("optimal", U=sol.z[:self.n_u],
                         deltas=sol.z[self.n_u:k],
                         extra=sol.z[k + self.n_risk:])

    def _windows(self, x0_cols: np.ndarray, x0_const: np.ndarray,
                 y_lo: float, y_hi: float,
                 pinned: Optional[np.ndarray] = None):
        """(delta_min, delta_need, rows kept): the risk window of each
        stochastic row for x0 = c + E y with y_lo <= y <= y_hi, given the
        x0 coefficients of the tube rows times E and times c, and the mask
        over self.rows of the rows that can bind.  Unbounded mean ranges
        invert to the ends of the envelope's domain, never to NaN.  A
        pinned row gets the window [delta_lb, delta_lb] and is dropped."""
        nr = self.n_risk
        y_min, y_max = _interval_range(x0_cols[:nr], y_lo, y_hi)
        mean_min = x0_const[:nr] + y_min + self._u_range[0]
        mean_max = x0_const[:nr] + y_max + self._u_range[1]
        # envelope levels t_i that row i leaves room for, widened outward
        least = (self._rhs_risk - mean_max) / self._sigma
        most = (self._rhs_risk - mean_min) / self._sigma
        least -= 1e-9 * (1.0 + np.abs(least))
        most += 1e-9 * (1.0 + np.abs(most))
        # the envelope decreases, so it inverts on its reversed knots
        levels, knots = self._knot_env[::-1], self._knots[::-1]
        need = np.interp(least, levels, knots)
        low = np.interp(most, levels, knots)
        if pinned is not None:
            need[pinned] = low[pinned] = self.delta_lb
        binds = need > self.delta_lb
        meets = (self._knots[:-1, None] <= need) \
            & (self._knots[1:, None] >= low) & binds
        n_det = len(self.deterministic_rows)
        n_tail = self.rhs.size - nr - n_det - meets.size
        keep = np.concatenate([binds, np.ones(n_det, dtype=bool),
                               meets.ravel(), np.ones(n_tail, dtype=bool)])
        return low, need, keep


def _interval_range(coef: np.ndarray, lo, hi):
    """Least and largest value of each row of coef @ v over the box
    lo <= v <= hi; zero coefficients add nothing, even where the box is
    unbounded, so the result is never NaN."""
    with np.errstate(invalid="ignore"):
        ends = np.stack([coef * lo, coef * hi])
    ends[:, coef == 0.0] = 0.0
    return ends.min(axis=0).sum(axis=1), ends.max(axis=0).sum(axis=1)
