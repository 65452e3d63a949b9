"""Risk-allocated linear programs for open-loop reach-probability
maximization: anchor point via maximal lower bound, anchor via Chebyshev
centering, and directional line search.

Each half-space constraint of the target tube on a noisy state becomes a
univariate Gaussian tail condition with its own risk variable; the risks
share a budget of 1 - alpha (union bound), and the normal quantile is
replaced by its piecewise-affine overapproximation so everything is
linear.  The envelope is convex, so it enters in segment form: each tail
condition's risk is delta_lb plus one bounded column per envelope piece,
and its row weighs each column by that piece's slope.
:class:`RiskLP` assembles these rows once per (system, tube, alpha);
each question only says how the initial state enters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp

from .gaussian import PwaQuantile
from .lpsolve import LpModel, LpSolution, highs_solve
from .sysmodel import StochasticLTVSystem, TargetTube, step_moments

SIGMA_DETERMINISTIC = 1e-12


@dataclass
class AnchorResult:
    x_anchor: Optional[np.ndarray]
    U: Optional[np.ndarray]
    lower_bound: float
    mode: str  # xmax | cheby
    radius: Optional[float] = None
    status: str = "optimal"  # optimal | empty | solver_failure
    diagnostic: str = ""
    # simplex iterations and HiGHS seconds of its LPs; not stored
    iterations: int = 0
    seconds: float = 0.0

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
    # simplex iterations and HiGHS seconds of its solve, and its chain's
    # LP size; not stored
    iterations: int = 0
    seconds: float = 0.0
    lp_rows: int = 0
    lp_cols: int = 0


@dataclass
class _Solution:
    status: str  # optimal | infeasible | solver_failure
    diagnostic: str = ""
    U: Optional[np.ndarray] = None
    deltas: Optional[np.ndarray] = None
    extra: Optional[np.ndarray] = None  # y, then the radius if asked for
    iterations: int = 0
    seconds: float = 0.0

    @property
    def lower_bound(self) -> float:
        return 0.0 if self.deltas is None else float(1.0 - self.deltas.sum())


def tube_rows(sys: StochasticLTVSystem, tube: TargetTube):
    """x0 coefficients, U coefficients, rhs and sigma of every face of
    T_1..T_N in step order: face p x_k <= q of T_k reads p Phi_k x0 + p H_k
    U <= q - p mu_k, with noise sigma = sqrt(p Sigma_k p).  A row's margin
    at (x0, U) is its rhs less its mean there."""
    parts = []
    for k, (phi, h, mu, cov) in enumerate(step_moments(sys), start=1):
        normals = tube[k].normals
        # every row's p cov_k p at once
        variances = np.einsum("ij,ij->i", normals @ cov, normals)
        parts.append((normals @ phi, normals @ h,
                      tube[k].offsets - normals @ mu,
                      np.sqrt(np.maximum(variances, 0.0))))
    return tuple(np.concatenate(part) for part in zip(*parts))


class RiskLP:
    """The risk-allocated LP of one (system, tube, alpha), assembled once.

    Every LP that the instance solves is a row and column selection of
    one table: the tube rows (stochastic first, each group in tube_rows'
    order), the budget row, the per-step input rows (box input sets go
    to bounds) and T_0's rows, in that order.  rows holds their [U (m*N) |
    segments] coefficients, _x0 their x0 coefficients, rhs their right
    sides and _ball the norm of each T_0 face (0 elsewhere).  rows is
    column-wise, built once from its nonzeros: a U column holds those
    of its tube and input rows, rows ascending, and a segment column
    exactly two entries, in its row and in the budget row.  _model takes
    the [U | kept segments] columns by their offsets, drops the rows it
    does not keep and renumbers the rest, and appends the nonzeros of
    the y and radius columns, so HiGHS gets the model's column-wise
    arrays, rows sorted and no zero stored, without a conversion.  The PWA
    envelope is convex, its slopes m_l rising from piece to piece, so on
    [delta_lb, cap] it is envelope(delta_lb) plus one segment per piece
    (the delta-method of Markowitz & Manne, 1957): stochastic tube row i
    gets columns s_il in [0, knot_l+1 - knot_l], delta_i = delta_lb +
    sum_l s_il, and the row p (Phi_k x0 + H_k U) + sigma_i sum_l m_l
    s_il <= rhs_i - sigma_i envelope(delta_lb), with the step moments of
    sysmodel.step_moments (rhs_i takes p mu_k).  The steepest-first fill
    gives sum_l m_l s_il = envelope(delta_i) - envelope(delta_lb) and any
    other fill more, so every solution meets the row under the envelope
    and the feasible set in (x0, U, delta) is the envelope's.  The
    budget row is sum s_il <= 1 - alpha - n_risk delta_lb.  Pieces whose
    left knot lies at or above the delta cap get no column.  The initial
    state enters as x0 = c + E y: c = 0 and E = I for the anchors, c =
    anchor and E = direction for a line search, so a solve substitutes
    _x0 c into rhs and appends the columns _x0 E and, for the Chebyshev
    anchor, the radius column _ball.  Nothing is mutated after
    construction, so threads may share one instance.

    Each line search gives every stochastic row a risk window
    [delta_lb, delta_need]: over the box of the step, [0, exit of the
    ray from T_0], and of the inputs the row's mean has a largest
    value, and delta_need is the envelope inverted at that least margin,
    rounded up.  No allocation needs more: lowering delta_i there keeps
    row i and loosens the budget.  So the segments wholly above
    delta_need are left out, and every kept one spans its whole piece; a
    row with delta_need = delta_lb can never bind, and is dropped with
    its columns.  Leaving out segments only shrinks the full LP, and the
    LP with each kept segment clipped at delta_need, a subset of this
    one, already attains the full LP's optimum, so the optimal step is
    the full LP's; U and the deltas may be another of its optima.

    The anchors need no windows: x0 is free but for T_0, and the full LP
    keeps every column.  The Chebyshev anchor first solves a trial LP
    that keeps every column of the rows it does not pin: every
    stochastic row with room at delta_lb at a seed, the centres of T_0's
    box and of the input box, loses its columns and is dropped.  The mask
    depends only on (system, tube, alpha) and is found here; without a
    bounded box for T_0 (a cone, a half-line) or with no row to pin there
    is no trial.  Any solution of the full LP maps to one of the trial
    with the same x0 and U, by lowering each pinned delta_i to delta_lb,
    so the trial is a relaxation, and an infeasible trial is returned as
    it is.  Its optimum is returned only if every pinned row holds at
    delta_lb there, p (Phi_k x0 + H_k U) + sigma_i envelope(delta_lb) <=
    rhs_i with no tolerance: it is then feasible, hence optimal, for the
    full LP.  Otherwise, or if the trial stops without a verdict, the
    full LP is solved, so the anchor takes at most two solves.  The
    optimal radius is the full LP's; the anchor's point, U and
    lower_bound may be another of its optima.  The xmax anchor solves
    the full LP alone: when the trial pins every row that depends on x0
    its objective is constant over T_0, and its optimum mostly breaks a
    pinned row.
    """

    def __init__(self, sys: StochasticLTVSystem, tube: TargetTube,
                 alpha: float, pwa: PwaQuantile):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if tube.horizon != sys.horizon:
            raise ValueError("tube horizon must match the system horizon")
        if tube.dim != sys.state_dim:
            raise ValueError("tube dimension must match the state dimension")

        rows = tube_rows(sys, tube)
        order = np.argsort(rows[3] < SIGMA_DETERMINISTIC, kind="stable")
        x0, coef_u, rhs, sigma = (part[order] for part in rows)
        n, m, nsteps = sys.state_dim, sys.input_dim, sys.horizon
        self.alpha = alpha
        self.tube = tube
        self.n_u = m * nsteps
        self.n_risk = nr = int(np.count_nonzero(sigma >= SIGMA_DETERMINISTIC))
        budget = 1.0 - alpha
        self.delta_lb, pwa_max = pwa.domain
        self.delta_cap = min(pwa_max, budget) if self.n_risk else pwa_max
        floor = self.n_risk * self.delta_lb
        self._floor_diagnostic = "" if floor <= budget else (
            f"risk budget {budget:.3g} below the floor {floor:.3g} "
            f"({self.n_risk} rows at delta_lb {self.delta_lb:.1g}): "
            "infeasible by construction")

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
        # a row's segment form adds one rounded product per piece to
        # env(delta_lb); starting an ulp per piece above it keeps the sum
        # at or above the quantile where the two meet, as at delta = 0.5
        self._knot_env[0] += slopes.size * np.spacing(self._knot_env[0])
        self._lengths = np.diff(self._knots)

        sig = sigma[:nr]
        self._sigma, self._rhs_risk = sig, rhs[:nr]
        u_lo, u_hi = sys.input_set.interval_bounds() if m \
            else (np.zeros(0), np.zeros(0))
        u_lo, u_hi = np.tile(u_lo, nsteps), np.tile(u_hi, nsteps)
        # largest value of the input's share of each stochastic row's mean
        self._u_max = _interval_max(coef_u[:nr], u_lo, u_hi)

        # the table's rows: tube rows (a stochastic one at delta_lb),
        # budget, input rows, T_0's rows, with their U coefficients
        t0 = tube[0]
        blocks = [(coef_u, x0, np.concatenate(
            [rhs[:nr] - sig * self._knot_env[0], rhs[nr:]]))]
        if nr:
            blocks.append((np.zeros((1, self.n_u)), np.zeros((1, n)),
                           [budget - floor]))
        box = sys.input_set.as_box_bounds() if m else None
        if m and box is None:
            inputs = np.kron(np.eye(nsteps), sys.input_set.normals)
            blocks.append((inputs, np.zeros((inputs.shape[0], n)),
                           np.tile(sys.input_set.offsets, nsteps)))
        blocks.append((np.zeros((t0.n_rows, self.n_u)), t0.normals,
                       t0.offsets))
        u_rows, x0_rows, rhs_rows = zip(*blocks)
        self._x0 = np.vstack(x0_rows)
        self.rhs = np.concatenate(rhs_rows)
        self._ball = np.concatenate([np.zeros(self.rhs.size - t0.n_rows),
                                     np.linalg.norm(t0.normals, axis=1)])
        # the table's columns: each U column holds its nonzeros, rows
        # ascending; segment column (i, l), column n_u + i * len(pieces)
        # + l, holds sigma_i m_l in row i and 1 in the budget row, which
        # follows the tube rows
        u_cols = np.vstack(u_rows).T
        u_col, u_row = np.nonzero(u_cols)
        n_seg = nr * slopes.size
        owner = np.repeat(np.arange(nr), slopes.size)
        seg_data = np.column_stack([sig[owner] * np.tile(slopes, nr),
                                    np.ones(n_seg)])
        seg_rows = np.column_stack([owner, np.full(n_seg, x0.shape[0])])
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(u_col, minlength=self.n_u)),
             u_col.size + 2 * np.arange(1, n_seg + 1)])
        self.rows = sp.csc_array(
            (np.concatenate([u_cols[u_col, u_row], seg_data.ravel()]),
             np.concatenate([u_row, seg_rows.ravel()]), indptr),
            shape=(self.rhs.size, self.n_u + n_seg))
        self._u_bounds = np.tile(np.column_stack(box), (nsteps, 1)) \
            if box is not None else np.tile([-np.inf, np.inf], (self.n_u, 1))

        # the Chebyshev anchor's trial pins the rows with room at delta_lb
        # at the seed: the centres of T_0's box and of the input box
        self._pinned = None
        t0_box = t0.as_box_bounds()
        if nr and t0_box is not None:
            seed_x0 = 0.5 * (t0_box[0] + t0_box[1])
            seed_u = 0.5 * (u_lo + u_hi)
            if np.isfinite(seed_x0).all() and np.isfinite(seed_u).all():
                pinned = self._hold_at_delta_lb(seed_x0, seed_u)
                if pinned.any():
                    self._pinned = pinned

    def anchor(self, mode: str) -> AnchorResult:
        """Anchor maximizing the risk-allocation lower bound on the reach
        probability ("xmax"), or the center of the largest ball in T_0
        whose center keeps the risk allocation feasible ("cheby"); an
        empty underapproximation when infeasible."""
        if mode not in ("xmax", "cheby"):
            raise ValueError(f"unknown anchor mode {mode!r}")
        if self._floor_diagnostic:
            return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                                mode=mode, status="empty",
                                diagnostic=self._floor_diagnostic)
        cheby = mode == "cheby"
        n = self.tube.dim
        full = np.ones((self.n_risk, len(self.pieces)), dtype=bool)

        def solve(cols):
            # x0 = y, free but for T_0
            model = self._model(np.zeros(n), np.eye(n), cols, -np.inf,
                                np.inf, radius=cheby, maximize=cheby)
            return self._solution(highs_solve(model), cols)
        trial = cheby and self._pinned is not None
        # a pinned row keeps no segment in the trial
        sol = solve(full & ~self._pinned[:, None] if trial else full)
        # an infeasible relaxation proves the full LP infeasible
        if trial and sol.status != "infeasible" and not (
                sol.status == "optimal"
                and self._pinned_rows_hold(sol.extra[:n], sol.U)):
            trial_sol = sol
            sol = solve(full)
            sol.iterations += trial_sol.iterations
            sol.seconds += trial_sol.seconds
        lb = sol.lower_bound
        if sol.status != "optimal":
            status = "empty" if sol.status == "infeasible" else sol.status
            res = AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                               mode=mode, status=status,
                               diagnostic=sol.diagnostic)
        elif not cheby and lb < self.alpha - 1e-9:
            res = AnchorResult(x_anchor=None, U=None, lower_bound=lb,
                               mode=mode, status="empty",
                               diagnostic=f"best lower bound {lb:.6f} < alpha")
        else:
            res = AnchorResult(x_anchor=sol.extra[:n], U=sol.U,
                               lower_bound=lb, mode=mode,
                               radius=float(sol.extra[n]) if cheby else None)
        res.iterations, res.seconds = sol.iterations, sol.seconds
        return res

    def _pinned_rows_hold(self, x0: np.ndarray, U: np.ndarray) -> bool:
        """Whether every row the trial pinned holds at delta_lb at
        (x0, U), with no tolerance."""
        return bool(np.all(self._hold_at_delta_lb(x0, U)[self._pinned]))

    def _hold_at_delta_lb(self, x0: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Whether each stochastic tube row holds at (x0, U) with its
        risk at delta_lb, with no tolerance; the pin and its check both
        compute these products."""
        nr = self.n_risk
        return self.rows[:nr, :self.n_u] @ U + self._x0[:nr] @ x0 \
            <= self.rhs[:nr]

    def lines(self, anchor, directions,
              deadline: Optional[float] = None) -> Iterator[BoundaryPoint]:
        """Boundary points at the maximal steps along directions from the
        anchor keeping the risk allocation feasible, yielded in order,
        each solved when it is asked for; each point's input sequence
        certifies its lower bound.  A point is anchor + theta d if ok, else
        the anchor itself, bit for bit: a failed search stays there and
        marks only its own direction.  So does a point that no
        search reaches, with no controller: every point is "infeasible"
        when the anchor lies outside T_0 or the budget is below its
        floor, and "skipped" from the first search that would start
        after deadline (a time.perf_counter() reading) on.

        The directions form one chain: one LP model, built for the first
        search and re-solved from the last basis.  Every direction's
        risk window is found first, and the model holds every segment
        column that the window of any direction keeps, with its row,
        each spanning its whole piece.
        For each direction only the step column y changes: its
        coefficients _x0 d on the kept rows, of which only those that
        differ from the last direction's are sent, and its upper bound,
        the exit of the ray from T_0 (which the T_0 rows already imply).
        The step found is still the full LP's: a row that no window keeps
        holds at delta_lb for every step and input in this direction's
        box, so the chain's LP lies between the full LP and this
        direction's windowed LP, and both of those have the full LP's
        optimal step.  U and the deltas may be another of its optima.  Where
        anchor + theta d rounds past the ray's exit, theta steps down by
        an ulp at a time, at most 8, until the point lies in T_0
        exactly."""
        anchor = np.asarray(anchor, dtype=float).ravel()
        directions = [np.asarray(d, dtype=float).ravel()
                      for d in directions]
        t0 = self.tube[0]
        status = "infeasible"
        failed = "anchor lies outside T_0" \
            if not t0.contains(anchor, tol=1e-7) else self._floor_diagnostic
        for j, d in enumerate(directions):
            if not failed and deadline is not None \
                    and time.perf_counter() > deadline:
                status, failed = "skipped", "time budget exhausted"
            if failed:
                yield BoundaryPoint(direction=d, theta=0.0,
                                    point=anchor.copy(), U=None,
                                    lower_bound=0.0, status=status,
                                    diagnostic=failed)
                continue
            if not j:
                x0_const = self._x0 @ anchor
                exits = [t0.ray_exit(anchor, e) for e in directions]
                x0_cols = [self._x0 @ e for e in directions]
                cols = np.logical_or.reduce(
                    [self._windows(col, x0_const, top)
                     for col, top in zip(x0_cols, exits)])
                model = self._model(anchor, d[:, None], cols, 0.0,
                                    exits[0], maximize=True)
                keep = self._kept_rows(cols)
                y = model.n_vars - 1
                held = x0_cols[0][keep]
            else:
                # only the entries that differ: resending an equal value,
                # or a zero where none is held, leaves the model as it is
                new = x0_cols[j][keep]
                changed = np.flatnonzero(new != held)
                model.change_column(y, changed, new[changed])
                model.change_bounds([y], [0.0], [exits[j]])
                held = new
            sol = self._solution(highs_solve(model), cols)
            ok = sol.status == "optimal"
            theta = max(float(sol.extra[0]), 0.0) if ok else 0.0
            point = anchor + theta * d if ok else anchor.copy()
            for _ in range(8):
                if theta == 0.0 or t0.contains(point, tol=0.0):
                    break
                theta = float(np.nextafter(theta, 0.0))
                point = anchor + theta * d
            yield BoundaryPoint(
                direction=d, theta=theta, point=point, U=sol.U,
                lower_bound=sol.lower_bound, status="ok" if ok else sol.status,
                diagnostic=sol.diagnostic, iterations=sol.iterations,
                seconds=sol.seconds, lp_rows=model.n_rows,
                lp_cols=model.n_vars)

    def _kept_rows(self, cols: np.ndarray) -> np.ndarray:
        """The rows of the table kept with the segment columns in cols:
        a stochastic tube row that holds any of them, and every other
        row."""
        keep = np.ones(self.rhs.size, dtype=bool)
        keep[:self.n_risk] = cols.any(axis=1)
        return keep

    def _model(self, c: np.ndarray, E: np.ndarray, cols: np.ndarray,
               y_lo: float, y_hi: float, radius: bool = False,
               maximize: bool = False) -> LpModel:
        """The HiGHS model of the LP with x0 = c + E y and y_lo <= y <=
        y_hi, over the rows that _kept_rows keeps and the segment columns
        in cols, each in [0, its piece's length].  x0 lies in T_0, by a
        margin of the radius column when one is asked for.  The objective
        is the total risk, or with maximize the last column (the step or
        the radius).  Every risk LP reaches HiGHS through here."""
        n_y, n_r = E.shape[1], int(radius)
        keep = self._kept_rows(cols)
        segments = np.flatnonzero(cols)
        # the table's entries in the [U | kept segments] columns, and
        # where each column starts among them: the U columns lead the
        # table and a segment column holds two entries
        u_end = self.rows.indptr[self.n_u]
        entries = np.concatenate([np.arange(u_end), (
            u_end + 2 * segments[:, None] + [0, 1]).ravel()])
        starts = np.concatenate([self.rows.indptr[:self.n_u],
                                 u_end + 2 * np.arange(segments.size + 1)])
        # those in the kept rows, renumbered, then the nonzeros of the y
        # and radius columns: column by column, rows ascending
        table_rows = self.rows.indices[entries]
        kept = keep[table_rows]
        kept_before = np.concatenate([[0], np.cumsum(kept)])
        extra = np.column_stack([(self._x0 @ E)[keep],
                                 self._ball[keep, None][:, :n_r]]).T
        extra_col, extra_row = np.nonzero(extra)
        data = np.concatenate([self.rows.data[entries[kept]],
                               extra[extra_col, extra_row]])
        indices = np.concatenate([(np.cumsum(keep) - 1)[table_rows[kept]],
                                  extra_row])
        indptr = np.concatenate([kept_before[starts], kept_before[-1]
                                 + np.cumsum(np.count_nonzero(extra, axis=1))])
        matrix = sp.csc_array((data, indices, indptr),
                              shape=(int(keep.sum()), indptr.size - 1))
        bounds = np.concatenate([
            self._u_bounds,
            np.column_stack([np.zeros(segments.size),
                             self._lengths[segments % cols.shape[1]]]),
            np.tile([y_lo, y_hi], (n_y, 1)),
            np.tile([0.0, np.inf], (n_r, 1))])
        objective = np.zeros(len(bounds))
        if maximize:
            objective[-1] = -1.0
        else:
            objective[self.n_u:self.n_u + segments.size] = 1.0
        return LpModel(objective, matrix,
                       self.rhs[keep] - (self._x0 @ c)[keep], bounds=bounds)

    def _solution(self, sol: LpSolution, cols: np.ndarray) -> _Solution:
        """The solution of an LP over the segment columns in cols."""
        if sol.status == "infeasible":
            return _Solution(
                "infeasible", "risk-allocated LP infeasible: the "
                "chance-constrained underapproximation is empty (the true "
                "reach set may still be nonempty)",
                iterations=sol.iterations, seconds=sol.seconds)
        if not sol.optimal:
            return _Solution("solver_failure",
                             f"LP solver returned {sol.status}",
                             iterations=sol.iterations, seconds=sol.seconds)
        k = self.n_u + int(cols.sum())
        owner = np.flatnonzero(cols) // cols.shape[1]
        deltas = self.delta_lb + np.bincount(
            owner, weights=sol.z[self.n_u:k], minlength=self.n_risk)
        return _Solution("optimal", U=sol.z[:self.n_u], deltas=deltas,
                         extra=sol.z[k:], iterations=sol.iterations,
                         seconds=sol.seconds)

    def _windows(self, x0_col: np.ndarray, x0_const: np.ndarray,
                 top: float) -> np.ndarray:
        """Which segment columns (n_risk, pieces) to keep on the ray x0 =
        c + d y, 0 <= y <= top, given the table's x0 coefficients times d
        and times c: those whose piece starts below the row's
        delta_need."""
        nr = self.n_risk
        mean_max = x0_const[:nr] + self._u_max \
            + _interval_max(x0_col[:nr, None], 0.0, top)
        # the envelope level that row i leaves room for, lowered
        least = (self._rhs_risk - mean_max) / self._sigma
        least -= 1e-9 * (1.0 + np.abs(least))
        # the envelope decreases, so it inverts on its reversed knots
        need = np.interp(least, self._knot_env[::-1], self._knots[::-1])
        return need[:, None] > self._knots[:-1]


def _interval_max(coef: np.ndarray, lo, hi) -> np.ndarray:
    """Largest value of each row of coef @ v over the box lo <= v <= hi;
    zero coefficients add nothing, even where the box is unbounded, so
    the result is never NaN."""
    with np.errstate(invalid="ignore"):
        ends = np.maximum(coef * lo, coef * hi)
    ends[coef == 0.0] = 0.0
    return ends.sum(axis=1)
