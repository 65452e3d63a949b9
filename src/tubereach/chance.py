"""Risk-allocated linear programs for open-loop reach-probability
maximization: anchor point via maximal lower bound, anchor via Chebyshev
centering, and directional line search.

Each half-space constraint of the target tube on a noisy state becomes a
univariate Gaussian tail condition with its own risk variable; the risks
share a budget of 1 - alpha (union bound), and the normal quantile is
replaced by its piecewise-affine overapproximation so everything is
linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .gaussian import PwaQuantile
from .geometry import HPolytope
from .lpsolve import LinearProgram, solve_lp
from .sysmodel import ConcatenatedDynamics, StochasticLTVSystem, TargetTube, \
    concat_matrices

SIGMA_DETERMINISTIC = 1e-12


@dataclass
class TubeRow:
    """One tube half-space applied to a noisy state x_k, k >= 1."""

    step: int
    normal: np.ndarray
    offset: float
    sigma: float
    mean_const: float  # normal @ (G muW) restricted to step k


@dataclass
class RiskAllocatedProblem:
    """Assembled risk-allocation data plus the variable layout of the LP."""

    cd: ConcatenatedDynamics
    stochastic_rows: List[TubeRow]
    deterministic_rows: List[TubeRow]
    pwa: PwaQuantile
    alpha: float
    mode: str  # fixed | free | cheby | line
    n_u: int
    n_risk: int
    n_extra: int
    delta_lb: float
    delta_cap: float

    @property
    def n_vars(self) -> int:
        return self.n_u + self.n_risk + self.n_extra

    def split(self, z: np.ndarray):
        """(U, deltas, extra) from an LP solution vector."""
        u = z[:self.n_u]
        deltas = z[self.n_u:self.n_u + self.n_risk]
        extra = z[self.n_u + self.n_risk:]
        return u, deltas, extra


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
class LineSearchResult:
    theta_star: float
    U_star: Optional[np.ndarray]
    lower_bound: float
    status: str = "optimal"
    diagnostic: str = ""


def _tube_rows(cd: ConcatenatedDynamics, tube: TargetTube):
    cov_x = cd.G @ cd.CW @ cd.G.T
    gmu = cd.G @ cd.muW
    n = cd.state_dim
    stochastic, deterministic = [], []
    for k in range(1, tube.horizon + 1):
        cov_k = cov_x[(k - 1) * n:k * n, (k - 1) * n:k * n]
        gmu_k = gmu[(k - 1) * n:k * n]
        for p, q in zip(tube[k].normals, tube[k].offsets):
            sigma = float(np.sqrt(max(p @ cov_k @ p, 0.0)))
            row = TubeRow(step=k, normal=p, offset=float(q), sigma=sigma,
                          mean_const=float(p @ gmu_k))
            (stochastic if sigma >= SIGMA_DETERMINISTIC else deterministic).append(row)
    return stochastic, deterministic


def build_risk_lp(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                  pwa: PwaQuantile, x0_mode: str = "free",
                  anchor: Optional[np.ndarray] = None,
                  direction: Optional[np.ndarray] = None,
                  x0_fixed: Optional[np.ndarray] = None,
                  ) -> Tuple[RiskAllocatedProblem, LinearProgram]:
    """Assemble the risk-allocated LP for the requested initial-state mode.

    Variable layout: [U (m*N) | risk deltas | extra], where extra is x0
    (free mode), x0 plus the centering radius (cheby mode), the line
    parameter theta (line mode), or empty (fixed mode).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if tube.horizon != sys.horizon:
        raise ValueError("tube horizon must match the system horizon")
    if tube.dim != sys.state_dim:
        raise ValueError("tube dimension must match the state dimension")

    cd = concat_matrices(sys)
    stochastic, deterministic = _tube_rows(cd, tube)
    n, m, nsteps = sys.state_dim, sys.input_dim, sys.horizon
    n_u = m * nsteps
    n_risk = len(stochastic)
    budget = 1.0 - alpha
    delta_lb, pwa_max = pwa.domain
    delta_cap = min(pwa_max, budget) if n_risk else pwa_max

    if x0_mode == "free":
        n_extra = n
    elif x0_mode == "cheby":
        n_extra = n + 1
    elif x0_mode == "line":
        if anchor is None or direction is None:
            raise ValueError("line mode requires anchor and direction")
        anchor = np.asarray(anchor, dtype=float).ravel()
        direction = np.asarray(direction, dtype=float).ravel()
        n_extra = 1
    elif x0_mode == "fixed":
        if x0_fixed is None:
            raise ValueError("fixed mode requires x0_fixed")
        x0_fixed = np.asarray(x0_fixed, dtype=float).ravel()
        n_extra = 0
    else:
        raise ValueError(f"unknown x0_mode {x0_mode!r}")

    n_vars = n_u + n_risk + n_extra
    prob = RiskAllocatedProblem(
        cd=cd, stochastic_rows=stochastic, deterministic_rows=deterministic,
        pwa=pwa, alpha=alpha, mode=x0_mode, n_u=n_u, n_risk=n_risk,
        n_extra=n_extra, delta_lb=delta_lb, delta_cap=delta_cap)

    def x0_columns(coef_x0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(columns over extra vars, constant term) for coef_x0 @ x0 rows."""
        rows = coef_x0.shape[0]
        cols = np.zeros((rows, n_extra))
        const = np.zeros(rows)
        if x0_mode in ("free", "cheby"):
            cols[:, :n] = coef_x0
        elif x0_mode == "line":
            cols[:, 0] = coef_x0 @ direction
            const = coef_x0 @ anchor
        else:
            const = coef_x0 @ x0_fixed
        return cols, const

    a_rows: List[np.ndarray] = []
    b_rows: List[np.ndarray] = []

    def add_block(coef_u, coef_delta, coef_extra, rhs):
        block = np.zeros((rhs.size, n_vars))
        if n_u:
            block[:, :n_u] = coef_u
        if coef_delta is not None:
            block[:, n_u:n_u + n_risk] = coef_delta
        if n_extra:
            block[:, n_u + n_risk:] = coef_extra
        a_rows.append(block)
        b_rows.append(rhs)

    # chance-constraint rows, one per (stochastic row, PWA piece)
    if n_risk:
        coef_u = np.stack([r.normal @ cd.block(cd.H, r.step) for r in stochastic]) \
            if n_u else np.zeros((n_risk, 0))
        coef_x0 = np.stack([r.normal @ cd.block(cd.Acal, r.step) for r in stochastic])
        sig = np.array([r.sigma for r in stochastic])
        rhs0 = np.array([r.offset - r.mean_const for r in stochastic])
        x0_cols, x0_const = x0_columns(coef_x0)
        n_pieces = len(pwa.pieces)
        for ell, (slope, intercept) in enumerate(pwa.pieces):
            delta_coef = np.zeros((n_risk, n_risk))
            np.fill_diagonal(delta_coef, sig * slope)
            add_block(coef_u, delta_coef, x0_cols,
                      rhs0 - sig * intercept - x0_const)

    # deterministic tube rows (negligible variance)
    if deterministic:
        coef_u = np.stack([r.normal @ cd.block(cd.H, r.step) for r in deterministic]) \
            if n_u else np.zeros((len(deterministic), 0))
        coef_x0 = np.stack([r.normal @ cd.block(cd.Acal, r.step)
                            for r in deterministic])
        rhs0 = np.array([r.offset - r.mean_const for r in deterministic])
        x0_cols, x0_const = x0_columns(coef_x0)
        add_block(coef_u, None, x0_cols, rhs0 - x0_const)

    # shared risk budget
    if n_risk:
        row = np.zeros((1, n_vars))
        row[0, n_u:n_u + n_risk] = 1.0
        a_rows.append(row)
        b_rows.append(np.array([budget]))

    # input set rows per step (box input sets are handled via bounds below)
    box = sys.input_set.as_box_bounds() if m else None
    if m and box is None:
        for j in range(nsteps):
            block = np.zeros((sys.input_set.n_rows, n_vars))
            block[:, j * m:(j + 1) * m] = sys.input_set.normals
            a_rows.append(block)
            b_rows.append(sys.input_set.offsets.copy())

    # x0 membership in T_0 (always deterministic, never risk-allocated)
    t0 = tube[0]
    if x0_mode in ("free", "cheby"):
        block = np.zeros((t0.n_rows, n_vars))
        block[:, n_u + n_risk:n_u + n_risk + n] = t0.normals
        rhs = t0.offsets.copy()
        if x0_mode == "cheby":
            block[:, -1] = np.linalg.norm(t0.normals, axis=1)
        a_rows.append(block)
        b_rows.append(rhs)
    elif x0_mode == "line":
        block = np.zeros((t0.n_rows, n_vars))
        block[:, -1] = t0.normals @ direction
        a_rows.append(block)
        b_rows.append(t0.offsets - t0.normals @ anchor)

    bounds: List[Tuple[float, float]] = []
    if m:
        if box is not None:
            bounds.extend([(box[0][i], box[1][i]) for i in range(m)] * nsteps)
        else:
            bounds.extend([(-np.inf, np.inf)] * n_u)
    bounds.extend([(delta_lb, delta_cap)] * n_risk)
    if x0_mode in ("free", "cheby"):
        bounds.extend([(-np.inf, np.inf)] * n)
    if x0_mode == "cheby":
        bounds.append((0.0, np.inf))
    if x0_mode == "line":
        bounds.append((0.0, np.inf))

    objective = np.zeros(n_vars)
    if x0_mode in ("free", "fixed"):
        objective[n_u:n_u + n_risk] = 1.0  # minimize total risk
    elif x0_mode == "cheby":
        objective[-1] = -1.0  # maximize radius
    else:
        objective[-1] = -1.0  # maximize theta

    lp = LinearProgram(objective=objective,
                       ineq=(np.vstack(a_rows), np.concatenate(b_rows)),
                       bounds=bounds)
    return prob, lp


def _budget_infeasible(prob: RiskAllocatedProblem) -> Optional[str]:
    floor = prob.n_risk * prob.delta_lb
    if floor > 1.0 - prob.alpha:
        return (f"risk budget {1.0 - prob.alpha:.3g} below the floor "
                f"{floor:.3g} ({prob.n_risk} rows at delta_lb "
                f"{prob.delta_lb:.1g}): infeasible by construction")
    return None


def _lower_bound(prob: RiskAllocatedProblem, deltas: np.ndarray) -> float:
    return float(1.0 - deltas.sum())


def solve_anchor_xmax(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                      pwa: PwaQuantile) -> AnchorResult:
    """Anchor maximizing the risk-allocation lower bound on the reach
    probability; reports an empty underapproximation when infeasible."""
    prob, lp = build_risk_lp(sys, tube, alpha, pwa, x0_mode="free")
    diag = _budget_infeasible(prob)
    if diag is not None:
        return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                            mode="xmax", status="empty", diagnostic=diag)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        return AnchorResult(
            x_anchor=None, U=None, lower_bound=0.0, mode="xmax", status="empty",
            diagnostic="risk-allocated LP infeasible: the chance-constrained "
                       "underapproximation is empty (the true reach set may "
                       "still be nonempty)")
    if not sol.optimal:
        return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                            mode="xmax", status="solver_failure",
                            diagnostic=f"LP solver returned {sol.status}")
    u, deltas, extra = prob.split(sol.z)
    lb = _lower_bound(prob, deltas)
    if lb < alpha - 1e-9:
        return AnchorResult(x_anchor=None, U=None, lower_bound=lb, mode="xmax",
                            status="empty",
                            diagnostic=f"best lower bound {lb:.6f} < alpha")
    return AnchorResult(x_anchor=extra[:sys.state_dim].copy(), U=u.copy(),
                        lower_bound=lb, mode="xmax")


def solve_anchor_cheby(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                       pwa: PwaQuantile) -> AnchorResult:
    """Anchor deep inside T_0: maximize the radius of a ball around x0
    contained in T_0 while keeping the risk allocation feasible."""
    prob, lp = build_risk_lp(sys, tube, alpha, pwa, x0_mode="cheby")
    diag = _budget_infeasible(prob)
    if diag is not None:
        return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                            mode="cheby", status="empty", diagnostic=diag)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        return AnchorResult(
            x_anchor=None, U=None, lower_bound=0.0, mode="cheby", status="empty",
            diagnostic="risk-allocated LP infeasible: the chance-constrained "
                       "underapproximation is empty")
    if not sol.optimal:
        return AnchorResult(x_anchor=None, U=None, lower_bound=0.0,
                            mode="cheby", status="solver_failure",
                            diagnostic=f"LP solver returned {sol.status}")
    u, deltas, extra = prob.split(sol.z)
    n = sys.state_dim
    return AnchorResult(x_anchor=extra[:n].copy(), U=u.copy(),
                        lower_bound=_lower_bound(prob, deltas), mode="cheby",
                        radius=float(extra[n]))


def solve_line_search(sys: StochasticLTVSystem, tube: TargetTube, alpha: float,
                      pwa: PwaQuantile, anchor, direction) -> LineSearchResult:
    """Maximal step along a direction from the anchor keeping the risk
    allocation feasible; the returned input sequence certifies the
    boundary point's lower bound."""
    anchor = np.asarray(anchor, dtype=float).ravel()
    direction = np.asarray(direction, dtype=float).ravel()
    if not tube[0].contains(anchor, tol=1e-7):
        return LineSearchResult(theta_star=0.0, U_star=None, lower_bound=0.0,
                                status="infeasible",
                                diagnostic="anchor lies outside T_0")
    prob, lp = build_risk_lp(sys, tube, alpha, pwa, x0_mode="line",
                             anchor=anchor, direction=direction)
    diag = _budget_infeasible(prob)
    if diag is not None:
        return LineSearchResult(theta_star=0.0, U_star=None, lower_bound=0.0,
                                status="infeasible", diagnostic=diag)
    sol = solve_lp(lp)
    if not sol.optimal:
        return LineSearchResult(
            theta_star=0.0, U_star=None, lower_bound=0.0, status="infeasible",
            diagnostic=f"line LP returned {sol.status}: infeasible at theta=0")
    u, deltas, extra = prob.split(sol.z)
    return LineSearchResult(theta_star=max(float(extra[0]), 0.0),
                            U_star=u.copy(),
                            lower_bound=_lower_bound(prob, deltas))
