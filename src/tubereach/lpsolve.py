"""Linear programs in a plain matrix form and their one solver, HiGHS
(through :func:`scipy.optimize.linprog`).

:func:`solve_lp` is the entry point; it reports the solver's verdict as a
status string, never as an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import issparse


class LpError(ValueError):
    """Malformed linear program."""


@dataclass
class LinearProgram:
    """min objective @ z  subject to  ineq, eq, and per-variable bounds.

    bounds is a list of (lo, hi) pairs with +/-inf allowed; variables
    default to free when bounds is None.  A constraint matrix may be a
    scipy.sparse array; it is passed to the solver as it is.
    """

    objective: np.ndarray
    ineq: Optional[Tuple[np.ndarray, np.ndarray]] = None
    eq: Optional[Tuple[np.ndarray, np.ndarray]] = None
    bounds: Optional[Sequence[Tuple[float, float]]] = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        n = self.objective.size
        for name in ("ineq", "eq"):
            pair = getattr(self, name)
            if pair is None:
                continue
            a, b = pair
            if not issparse(a):
                a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.asarray(b, dtype=float).ravel()
            if a.shape[1] != n or a.shape[0] != b.size:
                raise LpError(
                    f"{name} dimensions {a.shape} incompatible with "
                    f"{n} variables / {b.size} rhs entries"
                )
            setattr(self, name, (a, b))
        if self.bounds is not None and len(self.bounds) != n:
            raise LpError("bounds length must equal variable count")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        rows = 0
        if self.ineq is not None:
            rows += self.ineq[1].size
        if self.eq is not None:
            rows += self.eq[1].size
        return rows


@dataclass
class LpSolution:
    # optimal | infeasible | unbounded | iteration_limit | numerical_trouble
    status: str
    z: Optional[np.ndarray] = None
    objective_value: float = np.nan
    # duals for the original ineq rows (nonnegative, Ax <= b convention),
    # populated at optimality
    dual_ineq: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# scipy.optimize.linprog status codes other than 0 (optimal)
_STATUS = {1: "iteration_limit", 2: "infeasible", 3: "unbounded",
           4: "numerical_trouble"}


def highs_solve(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS.  An empty bound interval (lo > hi) makes the LP
    infeasible; a status other than optimal carries no solution."""
    a_ub = b_ub = a_eq = b_eq = None
    if lp.ineq is not None:
        a_ub, b_ub = lp.ineq
    if lp.eq is not None:
        a_eq, b_eq = lp.eq
    if lp.bounds is None:
        bounds = np.tile([-np.inf, np.inf], (lp.n_vars, 1))
    else:
        bounds = np.asarray(lp.bounds, dtype=float).reshape(lp.n_vars, 2)
    res = linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        return LpSolution(status=_STATUS.get(res.status, "numerical_trouble"))
    dual = None
    if lp.ineq is not None:
        dual = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
    return LpSolution(status="optimal", z=np.asarray(res.x),
                      objective_value=float(res.fun), dual_ineq=dual)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve lp; see :class:`LpSolution` for the statuses."""
    return highs_solve(lp)
