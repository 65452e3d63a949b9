"""Linear programs in the form HiGHS itself takes, and HiGHS, their one
solver, called through the bindings that scipy bundles.

:class:`LpModel` is the one LP type: a cost vector, rows bounded below
and above, and a bound pair per variable, held by one HiGHS instance so
that an LP changed in one column is re-solved from the last basis.
:func:`solve_lp` solves one LP cold; :func:`highs_solve`, the one
function that runs the solver, reports its verdict as a status string,
never as an exception.

Every LP, risk LP or geometry LP, runs with the one option set
``_OPTIONS``.  A risk LP of :mod:`tubereach.chance` is solved once, or
re-solved from its basis, and a cold solve of one with presolve is
mostly presolve; so no LP is presolved.  An LP with many optima, such as
the weight LP of ``VPolytope.convex_weights``, returns whichever one the
solver reaches, and callers do not depend on which.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core

# the one HiGHS configuration: quiet, no presolve, the dual simplex;
# everything else (pricing included) is HiGHS's default
_OPTIONS = {"output_flag": False, "log_to_console": False, "presolve": "off",
            "simplex_strategy": 1}


class LpError(ValueError):
    """Malformed linear program."""


@dataclass
class LpSolution:
    # optimal | infeasible | unbounded | iteration_limit | numerical_trouble
    status: str
    z: Optional[np.ndarray] = None
    objective_value: float = np.nan
    iterations: int = 0  # simplex iterations of this solve
    seconds: float = 0.0  # wall time of the HiGHS run, whatever its status

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LpModel:
    """min objective @ z  subject to  row_lower <= rows @ z <= row_upper
    and bounds[:, 0] <= z <= bounds[:, 1], held by one HiGHS instance.

    rows, dense or any scipy.sparse array, reaches HiGHS as a canonical
    csc_array (rows sorted within each column, no duplicates), passed
    through when it already is one and made one on a copy otherwise.
    row_lower defaults to -inf, so a row is an inequality; an equality
    has equal bounds.  bounds holds one (lo, hi) pair per variable,
    +/-inf allowed; None leaves every variable free.  Each solve after
    the first starts from the last basis, so changing one column's
    coefficients or some bounds and solving again costs only the simplex
    iterations the change asks for.  Not for concurrent use."""

    def __init__(self, objective, rows, row_upper, row_lower=None,
                 bounds=None):
        objective = np.asarray(objective, dtype=float).ravel()
        n = objective.size
        a = sp.csc_array(rows, dtype=float)
        if not a.has_canonical_format:
            # sorted and summed on new arrays: a may share the caller's
            a = a.tocoo().tocsc()
        row_upper = np.asarray(row_upper, dtype=float).ravel()
        row_lower = np.full(row_upper.size, -np.inf) if row_lower is None \
            else np.asarray(row_lower, dtype=float).ravel()
        if a.shape[1] != n or a.shape[0] != row_upper.size \
                or row_lower.size != row_upper.size:
            raise LpError(f"rows {a.shape} incompatible with {n} variables "
                          f"/ {row_lower.size}, {row_upper.size} row bounds")
        bounds = np.tile([-np.inf, np.inf], (n, 1)) if bounds is None \
            else np.asarray(bounds, dtype=float)
        if not bounds.size:
            bounds = bounds.reshape(0, 2)
        if bounds.shape != (n, 2):
            raise LpError("bounds must hold one (lo, hi) pair per variable")
        # HiGHS takes NaN and infinite costs without complaint and may
        # call the LP optimal; infinite bounds are legal
        if any(np.isnan(part).any()
               for part in (a.data, row_lower, row_upper, bounds)):
            raise LpError("linear program holds NaN")
        if not np.isfinite(objective).all():
            raise LpError("objective holds NaN or an infinite cost")
        self.n_vars, self.n_rows = n, a.shape[0]
        self.highs = _core._Highs()
        for name, value in _OPTIONS.items():
            self.highs.setOptionValue(name, value)
        # the column-wise arrays in one call, with n integrality entries
        # (HiGHS reads n, whatever the length).  A model HiGHS rejects makes
        # run() fail; lo > hi passes with a warning and solves as infeasible
        self.highs.passModel(
            n, self.n_rows, a.nnz, int(_core.MatrixFormat.kColwise),
            int(_core.ObjSense.kMinimize), 0.0, objective, bounds[:, 0],
            bounds[:, 1], row_lower, row_upper,
            a.indptr[:-1].astype(np.int32, copy=False),
            a.indices.astype(np.int32, copy=False), a.data,
            np.zeros(n, dtype=np.int32))

    def change_column(self, col: int, rows, values) -> None:
        """Set column col's coefficients in the given rows; a zero
        removes the entry."""
        for row, value in zip(rows, values):
            self.highs.changeCoeff(int(row), col, float(value))

    def change_bounds(self, cols, lower, upper) -> None:
        """Set the bounds of the given columns."""
        cols = np.asarray(cols, dtype=np.int32)
        self.highs.changeColsBounds(cols.size, cols,
                                    np.asarray(lower, dtype=float),
                                    np.asarray(upper, dtype=float))


# HiGHS model statuses other than optimal, mapped as scipy maps them
_STATUS = {_core.HighsModelStatus.kInfeasible: "infeasible",
           _core.HighsModelStatus.kUnbounded: "unbounded",
           _core.HighsModelStatus.kIterationLimit: "iteration_limit",
           _core.HighsModelStatus.kTimeLimit: "iteration_limit"}


def highs_solve(model: LpModel) -> LpSolution:
    """Solve the model as it stands, from its last basis if it has one.
    An empty bound interval (lo > hi) makes the LP infeasible; a status
    other than optimal carries no solution.  A failed run reports its
    seconds but no iterations: HiGHS invalidates its count."""
    highs = model.highs
    start = time.perf_counter()
    failed = highs.run() == _core.HighsStatus.kError
    seconds = time.perf_counter() - start
    if failed:
        return LpSolution(status="numerical_trouble", seconds=seconds)
    status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    if status != _core.HighsModelStatus.kOptimal:
        return LpSolution(status=_STATUS.get(status, "numerical_trouble"),
                          iterations=iterations, seconds=seconds)
    return LpSolution(status="optimal",
                      z=np.array(highs.getSolution().col_value),
                      objective_value=float(info.objective_function_value),
                      iterations=iterations, seconds=seconds)


def solve_lp(objective, rows, row_upper, row_lower=None,
             bounds=None) -> LpSolution:
    """The LP of LpModel(objective, rows, row_upper, row_lower, bounds),
    solved cold; see :class:`LpSolution` for the statuses."""
    return highs_solve(LpModel(objective, rows, row_upper, row_lower, bounds))
