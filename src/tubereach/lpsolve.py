"""Linear programs in a plain matrix form and their one solver, HiGHS,
called through the bindings that scipy bundles.

:func:`solve_lp` is the entry point for one LP; it reports the solver's
verdict as a status string, never as an exception.  :class:`LpModel`
keeps one HiGHS instance, so that a sequence of LPs that differ in one
column's coefficients and bounds is re-solved from the last basis; it
hands the LP over as column-wise arrays in one call.
:func:`highs_solve` is the one function that runs the solver.

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
from typing import Optional, Sequence, Tuple, Union

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
class LinearProgram:
    """min objective @ z  subject to  ineq, eq, and per-variable bounds.

    bounds holds one (lo, hi) pair per variable, +/-inf allowed, as an
    (n, 2) array or a list of pairs; it is kept as an (n, 2) float
    array.  Variables default to free when bounds is None.  A constraint
    matrix may be a scipy.sparse array; it is passed to the solver as it
    is.
    """

    objective: np.ndarray
    ineq: Optional[Tuple[np.ndarray, np.ndarray]] = None
    eq: Optional[Tuple[np.ndarray, np.ndarray]] = None
    bounds: Optional[Union[np.ndarray, Sequence[Tuple[float, float]]]] = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        n = self.objective.size
        for name in ("ineq", "eq"):
            pair = getattr(self, name)
            if pair is None:
                continue
            a, b = pair
            if not sp.issparse(a):
                a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.asarray(b, dtype=float).ravel()
            if a.shape[1] != n or a.shape[0] != b.size:
                raise LpError(
                    f"{name} dimensions {a.shape} incompatible with "
                    f"{n} variables / {b.size} rhs entries"
                )
            setattr(self, name, (a, b))
        if self.bounds is not None:
            self.bounds = np.asarray(self.bounds, dtype=float)
            if not self.bounds.size:
                self.bounds = self.bounds.reshape(0, 2)
            if self.bounds.shape != (n, 2):
                raise LpError("bounds must hold one (lo, hi) pair per "
                              "variable")
        # HiGHS takes NaN and infinite costs without complaint and may
        # call the LP optimal; infinite bounds and rhs entries are legal
        parts = [np.zeros(0) if self.bounds is None else self.bounds]
        for pair in (self.ineq, self.eq):
            if pair is not None:
                parts += [pair[0].data if sp.issparse(pair[0]) else pair[0],
                          pair[1]]
        if any(np.isnan(part).any() for part in parts):
            raise LpError("linear program holds NaN")
        if not np.isfinite(self.objective).all():
            raise LpError("objective holds NaN or an infinite cost")

    @property
    def n_vars(self) -> int:
        return self.objective.size


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
    """One LP held by a HiGHS instance: the rows as a column-wise matrix
    (the inequalities, then the equalities) and the column bounds.  A
    lone block of rows that is a canonical csc_array (rows sorted within
    each column, no duplicates) is handed to HiGHS as it is; any other
    input is stacked and converted to one.  Each solve after the first
    starts from the last basis, so changing one column's coefficients or
    some bounds and solving again costs only the simplex iterations the
    change asks for.  Not for concurrent use."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        blocks, lower, upper = [], [np.zeros(0)], [np.zeros(0)]
        if lp.ineq is not None:
            blocks.append(lp.ineq[0])
            lower.append(np.full(lp.ineq[1].size, -np.inf))
            upper.append(lp.ineq[1])
        if lp.eq is not None:
            blocks.append(lp.eq[0])
            lower.append(lp.eq[1])
            upper.append(lp.eq[1])
        a = blocks[0] if len(blocks) == 1 else None
        if not (sp.issparse(a) and a.format == "csc"
                and a.has_canonical_format):
            a = sp.csc_array(sp.vstack([sp.csr_array(b) for b in blocks])
                             if blocks else (0, n))
        self.n_vars, self.n_rows = n, a.shape[0]
        bounds = np.tile([-np.inf, np.inf], (n, 1)) if lp.bounds is None \
            else lp.bounds
        self.highs = _core._Highs()
        for name, value in _OPTIONS.items():
            self.highs.setOptionValue(name, value)
        # the column-wise arrays in one call, with n integrality entries
        # (HiGHS reads n, whatever the length).  A model HiGHS rejects makes
        # run() fail; lo > hi passes with a warning and solves as infeasible
        self.highs.passModel(
            n, self.n_rows, a.nnz, int(_core.MatrixFormat.kColwise),
            int(_core.ObjSense.kMinimize), 0.0, lp.objective, bounds[:, 0],
            bounds[:, 1], np.concatenate(lower), np.concatenate(upper),
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve lp cold with _OPTIONS; see :class:`LpSolution` for the
    statuses."""
    return highs_solve(LpModel(lp))
