import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import scipy
from scipy.optimize._highspy import _core
from tubereach import chance, lpsolve
from tubereach.chance import RiskLP
from tubereach.lpsolve import (_OPTIONS, LpError, LpModel, highs_solve,
                               solve_lp)


def brute_force_min(objective, rows, row_upper, bounds, tol=1e-9):
    """Enumerate basic feasible points of an inequality-only LP with box
    bounds folded in as rows; the optimum of a bounded LP sits at one."""
    n = objective.size
    bounds = np.asarray(bounds)
    big_a = np.vstack([rows, -np.eye(n), np.eye(n)])
    big_b = np.concatenate([row_upper, -bounds[:, 0], bounds[:, 1]])
    best = np.inf
    arg = None
    for combo in itertools.combinations(range(big_b.size), n):
        sub = big_a[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, big_b[list(combo)])
        if np.all(big_a @ x <= big_b + 1e-8):
            val = objective @ x
            if val < best:
                best, arg = val, x
    return best, arg


def random_bounded_lp(rng, n):
    """A feasible LP in [-5, 5]^n, as LpModel's keyword arguments."""
    k = rng.integers(n + 1, n + 5)
    a = rng.normal(size=(k, n))
    x0 = rng.normal(size=n)
    b = a @ x0 + rng.uniform(0.1, 2.0, size=k)
    c = rng.normal(size=n)
    return {"objective": c, "rows": a, "row_upper": b,
            "bounds": [(-5.0, 5.0)] * n}


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        lp = random_bounded_lp(rng, n)
        expect, _ = brute_force_min(**lp)
        sol = solve_lp(**lp)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - expect) <= 1e-7
        checked += 1
    assert checked == 200


def test_sparse_ineq_matches_dense_twin():
    rng = np.random.default_rng(5)
    infeasible = {"objective": np.array([1.0, 0.0]),
                  "rows": np.array([[1.0, 0.0], [-1.0, 0.0]]),
                  "row_upper": np.array([-1.0, -1.0])}
    unbounded = {"objective": np.array([-1.0, 0.0]),
                 "rows": np.array([[-1.0, 0.0]]), "row_upper": np.array([0.0])}
    lps = [random_bounded_lp(rng, 4) for _ in range(5)] + [infeasible,
                                                          unbounded]
    canonical = []
    for dense in lps:
        a = dense["rows"]
        columns = sparse.csc_array(a)
        spans = list(zip(columns.indptr[:-1], columns.indptr[1:]))
        # the same columns with each one's rows in reverse, and with each
        # entry split into two equal halves: not the form HiGHS reads, so
        # LpModel makes it so on a copy
        unsorted = sparse.csc_array(
            (np.concatenate([columns.data[i:j][::-1] for i, j in spans]),
             np.concatenate([columns.indices[i:j][::-1] for i, j in spans]),
             columns.indptr), shape=a.shape)
        split = sparse.csc_array(
            (np.repeat(columns.data / 2.0, 2),
             np.repeat(columns.indices, 2), 2 * columns.indptr),
            shape=a.shape)
        canonical += [unsorted.has_canonical_format, split.has_canonical_format]
        given = [(m.data.copy(), m.indices.copy()) for m in (unsorted, split)]
        want = solve_lp(**dense)
        # a canonical CSC block goes to HiGHS as it is, any other is
        # converted to one
        for rows in (sparse.csr_array(a), columns, unsorted, split):
            got = solve_lp(**{**dense, "rows": rows})
            assert got.status == want.status
            assert got.iterations == want.iterations
            if want.optimal:
                np.testing.assert_array_equal(got.z, want.z)
                assert got.objective_value == want.objective_value
        # and the caller's blocks are as they were
        for m, (data, indices) in zip((unsorted, split), given):
            np.testing.assert_array_equal(m.data, data)
            np.testing.assert_array_equal(m.indices, indices)
    assert not any(canonical[:10])


def test_simple_max():
    sol = solve_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
                   np.array([1.0]), bounds=[(0.0, np.inf)] * 2)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.0)


def test_infeasible():
    assert solve_lp(np.array([1.0]), np.array([[1.0], [-1.0]]),
                    np.array([-1.0, -1.0])).status == "infeasible"


def test_unbounded():
    assert solve_lp(np.array([-1.0]), np.array([[-1.0]]),
                    np.array([0.0])).status == "unbounded"


def test_equality_constraints():
    # min x + y with x + y = 2, x,y >= 0: a row with equal bounds
    sol = solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                   np.array([2.0]), np.array([2.0]),
                   bounds=[(0.0, np.inf)] * 2)
    assert sol.objective_value == pytest.approx(2.0)
    # min -x with x + y = 2, 0 <= x <= 1, y >= 0, and 1 <= x - y <= 3
    sol = solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                   np.array([2.0, 3.0]), np.array([2.0, 1.0]),
                   bounds=[(0.0, 1.0), (0.0, np.inf)])
    assert sol.status == "infeasible"


def test_free_variables():
    # min x with x >= -3 expressed via inequality only (bounds None: x free)
    rows, upper = np.array([[-1.0]]), np.array([3.0])
    sol = solve_lp(np.array([1.0]), rows, upper)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(-3.0)
    assert solve_lp(np.array([-1.0]), rows, upper).status == "unbounded"
    assert solve_lp(np.array([1.0]), np.zeros((0, 1)), []).status \
        == "unbounded"


def test_finite_range_bounds():
    sol = solve_lp(np.array([1.0, -1.0]), np.zeros((0, 2)), [],
                   bounds=[(-2.0, 3.0), (-2.0, 3.0)])
    assert sol.z[0] == pytest.approx(-2.0)
    assert sol.z[1] == pytest.approx(3.0)


@pytest.mark.parametrize("cost", [np.inf, -np.inf])
def test_infinite_cost_rejected(cost):
    # min -inf z0 + z1 over [0, 1]^2 has no optimal value; infinite
    # bounds and row bounds stay legal
    with pytest.raises(LpError, match="infinite"):
        LpModel(np.array([cost, 1.0]), np.zeros((0, 2)), [],
                bounds=[(0.0, 1.0)] * 2)
    sol = solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                   np.array([np.inf]), np.array([-np.inf]),
                   bounds=[(0.0, np.inf), (-1.0, np.inf)])
    assert sol.objective_value == pytest.approx(-1.0)


@pytest.mark.parametrize("part", ["objective", "matrix", "rhs", "row_lower",
                                  "bounds"])
def test_nan_rejected(part):
    parts = {"objective": np.ones(2), "matrix": np.ones((1, 2)),
             "rhs": np.ones(1), "row_lower": np.zeros(1),
             "bounds": np.array([[0.0, 1.0]] * 2)}
    parts[part].flat[0] = np.nan
    for rows in (parts["matrix"], sparse.csr_array(parts["matrix"])):
        with pytest.raises(LpError, match="NaN"):
            LpModel(parts["objective"], rows, parts["rhs"],
                    parts["row_lower"], parts["bounds"])


@pytest.mark.parametrize("rows, upper, lower", [
    (np.ones((1, 3)), np.ones(1), None), (np.ones((2, 2)), np.ones(1), None),
    (np.ones((1, 2)), np.ones(1), np.zeros(2))],
    ids=["columns", "row_upper", "row_lower"])
def test_shape_mismatch_rejected(rows, upper, lower):
    with pytest.raises(LpError, match="incompatible"):
        LpModel(np.ones(2), rows, upper, lower)


def test_empty_bound_interval_rejected():
    sol = solve_lp(np.array([1.0]), np.zeros((0, 1)), [],
                   bounds=[(1.0, 0.0)])
    assert sol.status == "infeasible"
    assert sol.z is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lp_solution_is_feasible(seed):
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng, int(rng.integers(2, 5)))
    sol = solve_lp(**lp)
    assert sol.status == "optimal"
    assert np.all(lp["rows"] @ sol.z <= lp["row_upper"] + 1e-6)
    assert np.all(sol.z >= -5.0 - 1e-9) and np.all(sol.z <= 5.0 + 1e-9)


@pytest.mark.parametrize("model_status, status", [
    ("kIterationLimit", "iteration_limit"), ("kTimeLimit", "iteration_limit"),
    ("kSolveError", "numerical_trouble"),
    ("kUnboundedOrInfeasible", "numerical_trouble")])
def test_solver_trouble_is_never_optimal(model_status, status):
    model = LpModel(np.array([1.0]), np.zeros((0, 1)), [],
                    bounds=[(0.0, 1.0)])
    model.highs = SimpleNamespace(
        run=lambda: _core.HighsStatus.kOk,
        getModelStatus=lambda: getattr(_core.HighsModelStatus, model_status),
        getInfo=lambda: SimpleNamespace(simplex_iteration_count=3))
    sol = highs_solve(model)
    assert sol.status == status and sol.iterations == 3
    assert not sol.optimal and sol.z is None


def test_bundled_highs_has_the_methods_used():
    # the bindings are private to scipy; a release without them must fail
    # here, by name, rather than deep inside a reach-set computation
    missing = [name for name in ("passModel", "changeCoeff",
                                 "changeColsBounds", "setOptionValue", "run")
               if not hasattr(_core._Highs, name)]
    assert not missing, (f"scipy {scipy.__version__} bundles a HiGHS "
                         f"without _Highs.{', _Highs.'.join(missing)}")


@pytest.mark.parametrize("sparse_rows", [False, True],
                         ids=["dense", "sparse"])
def test_model_holds_the_lp_as_highs_reads_it(sparse_rows):
    rng = np.random.default_rng(3)
    ineq = rng.standard_normal((4, 6)) * (rng.random((4, 6)) < 0.4)
    eq = rng.standard_normal((2, 6)) * (rng.random((2, 6)) < 0.5)
    b_ineq, b_eq = rng.standard_normal(4), rng.standard_normal(2)
    bounds = np.array([(0.0, 1.0), (-np.inf, 2.0), (-1.0, np.inf),
                       (-np.inf, np.inf), (3.0, 3.0), (-2.0, 5.0)])
    rows = sparse.csr_array if sparse_rows else np.asarray
    objective = rng.standard_normal(6)
    # inequalities are rows bounded above; equalities have equal bounds
    row_lower = np.concatenate([np.full(4, -np.inf), b_eq])
    row_upper = np.concatenate([b_ineq, b_eq])
    held = LpModel(objective, rows(np.vstack([ineq, eq])), row_upper,
                   row_lower, bounds).highs.getLp()
    assert held.num_col_ == 6 and held.num_row_ == 6
    np.testing.assert_array_equal(held.col_cost_, objective)
    np.testing.assert_array_equal(held.col_lower_, bounds[:, 0])
    np.testing.assert_array_equal(held.col_upper_, bounds[:, 1])
    np.testing.assert_array_equal(held.row_lower_, row_lower)
    np.testing.assert_array_equal(held.row_upper_, row_upper)
    matrix = held.a_matrix_
    assert matrix.format_ == _core.MatrixFormat.kColwise
    assert (matrix.num_col_, matrix.num_row_) == (6, 6)
    columns = sparse.csc_array(
        (matrix.value_, matrix.index_, matrix.start_), shape=(6, 6))
    np.testing.assert_array_equal(columns.toarray(), np.vstack([ineq, eq]))
    assert len(held.integrality_) in (0, 6)
    assert all(kind == _core.HighsVarType.kContinuous
               for kind in held.integrality_)


def test_model_resolve_matches_a_cold_solve():
    # min -x - 2y  s.t.  x + y <= 4, x + 3y <= 6, 0 <= x, y <= 3
    objective = np.array([-1.0, -2.0])
    rows, upper = np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([4.0, 6.0])
    model = LpModel(objective, rows, upper, bounds=[(0.0, 3.0)] * 2)
    first = highs_solve(model)
    np.testing.assert_allclose(first.z, [3.0, 1.0], atol=1e-9)
    # y's column becomes (1, 0.5) and x is capped at 2: one change of
    # each kind, then a solve from the last basis
    model.change_column(1, [0, 1], [1.0, 0.5])
    model.change_bounds([0], [0.0], [2.0])
    warm = highs_solve(model)
    rows[:, 1] = [1.0, 0.5]
    cold = solve_lp(objective, rows, upper,
                    bounds=[(0.0, 2.0), (0.0, 3.0)])
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.z, cold.z, atol=1e-9)
    assert warm.objective_value == pytest.approx(cold.objective_value)
    # a zero removes the entry: y leaves the first row
    model.change_column(1, [0], [0.0])
    assert highs_solve(model).z[1] == pytest.approx(3.0)


def test_bounds_kept_as_one_array():
    # a list of pairs or an (n, 2) array: HiGHS holds one (lo, hi) pair
    # per variable either way
    pairs = [(-2.0, 3.0), (0.0, np.inf)]
    for given in (pairs, np.array(pairs)):
        held = LpModel(np.ones(2), np.zeros((0, 2)), [],
                       bounds=given).highs.getLp()
        np.testing.assert_array_equal(
            np.column_stack([held.col_lower_, held.col_upper_]), pairs)
    assert LpModel(np.zeros(0), np.zeros((0, 0)), [], bounds=[]).n_vars == 0
    for wrong in ([(0.0, 1.0)], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(LpError, match="pair per variable"):
            LpModel(np.ones(2), np.zeros((0, 2)), [], bounds=wrong)


def highs_options(highs):
    """Every option a HiGHS instance holds, by name."""
    options = highs.getOptions()
    return {name: getattr(options, name) for name in dir(options)
            if not name.startswith("_")}


def test_every_model_runs_with_the_one_option_set(sys1d, tube1d, pwa,
                                                  monkeypatch):
    # HiGHS's defaults with _OPTIONS on top, and nothing else
    fresh = _core._Highs()
    for name, value in _OPTIONS.items():
        fresh.setOptionValue(name, value)
    expected = highs_options(fresh)
    assert all(expected[name] == value for name, value in _OPTIONS.items())
    seen = []

    def solve(model):
        seen.append(highs_options(model.highs))
        return highs_solve(model)
    monkeypatch.setattr(lpsolve, "highs_solve", solve)
    monkeypatch.setattr(chance, "highs_solve", solve)
    # a geometry LP through solve_lp
    assert solve_lp(np.array([1.0, 1.0]), np.array([[-1.0, -2.0]]),
                    np.array([-2.0]), bounds=[(0.0, np.inf)] * 2
                    ).objective_value == pytest.approx(1.0)
    # the risk LPs: a cold anchor model, then a chain's model, solved
    # once per direction
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    assert anchor.feasible
    assert all(bp.status == "ok" for bp in risk.lines(
        anchor.x_anchor, [np.array([1.0]), np.array([-1.0])]))
    assert len(seen) == 4 and seen == [expected] * 4
