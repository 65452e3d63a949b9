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
from tubereach.lpsolve import (_OPTIONS, LinearProgram, LpError,
                               LpModel, highs_solve, solve_lp)


def brute_force_min(lp: LinearProgram, tol=1e-9):
    """Enumerate basic feasible points of an inequality-only LP with box
    bounds folded in as rows; the optimum of a bounded LP sits at one."""
    a, b = lp.ineq
    rows = [(-np.eye(lp.n_vars), -np.array([lo for lo, _ in lp.bounds])),
            (np.eye(lp.n_vars), np.array([hi for _, hi in lp.bounds]))] \
        if lp.bounds is not None else []
    big_a = np.vstack([a] + [r[0] for r in rows])
    big_b = np.concatenate([b] + [r[1] for r in rows])
    n = lp.n_vars
    best = np.inf
    arg = None
    for combo in itertools.combinations(range(big_b.size), n):
        sub = big_a[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, big_b[list(combo)])
        if np.all(big_a @ x <= big_b + 1e-8):
            val = lp.objective @ x
            if val < best:
                best, arg = val, x
    return best, arg


def random_bounded_lp(rng, n):
    k = rng.integers(n + 1, n + 5)
    a = rng.normal(size=(k, n))
    x0 = rng.normal(size=n)
    b = a @ x0 + rng.uniform(0.1, 2.0, size=k)
    c = rng.normal(size=n)
    return LinearProgram(objective=c, ineq=(a, b),
                        bounds=[(-5.0, 5.0)] * n)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        lp = random_bounded_lp(rng, n)
        expect, _ = brute_force_min(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - expect) <= 1e-7
        checked += 1
    assert checked == 200


def test_sparse_ineq_matches_dense_twin():
    rng = np.random.default_rng(5)
    infeasible = LinearProgram(objective=np.array([1.0, 0.0]),
                               ineq=(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                     np.array([-1.0, -1.0])))
    unbounded = LinearProgram(objective=np.array([-1.0, 0.0]),
                              ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
    lps = [random_bounded_lp(rng, 4) for _ in range(5)] + [infeasible,
                                                          unbounded]
    sorted_rows = []
    for dense in lps:
        a, b = dense.ineq
        columns = sparse.csc_array(a)
        # the same columns with each one's rows in reverse: not the order
        # HiGHS reads, so LpModel sorts them
        unsorted = sparse.csc_array(
            (np.concatenate([columns.data[i:j][::-1] for i, j in
                             zip(columns.indptr[:-1], columns.indptr[1:])]),
             np.concatenate([columns.indices[i:j][::-1] for i, j in
                             zip(columns.indptr[:-1], columns.indptr[1:])]),
             columns.indptr), shape=a.shape)
        sorted_rows.append(unsorted.has_canonical_format)
        want = solve_lp(dense)
        # a CSC block goes to HiGHS as it is, any other is converted to it
        for rows in (sparse.csr_array(a), columns, unsorted):
            twin = LinearProgram(objective=dense.objective, ineq=(rows, b),
                                 bounds=dense.bounds)
            assert sparse.issparse(twin.ineq[0])
            got = solve_lp(twin)
            assert got.status == want.status
            assert got.iterations == want.iterations
            if want.optimal:
                np.testing.assert_array_equal(got.z, want.z)
                assert got.objective_value == want.objective_value
    assert not any(sorted_rows[:5])


def test_simple_max():
    lp = LinearProgram(objective=np.array([-1.0, -1.0]),
                       ineq=(np.array([[1.0, 1.0]]), np.array([1.0])),
                       bounds=[(0.0, np.inf)] * 2)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.0)


def test_infeasible():
    lp = LinearProgram(objective=np.array([1.0]),
                       ineq=(np.array([[1.0], [-1.0]]),
                             np.array([-1.0, -1.0])))
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=np.array([-1.0]),
                       ineq=(np.array([[-1.0]]), np.array([0.0])))
    assert solve_lp(lp).status == "unbounded"


def test_equality_constraints():
    # min x + y with x + y = 2, x,y >= 0
    lp = LinearProgram(objective=np.array([1.0, 1.0]),
                       eq=(np.array([[1.0, 1.0]]), np.array([2.0])),
                       bounds=[(0.0, np.inf)] * 2)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(2.0)


def test_free_variables():
    # min x with x >= -3 expressed via inequality only (bounds None: x free)
    lp = LinearProgram(objective=np.array([1.0]),
                       ineq=(np.array([[-1.0]]), np.array([3.0])))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(-3.0)
    lp.objective = -lp.objective
    assert solve_lp(lp).status == "unbounded"
    assert solve_lp(LinearProgram(objective=np.array([1.0]))).status \
        == "unbounded"


def test_finite_range_bounds():
    lp = LinearProgram(objective=np.array([1.0, -1.0]),
                       bounds=[(-2.0, 3.0), (-2.0, 3.0)])
    sol = solve_lp(lp)
    assert sol.z[0] == pytest.approx(-2.0)
    assert sol.z[1] == pytest.approx(3.0)


@pytest.mark.parametrize("cost", [np.inf, -np.inf])
def test_infinite_cost_rejected(cost):
    # min -inf z0 + z1 over [0, 1]^2 has no optimal value; infinite
    # bounds and rhs entries stay legal
    with pytest.raises(LpError, match="infinite"):
        LinearProgram(objective=np.array([cost, 1.0]),
                      bounds=[(0.0, 1.0)] * 2)
    lp = LinearProgram(objective=np.array([1.0, 1.0]),
                       ineq=(np.array([[1.0, 1.0]]), np.array([np.inf])),
                       bounds=[(0.0, np.inf), (-1.0, np.inf)])
    assert solve_lp(lp).objective_value == pytest.approx(-1.0)


@pytest.mark.parametrize("part", ["objective", "matrix", "rhs", "bounds"])
def test_nan_rejected(part):
    parts = {"objective": np.ones(2), "matrix": np.ones((1, 2)),
             "rhs": np.ones(1), "bounds": np.array([[0.0, 1.0]] * 2)}
    parts[part].flat[0] = np.nan
    for rows in (parts["matrix"], sparse.csr_array(parts["matrix"])):
        with pytest.raises(LpError, match="NaN"):
            LinearProgram(objective=parts["objective"],
                          ineq=(rows, parts["rhs"]), bounds=parts["bounds"])


def test_empty_bound_interval_rejected():
    lp = LinearProgram(objective=np.array([1.0]), bounds=[(1.0, 0.0)])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.z is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lp_solution_is_feasible(seed):
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng, int(rng.integers(2, 5)))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    a, b = lp.ineq
    assert np.all(a @ sol.z <= b + 1e-6)
    assert np.all(sol.z >= -5.0 - 1e-9) and np.all(sol.z <= 5.0 + 1e-9)


@pytest.mark.parametrize("model_status, status", [
    ("kIterationLimit", "iteration_limit"), ("kTimeLimit", "iteration_limit"),
    ("kSolveError", "numerical_trouble"),
    ("kUnboundedOrInfeasible", "numerical_trouble")])
def test_solver_trouble_is_never_optimal(model_status, status):
    model = LpModel(LinearProgram(objective=np.array([1.0]),
                                  bounds=[(0.0, 1.0)]))
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
    lp = LinearProgram(objective=rng.standard_normal(6),
                       ineq=(rows(ineq), b_ineq), eq=(rows(eq), b_eq),
                       bounds=bounds)
    held = LpModel(lp).highs.getLp()
    assert held.num_col_ == 6 and held.num_row_ == 6
    np.testing.assert_array_equal(held.col_cost_, lp.objective)
    np.testing.assert_array_equal(held.col_lower_, bounds[:, 0])
    np.testing.assert_array_equal(held.col_upper_, bounds[:, 1])
    # inequalities are rows bounded above; equalities have equal bounds
    np.testing.assert_array_equal(
        held.row_lower_, np.concatenate([np.full(4, -np.inf), b_eq]))
    np.testing.assert_array_equal(held.row_upper_,
                                  np.concatenate([b_ineq, b_eq]))
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
    rows = np.array([[1.0, 1.0], [1.0, 3.0]])
    lp = LinearProgram(objective=np.array([-1.0, -2.0]),
                       ineq=(rows, np.array([4.0, 6.0])),
                       bounds=[(0.0, 3.0)] * 2)
    model = LpModel(lp)
    first = highs_solve(model)
    np.testing.assert_allclose(first.z, [3.0, 1.0], atol=1e-9)
    # y's column becomes (1, 0.5) and x is capped at 2: one change of
    # each kind, then a solve from the last basis
    model.change_column(1, [0, 1], [1.0, 0.5])
    model.change_bounds([0], [0.0], [2.0])
    warm = highs_solve(model)
    rows[:, 1] = [1.0, 0.5]
    cold = solve_lp(LinearProgram(objective=lp.objective,
                                  ineq=(rows, np.array([4.0, 6.0])),
                                  bounds=[(0.0, 2.0), (0.0, 3.0)]))
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.z, cold.z, atol=1e-9)
    assert warm.objective_value == pytest.approx(cold.objective_value)
    # a zero removes the entry: y leaves the first row
    model.change_column(1, [0], [0.0])
    assert highs_solve(model).z[1] == pytest.approx(3.0)


def test_bounds_kept_as_one_array():
    pairs = [(-2.0, 3.0), (0.0, np.inf)]
    for given in (pairs, np.array(pairs)):
        lp = LinearProgram(objective=np.ones(2), bounds=given)
        assert isinstance(lp.bounds, np.ndarray)
        np.testing.assert_array_equal(lp.bounds, pairs)
    assert LinearProgram(objective=np.zeros(0), bounds=[]).bounds.shape \
        == (0, 2)
    for wrong in ([(0.0, 1.0)], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(LpError, match="pair per variable"):
            LinearProgram(objective=np.ones(2), bounds=wrong)


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
    lp = LinearProgram(objective=np.array([1.0, 1.0]),
                       ineq=(np.array([[-1.0, -2.0]]), np.array([-2.0])),
                       bounds=[(0.0, np.inf)] * 2)
    assert solve_lp(lp).objective_value == pytest.approx(1.0)
    # the risk LPs: a cold anchor model, then a chain's model, solved
    # once per direction
    risk = RiskLP(sys1d, tube1d, 0.6, pwa)
    anchor = risk.anchor("xmax")
    assert anchor.feasible
    assert all(bp.status == "ok" for bp in risk.lines(
        anchor.x_anchor, [np.array([1.0]), np.array([-1.0])]))
    assert len(seen) == 4 and seen == [expected] * 4
