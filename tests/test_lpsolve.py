import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from tubereach import lpsolve
from tubereach.lpsolve import LinearProgram, solve_lp


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
    for dense in lps:
        a, b = dense.ineq
        twin = LinearProgram(objective=dense.objective,
                             ineq=(sparse.csr_array(a), b),
                             bounds=dense.bounds)
        assert sparse.issparse(twin.ineq[0])
        want, got = solve_lp(dense), solve_lp(twin)
        assert got.status == want.status
        if want.optimal:
            assert got.objective_value == pytest.approx(want.objective_value,
                                                        abs=1e-9)
            np.testing.assert_allclose(got.dual_ineq, want.dual_ineq,
                                       atol=1e-9)


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


def test_empty_bound_interval_rejected():
    lp = LinearProgram(objective=np.array([1.0]), bounds=[(1.0, 0.0)])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.z is None


def test_duals_certify_optimum():
    # strong duality from the HiGHS marginals: with lam the row duals and
    # mu = c + A^T lam the bound multipliers (mu > 0 at lower bounds,
    # mu < 0 at upper), -b^T lam + sum(mu * active bound) = c^T z*
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        lp = random_bounded_lp(rng, n)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        lam = sol.dual_ineq
        assert lam is not None and np.all(lam >= -1e-9)
        a, b = lp.ineq
        mu = lp.objective + a.T @ lam
        lo = np.array([bd[0] for bd in lp.bounds])
        hi = np.array([bd[1] for bd in lp.bounds])
        dual_value = -b @ lam + np.where(mu > 0, mu * lo, mu * hi).sum()
        assert dual_value == pytest.approx(sol.objective_value, abs=1e-7)


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


@pytest.mark.parametrize("code, status", [(1, "iteration_limit"),
                                          (4, "numerical_trouble")])
def test_solver_trouble_is_never_optimal(monkeypatch, code, status):
    def stalled(*args, **kwargs):
        return SimpleNamespace(status=code, x=np.zeros(1), fun=0.0,
                               ineqlin=None)
    monkeypatch.setattr(lpsolve, "linprog", stalled)
    sol = solve_lp(LinearProgram(objective=np.array([1.0]),
                                 bounds=[(0.0, 1.0)]))
    assert sol.status == status
    assert not sol.optimal and sol.z is None
