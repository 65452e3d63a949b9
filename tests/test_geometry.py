import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubereach.geometry import (HPolytope, VPolytope, box_polytope,
                                convex_hull_2d, minkowski_interpolate,
                                prune_vertices, spread_directions)
from tubereach.lpsolve import LinearProgram, solve_lp
from tubereach.sysmodel import cwh_los_tube


def square():
    return box_polytope(np.zeros(2), np.ones(2))


def test_box_polytope_membership():
    b = square()
    assert b.contains([0.0, 0.0])
    assert b.contains([1.0, 1.0])  # boundary is inside
    assert not b.contains([1.0001, 0.0])


def test_box_bounds_roundtrip():
    b = box_polytope([1.0, -2.0], [0.5, 3.0])
    lo, hi = b.as_box_bounds()
    np.testing.assert_allclose(lo, [0.5, -5.0])
    np.testing.assert_allclose(hi, [1.5, 1.0])


def test_general_polytope_has_no_box_form():
    tri = HPolytope(normals=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                    offsets=np.array([1.0, 0.0, 0.0]))
    assert tri.as_box_bounds() is None
    assert tri.is_bounded()
    assert not tri.is_empty()


def test_empty_and_unbounded_detection():
    empty = HPolytope(normals=np.array([[1.0], [-1.0]]),
                      offsets=np.array([-1.0, -1.0]))
    assert empty.is_empty()
    halfspace = HPolytope(normals=np.array([[1.0, 0.0]]),
                          offsets=np.array([0.0]))
    assert not halfspace.is_bounded()


def test_interval_bounds():
    b = box_polytope([0.5, 0.0], [0.5, 2.0])
    lo, hi = b.interval_bounds()
    np.testing.assert_allclose(lo, [0.0, -2.0])
    np.testing.assert_allclose(hi, [1.0, 2.0])
    box_lo, box_hi = b.as_box_bounds()
    np.testing.assert_array_equal(lo, box_lo)
    np.testing.assert_array_equal(hi, box_hi)
    # a degenerate box (lo == hi) is a point: nonempty and bounded
    point = HPolytope(normals=np.array([[1.0], [-1.0]]),
                      offsets=np.array([0.5, -0.5]))
    assert lp_reference(point)[:2] == (False, True)
    assert not point.is_empty() and point.is_bounded()
    np.testing.assert_array_equal(point.interval_bounds(), ([0.5], [0.5]))


def test_ray_exit():
    box = box_polytope([0.0, 0.0], [1.0, 2.0])
    assert box.ray_exit([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert box.ray_exit([0.5, 0.0], [-0.6, 0.8]) == pytest.approx(2.5)
    # a half-plane has no face ahead of a ray running away from it
    half = HPolytope(normals=np.array([[1.0, 1.0]]), offsets=np.array([1.0]))
    assert half.ray_exit([0.0, 0.0], [-1.0, 0.0]) == np.inf
    assert half.ray_exit([0.0, 0.0], [1.0, -1.0]) == np.inf
    assert half.ray_exit([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    # on a face, or just beyond it, the ray leaves at once
    assert box.ray_exit([1.0, 0.3], [1.0, 0.0]) == 0.0
    assert box.ray_exit([1.0 + 1e-8, 0.3], [1.0, 0.0]) == 0.0
    # a face the ray runs away from does not stop it
    assert box.ray_exit([1.0 + 1e-8, 0.3], [-1.0, 0.0]) == pytest.approx(
        2.0 + 1e-8)


def test_zero_normal_row_rejected():
    with pytest.raises(ValueError):
        HPolytope(normals=np.array([[0.0, 0.0]]), offsets=np.array([1.0]))


def test_vpolytope_contains_and_weights():
    v = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert v.contains([0.2, 0.2])
    assert not v.contains([0.6, 0.6])
    w = v.convex_weights([0.5, 0.0])
    assert w is not None
    np.testing.assert_allclose(v.vertices.T @ w, [0.5, 0.0], atol=1e-7)
    assert w.sum() == pytest.approx(1.0)


def test_vpolytope_membership_honours_tol():
    v = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert v.contains([1.05, 0.0], tol=0.1)
    w = v.convex_weights([1.05, 0.0], tol=0.1)
    assert w is not None
    assert np.all(w >= -1e-9) and w.sum() == pytest.approx(1.0)
    assert np.max(np.abs(v.vertices.T @ w - [1.05, 0.0])) <= 0.1 + 1e-7
    assert not v.contains([1.05, 0.0], tol=0.0)
    assert v.convex_weights([1.05, 0.0], tol=0.0) is None
    with pytest.raises(ValueError, match="tol"):
        v.contains([0.2, 0.2], tol=-1.0)


def brute_hull_membership(points, x, tol=1e-9):
    """Oracle: x in conv(points) iff some convex combination reproduces it,
    checked by enumerating triangles (2D)."""
    from itertools import combinations
    points = np.asarray(points, dtype=float)
    for tri in combinations(range(points.shape[0]), 3):
        p = points[list(tri)]
        mat = np.vstack([p.T, np.ones(3)])
        try:
            lam = np.linalg.solve(mat, np.concatenate([x, [1.0]]))
        except np.linalg.LinAlgError:
            continue
        if np.all(lam >= -tol):
            return True
    return False


def test_hull_against_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(25, 2))
    hull = convex_hull_2d(pts)
    # every input point is inside the hull per the triangle oracle
    for p in pts:
        assert brute_hull_membership(hull.vertices, p, tol=1e-7)
    # hull vertices are a subset of the inputs
    for v in hull.vertices:
        assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-12


def test_hull_collinear_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    hull = convex_hull_2d(pts)
    assert hull.n_vertices == 2


def test_prune_vertices_drops_interior():
    v = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                            [0.2, 0.2], [1.0, 0.0]]))
    pruned = prune_vertices(v)
    assert pruned.n_vertices == 3


def test_prune_vertices_high_dim():
    v = VPolytope(np.vstack([np.eye(4), [[0.25, 0.25, 0.25, 0.25]]]))
    pruned = prune_vertices(v)
    assert pruned.n_vertices == 4


def test_minkowski_interpolate_endpoints():
    a = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    b = VPolytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    full = minkowski_interpolate(a, b, 1.0)
    assert sorted(map(tuple, full.vertices)) == sorted(map(tuple, a.vertices))
    none = minkowski_interpolate(a, b, 0.0)
    assert sorted(map(tuple, none.vertices)) == sorted(map(tuple, b.vertices))
    with pytest.raises(ValueError):
        minkowski_interpolate(a, b, 1.5)


def test_minkowski_interpolate_scaling():
    # interpolating a set with itself reproduces it at any weight
    a = VPolytope(np.array([[-1.0], [1.0]]))
    mid = minkowski_interpolate(a, a, 0.3)
    np.testing.assert_allclose(sorted(mid.vertices.ravel()), [-1.0, 1.0])


def test_spread_directions_1d():
    d = spread_directions(2, 1)
    np.testing.assert_allclose(sorted(d.directions.ravel()), [-1.0, 1.0])


def test_spread_directions_2d():
    d = spread_directions(8, 2)
    assert d.directions.shape == (8, 2)
    np.testing.assert_allclose(np.linalg.norm(d.directions, axis=1), 1.0)
    np.testing.assert_allclose(d.directions[0], [1.0, 0.0], atol=1e-12)


def test_spread_directions_sliced():
    d = spread_directions(8, 40, slice_dims=(0, 1))
    assert d.directions.shape == (8, 40)
    assert np.abs(d.directions[:, 2:]).max() == 0.0


def test_spread_directions_needs_slice_above_2d():
    with pytest.raises(ValueError):
        spread_directions(8, 3)


def test_contains_point_dim_mismatch():
    with pytest.raises(ValueError):
        square().contains([0.0, 0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_hull_contains_all_inputs(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 20)), 2))
    hull = convex_hull_2d(pts)
    if hull.n_vertices >= 3:
        for p in pts:
            assert brute_hull_membership(hull.vertices, p, tol=1e-6)


def lp_reference(poly):
    """(empty, bounded, lo, hi) from a feasibility LP and 2n support LPs."""
    n = poly.dim
    ineq = (poly.normals, poly.offsets)
    empty = not solve_lp(LinearProgram(objective=np.zeros(n), ineq=ineq)).optimal
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    bounded = True
    if not empty:
        for j in range(n):
            for sign, out in ((1.0, hi), (-1.0, lo)):
                c = np.zeros(n)
                c[j] = -sign
                sol = solve_lp(LinearProgram(objective=c, ineq=ineq))
                if sol.status == "unbounded":
                    bounded = False
                else:
                    assert sol.optimal
                    out[j] = -sign * sol.objective_value
    return empty, bounded, lo, hi


def random_box(rng, n):
    """Axis-aligned rows with random scales; some faces are dropped (half-
    open boxes) and some intervals are crossed (empty boxes)."""
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.uniform(-0.5, 2.0, n)
    normals, offsets = [], []
    for j in range(n):
        for sign, bound in ((1.0, hi[j]), (-1.0, lo[j])):
            if rng.random() < 0.8 or not normals:
                scale = rng.uniform(0.5, 2.0)
                normals.append(sign * scale * np.eye(n)[j])
                offsets.append(sign * scale * bound)
    return HPolytope(normals=np.array(normals), offsets=np.array(offsets))


def test_box_checks_match_lp_answers():
    rng = np.random.default_rng(5)
    seen = {"empty": 0, "open": 0, "general": 0}
    for _ in range(150):
        box = random_box(rng, int(rng.integers(1, 4)))
        empty, bounded, lo, hi = lp_reference(box)
        assert box.as_box_bounds() is not None
        assert box.is_empty() == empty
        assert box.is_bounded() == bounded
        if not empty:
            np.testing.assert_allclose(box.interval_bounds(), (lo, hi),
                                       atol=1e-7)
        seen["empty"] += empty
        seen["open"] += not bounded
        # the same set with a redundant non-axis row (the sum of all rows)
        # takes the general LP paths
        extra = box.normals.sum(axis=0)
        if np.count_nonzero(np.abs(extra) > 1e-9) < 2:
            continue
        general = HPolytope(normals=np.vstack([box.normals, extra]),
                            offsets=np.append(box.offsets,
                                              box.offsets.sum()))
        assert general.as_box_bounds() is None
        assert general.is_empty() == empty
        assert general.is_bounded() == bounded
        if not empty:
            np.testing.assert_allclose(general.interval_bounds(), (lo, hi),
                                       atol=1e-6)
        seen["general"] += 1
    assert min(seen.values()) >= 10, seen


def test_is_bounded_on_cones_and_slabs():
    cases = [
        # the cwh line-of-sight sets: a capped cone and the terminal box
        *cwh_los_tube(1).sets,
        # open cone {|x0| <= -x1}
        HPolytope(normals=np.array([[1.0, 1.0], [-1.0, 1.0]]),
                  offsets=np.zeros(2)),
        # the same cone capped by x1 >= -2
        HPolytope(normals=np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]]),
                  offsets=np.array([0.0, 0.0, 2.0])),
        # slab |x0 + x1| <= 1: rank-deficient normals
        HPolytope(normals=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                  offsets=np.ones(2)),
        HPolytope(normals=np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
                                    [0.0, 1.0, 1.0], [0.0, -1.0, -1.0]]),
                  offsets=np.ones(4)),
    ]
    expect = [True, True, False, True, False, False]
    assert len(cases) == len(expect)
    for poly, want in zip(cases, expect):
        assert lp_reference(poly)[1] == want
        assert poly.is_bounded() == want


def test_is_bounded_matches_support_lps_on_random_polytopes():
    rng = np.random.default_rng(9)
    verdicts = set()
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n + 1, 3 * n + 1))
        poly = HPolytope(normals=rng.normal(size=(k, n)),
                         offsets=rng.uniform(0.1, 2.0, k))
        empty, bounded, lo, hi = lp_reference(poly)
        assert not empty
        assert poly.is_bounded() == bounded
        if bounded:
            np.testing.assert_allclose(poly.interval_bounds(), (lo, hi),
                                       atol=1e-6)
        verdicts.add(bounded)
    assert verdicts == {True, False}
