import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubereach import geometry
from tubereach.geometry import (DirectionSet, HPolytope, VPolytope,
                                box_polytope,
                                extreme_indices, minkowski_interpolate,
                                prune_vertices, spread_directions)
from tubereach.lpsolve import LpSolution, solve_lp
from tubereach.sysmodel import cwh_los_tube

from oracles import loop_box_bounds, lp_prune_vertices


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


def test_box_bounds_are_worked_out_once():
    # the tightest of repeated faces; faces along one axis only leave the
    # other unbounded
    b = HPolytope(normals=np.array([[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
                  offsets=np.array([4.0, 1.5, 0.5]))
    box = b.as_box_bounds()
    np.testing.assert_array_equal(box, ([-0.5, -np.inf], [1.5, np.inf]))
    assert b.as_box_bounds() is box
    with pytest.raises(ValueError, match="read-only"):
        box[0][0] = 0.0
    assert not b.is_bounded() and not b.is_empty()
    assert HPolytope(normals=np.zeros((0, 2)),
                     offsets=np.zeros(0)).as_box_bounds() is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_box_bounds_match_the_row_loop(dim, rows, seed):
    # axis-aligned rows with random scales and signs, several per axis or
    # none; a seed that tilts one row gives no box form
    rng = np.random.default_rng(seed)
    normals = np.zeros((rows, dim))
    normals[np.arange(rows), rng.integers(0, dim, rows)] = \
        rng.choice([-1.0, 1.0], rows) * rng.uniform(0.1, 10.0, rows)
    if rows and dim > 1 and seed % 3 == 0:
        normals[rng.integers(rows)] += 0.5
    offsets = rng.uniform(-5.0, 5.0, rows)
    box = HPolytope(normals, offsets).as_box_bounds()
    expected = loop_box_bounds(normals, offsets)
    if expected is None:
        assert box is None
    else:
        np.testing.assert_array_equal(box, expected)


def test_general_polytope_has_no_box_form():
    tri = HPolytope(normals=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                    offsets=np.array([1.0, 0.0, 0.0]))
    assert tri.as_box_bounds() is None
    assert tri.is_bounded()
    assert not tri.is_empty()


def test_support_lps_are_solved_once(monkeypatch):
    def triangle():
        return HPolytope(normals=np.array([[1.0, 1.0], [-1.0, 0.0],
                                           [0.0, -1.0]]),
                         offsets=np.array([1.0, 0.0, 0.0]))
    solve, lps = geometry.solve_lp, []
    monkeypatch.setattr(geometry, "solve_lp",
                        lambda *lp: lps.append(lp) or solve(*lp))
    tri = triangle()
    lo, hi = tri.interval_bounds()
    assert not tri.is_empty() and tri.is_bounded()
    assert tri.interval_bounds()[0] is lo and len(lps) == 4
    np.testing.assert_allclose((lo, hi), ([0.0, 0.0], [1.0, 1.0]),
                               atol=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        hi[0] = 0.0
    # a support LP without a verdict proves nothing: that side stays open
    monkeypatch.setattr(geometry, "solve_lp",
                        lambda *lp: LpSolution(status="numerical_trouble"))
    tri = triangle()
    assert not tri.is_empty() and not tri.is_bounded()


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


@pytest.mark.parametrize("normals, offsets", [
    ([[1.0], [-1.0], [1.0]], [1.0, 1.0, np.nan]),
    ([[np.inf], [-1.0]], [1.0, 1.0]), ([[np.nan], [-1.0]], [1.0, 1.0]),
    ([[1.0, -np.inf]], [1.0])], ids=["nan-offset", "inf-normal",
                                     "nan-normal", "minus-inf-normal"])
def test_non_finite_faces_rejected(normals, offsets):
    with pytest.raises(ValueError, match="finite"):
        HPolytope(normals=normals, offsets=offsets)


def test_infinite_offset_is_a_vacuous_face():
    p = HPolytope(normals=[[1.0], [-1.0], [1.0]], offsets=[1.0, 1.0, np.inf])
    np.testing.assert_array_equal(p.interval_bounds(), ([-1.0], [1.0]))
    assert p.contains([0.0]) and p.is_bounded()


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0],
                                 [1.0, -np.inf]])
def test_non_finite_directions_rejected(bad):
    with pytest.raises(ValueError, match="unit Euclidean norm"):
        DirectionSet([bad, [1.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertices_rejected(bad):
    # prune_vertices would keep a NaN vertex and return another one twice
    with pytest.raises(ValueError, match="vertices must be finite"):
        VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 0.5]])


def test_vpolytope_contains_and_weights():
    v = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert v.contains([0.2, 0.2])
    assert not v.contains([0.6, 0.6])
    w = v.convex_weights([0.5, 0.0])
    assert w is not None
    np.testing.assert_allclose(v.vertices.T @ w, [0.5, 0.0], atol=1e-7)
    assert w.sum() == pytest.approx(1.0)


def test_vpolytope_dimension_mismatch_names_both_sizes():
    v = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="point dimension 3 != polytope "
                                         "dimension 2"):
        v.convex_weights([0.2, 0.2, 0.2])


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
    hull = prune_vertices(VPolytope(pts))
    # every input point is inside the hull per the triangle oracle
    for p in pts:
        assert brute_hull_membership(hull.vertices, p, tol=1e-7)
    # hull vertices are a subset of the inputs
    for v in hull.vertices:
        assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-12


def test_hull_collinear_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    hull = prune_vertices(VPolytope(pts))
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


def test_pruning_memory_is_linear_in_the_points():
    # near-duplicates are found against the points kept so far, not from
    # an n x n x d table of differences (420 MB here)
    rng = np.random.default_rng(0)
    flat = rng.normal(size=(800, 2))
    points = flat @ rng.normal(size=(2, 40))
    tracemalloc.start()
    try:
        kept = extreme_indices(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    np.testing.assert_array_equal(kept, np.sort(extreme_indices(flat)))


def hull_lps(monkeypatch):
    """The LPs the geometry module solves from now on."""
    solved = []

    def counting_solve_lp(*args, **kwargs):
        solved.append(args)
        return solve_lp(*args, **kwargs)
    monkeypatch.setattr(geometry, "solve_lp", counting_solve_lp)
    return solved


def planar_points(rng, dim):
    """Hull points of a random convex polygon, points inside it and
    near-duplicates of both, rotated and shifted into R^dim; and the
    polygon's vertices among them."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 12))
    # keep corners at least 0.2 rad apart, so none is nearly flat
    angles = angles[np.concatenate([[True], np.diff(angles) > 0.2])]
    if 2.0 * np.pi - angles[-1] + angles[0] <= 0.2:
        angles = angles[:-1]
    corners = np.column_stack([np.cos(angles), np.sin(angles)]) \
        * rng.uniform(1.0, 3.0)
    # convex combinations pulled towards the centroid: strictly inside
    centroid = corners.mean(axis=0)
    inside = centroid + 0.9 * (rng.dirichlet(np.ones(len(corners)), size=8)
                               @ corners - centroid)
    flat = np.vstack([corners, inside])
    flat = np.vstack([flat, flat[rng.choice(len(flat), 5)]
                      + rng.normal(scale=1e-11, size=(5, 2))])
    order = rng.permutation(len(flat))
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    points = np.pad(flat[order], ((0, 0), (0, dim - 2))) @ rotation.T \
        + rng.normal(scale=5.0, size=dim)
    return points, len(corners)


@pytest.mark.parametrize("dim", [3, 40])
@pytest.mark.parametrize("seed", range(4))
def test_planar_prune_matches_the_lp_oracle(dim, seed, monkeypatch):
    points, n_corners = planar_points(np.random.default_rng(seed), dim)
    want = lp_prune_vertices(points)
    tested = hull_lps(monkeypatch)
    got = prune_vertices(VPolytope(points)).vertices
    # the same input rows, bit for bit and in input order, with no LP
    np.testing.assert_array_equal(got, want)
    assert len(got) == n_corners and not tested


def test_collinear_points_keep_their_ends(monkeypatch):
    rng = np.random.default_rng(7)
    start, step = rng.normal(size=5), rng.normal(size=5)
    points = start + np.array([0.3, -1.2, 0.0, 2.5, 1.0, 0.3])[:, None] * step
    tested = hull_lps(monkeypatch)
    got = prune_vertices(VPolytope(points)).vertices
    np.testing.assert_array_equal(got, points[[1, 3]])
    assert not tested


def test_full_rank_points_keep_the_lp_path(monkeypatch):
    rng = np.random.default_rng(3)
    points = np.vstack([rng.normal(size=(8, 3)), np.zeros((1, 3)),
                        0.1 * rng.normal(size=(4, 3))])
    want = lp_prune_vertices(points)
    tested = hull_lps(monkeypatch)
    got = prune_vertices(VPolytope(points)).vertices
    np.testing.assert_array_equal(got, want)
    assert tested and len(got) < len(points)


@pytest.mark.parametrize("seed", range(3))
def test_1d_sets_keep_their_ends_with_no_lp(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(9, 1))
    # exact and near duplicates, the ends among them
    ends = [int(np.argmin(points)), int(np.argmax(points))]
    points = np.vstack([points, points[ends + [4]],
                        points[ends] + rng.normal(scale=1e-11, size=(2, 1))])
    want = lp_prune_vertices(points)
    tested = hull_lps(monkeypatch)
    got = extreme_indices(points)
    np.testing.assert_array_equal(got, sorted(ends))
    np.testing.assert_array_equal(points[got], want)
    assert not tested


@pytest.mark.parametrize("points", [
    [[0.5, -1.0]],
    [[2.0, 1.0], [0.0, 3.0]],
    [[2.0, 1.0], [0.0, 3.0], [2.0, 1.0]],
    [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]],
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],  # clockwise
], ids=["one", "two", "two-and-a-duplicate", "collinear", "triangle"])
def test_small_planar_sets_match_the_lp_oracle(points, monkeypatch):
    points = np.array(points)
    want = lp_prune_vertices(points)
    tested = hull_lps(monkeypatch)
    got = points[extreme_indices(points)]
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))
    assert not tested
    if len(got) == 3:
        assert geometry._cross(*got) > 0.0  # counterclockwise


def test_rank_zero_set_keeps_its_first_point(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.normal(size=5) + rng.normal(scale=1e-12, size=(4, 5))
    want = lp_prune_vertices(points)
    tested = hull_lps(monkeypatch)
    got = extreme_indices(points)
    np.testing.assert_array_equal(got, [0])
    np.testing.assert_array_equal(points[got], want)
    assert not tested


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
    # a slice names two distinct integer coordinates of the state
    for bad in [(0, 45), (1, 1), (-1, 0), (0,), (0, 1.5), (0, 1, 2)]:
        with pytest.raises(ValueError, match="distinct coordinates"):
            spread_directions(8, 40, slice_dims=bad)


def test_contains_point_dim_mismatch():
    with pytest.raises(ValueError):
        square().contains([0.0, 0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_hull_contains_all_inputs(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 20)), 2))
    hull = prune_vertices(VPolytope(pts))
    if hull.n_vertices >= 3:
        for p in pts:
            assert brute_hull_membership(hull.vertices, p, tol=1e-6)


def lp_reference(poly):
    """(empty, bounded, lo, hi) from a feasibility LP and 2n support LPs."""
    n = poly.dim
    ineq = (poly.normals, poly.offsets)
    empty = not solve_lp(np.zeros(n), *ineq).optimal
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    bounded = True
    if not empty:
        for j in range(n):
            for sign, out in ((1.0, hi), (-1.0, lo)):
                c = np.zeros(n)
                c[j] = -sign
                sol = solve_lp(c, *ineq)
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
