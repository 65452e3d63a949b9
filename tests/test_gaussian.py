import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from tubereach import gaussian
from tubereach.gaussian import build_pwa_quantile

from oracles import (MvnBox, brentq_secant_gap, genz_mvn_probability,
                     _pivoted_cholesky)


def test_pwa_envelope_overapproximates_everywhere():
    pwa = build_pwa_quantile(delta_lb=1e-6, tol=1e-3)
    rng = np.random.default_rng(0)
    # log-uniform sampling hits the steep region near delta_lb
    d = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), 10_000))
    env = pwa.envelope(d)
    exact = -ndtri(d)
    gap = env - exact
    assert gap.min() >= -1e-12
    assert gap.max() <= 1e-3 + 1e-9


def test_closed_form_secant_gap_matches_root_finding():
    rng = np.random.default_rng(3)
    pairs = np.sort(np.exp(rng.uniform(np.log(1e-6), np.log(0.5),
                                       (2000, 2))), axis=1)
    for a, b in pairs:
        fa = gaussian._upper_quantile(a)
        gap, slope = gaussian._secant_gap(a, fa, b)
        ref_gap, ref_slope = brentq_secant_gap(a, fa, b)
        # both sum terms near Phi^{-1}(1 - 1e-6) ~ 4.75, so a few ulps of
        # that apart (1.8e-15 at worst over 5 000 pairs)
        assert abs(gap - ref_gap) <= 4e-15
        # Brent's tangent point is good to its xtol, 1e-14 (2.8e-9
        # relative on the derivative at worst)
        assert slope == pytest.approx(ref_slope, rel=1e-7, abs=0)


@pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
def test_closed_form_envelope_matches_root_finding(tol, monkeypatch):
    closed = build_pwa_quantile(tol=tol)
    knots = []

    def oracle(a, fa, b):
        knots.append(a)
        return brentq_secant_gap(a, fa, b)

    monkeypatch.setattr(gaussian, "_secant_gap", oracle)
    brent = build_pwa_quantile(tol=tol)
    # the oracle drove every evaluation of every knot's search
    assert len(knots) == brent.evaluations
    assert len(set(knots)) == len(brent) == len(closed)
    # a search step whose gap lies within an ulp of tol may go either
    # way, which moves that knot and the ones after it in the last bits
    # (at most 6.1e-12 relative on the pieces at tol 1e-4)
    np.testing.assert_allclose(closed.pieces, brent.pieces, rtol=1e-9,
                               atol=0)
    grid = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 20_001))
    np.testing.assert_allclose(closed.envelope(grid), brent.envelope(grid),
                               rtol=0, atol=1e-11)


def recorded_build(delta_lb, tol):
    """build_pwa_quantile(delta_lb=delta_lb, tol=tol) with its knots and
    its count of secant-gap evaluations: every evaluation is gap(a, f(a),
    b) from a knot a, so the knots are the first arguments, then 0.5."""
    calls = []

    def spy(a, fa, b):
        calls.append(a)
        return real_gap(a, fa, b)

    real_gap = gaussian._secant_gap
    with mock.patch.object(gaussian, "_secant_gap", spy):
        pwa = build_pwa_quantile(delta_lb=delta_lb, tol=tol)
    knots = sorted(set(calls)) + [0.5]
    assert len(knots) == len(pwa) + 1
    assert len(calls) == pwa.evaluations
    return pwa, knots, len(calls)


def check_envelope(pwa, knots, tol):
    """Every piece's secant gap is within tol, each knot before 0.5 is the
    last one that is (its gap grows past tol within 1e-9 of the piece
    beyond it), and the envelope lies above the quantile."""
    def gap(a, b):
        return gaussian._secant_gap(a, gaussian._upper_quantile(a), b)[0]

    for a, b in zip(knots[:-1], knots[1:]):
        assert gap(a, b) <= tol
        if b < 0.5:
            assert gap(a, b + 1e-9 * (b - a)) > tol
    grid = np.exp(np.linspace(np.log(knots[0]), np.log(0.5), 2001))
    assert np.all(pwa.envelope(grid) >= -ndtri(grid) - 1e-12)


def test_pwa_search_takes_few_evaluations_per_knot():
    # 4.2, 5.5 and 5.0 per knot; the first piece at 1e-250 is 490 times
    # wider than delta_lb, and its search takes 15
    for delta_lb, tol, pieces in [(1e-6, 1e-3, 78), (1e-200, 1e-3, 1237),
                                  (1e-250, 0.1, 132)]:
        pwa, _, evaluations = recorded_build(delta_lb, tol)
        assert len(pwa) == pieces
        assert evaluations <= 8 * len(pwa)


def test_pwa_built_by_hand_records_no_evaluations():
    pwa = gaussian.PwaQuantile(pieces=[(-2.5, 1.25)], domain=(0.4, 0.5),
                               tol=1e-3)
    assert pwa.evaluations == 0


@pytest.mark.parametrize("delta_lb", [1e-15, 1e-30])
def test_pwa_narrow_first_piece_advances(delta_lb):
    # an absolute 1e-15 stop never moved the first knot off delta_lb here
    pwa, knots, _ = recorded_build(delta_lb, 1e-3)
    check_envelope(pwa, knots, 1e-3)
    grid = np.exp(np.linspace(np.log(delta_lb), np.log(0.5), 20_001))
    assert np.all(pwa.envelope(grid) - -ndtri(grid) <= 1e-3 + 1e-9)


@settings(max_examples=15, deadline=None)
@given(st.floats(math.log(1e-30), math.log(0.4)), st.floats(1e-4, 1e-1))
def test_pwa_knots_are_maximal_and_conservative(log_delta_lb, tol):
    delta_lb = math.exp(log_delta_lb)
    pwa, knots, _ = recorded_build(delta_lb, tol)
    check_envelope(pwa, knots, tol)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf, -math.inf,
                                 1e-300])
def test_pwa_refuses_tol_that_is_not_finite_positive_and_resolvable(tol):
    with pytest.raises(ValueError, match="tol"):
        build_pwa_quantile(tol=tol)


def test_pwa_refuses_delta_lb_whose_secants_overflow():
    # the quantile's slope near 1e-320 is beyond the float range
    with pytest.raises(ValueError, match="overflow"):
        build_pwa_quantile(delta_lb=1e-320)


def test_pwa_knot_that_cannot_advance_is_refused(monkeypatch):
    # a gap above tol everywhere: Newton steps (slope 1) and bisection
    # (slope 0) both close the bracket on a itself
    for slope in (0.0, 1.0):
        monkeypatch.setattr(gaussian, "_secant_gap",
                            lambda a, fa, b: (1.0, slope))
        with pytest.raises(ValueError, match="a=1e-06"):
            build_pwa_quantile(tol=1e-3)


def test_pwa_tighter_tolerance_needs_more_pieces():
    loose = build_pwa_quantile(tol=1e-2)
    tight = build_pwa_quantile(tol=1e-4)
    assert len(tight) > len(loose)


def test_pwa_domain_validation():
    with pytest.raises(ValueError):
        build_pwa_quantile(delta_lb=0.0)
    with pytest.raises(ValueError):
        build_pwa_quantile(delta_lb=0.5)
    with pytest.raises(ValueError):
        build_pwa_quantile(delta_lb=0.6)
    assert build_pwa_quantile(delta_lb=0.4).domain == (0.4, 0.5)
    with pytest.raises(TypeError):
        build_pwa_quantile(1e-6, 0.5)


def test_genz_matches_product_of_marginals():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 4, 7):
        mean = rng.normal(size=dim)
        sig = rng.uniform(0.5, 2.0, size=dim)
        lo = mean - rng.uniform(0.5, 2.0, size=dim)
        hi = mean + rng.uniform(0.5, 2.0, size=dim)
        box = MvnBox(mean=mean, cov=np.diag(sig ** 2), lower=lo, upper=hi)
        p, err = genz_mvn_probability(box, samples=10_000, batches=10, seed=2)
        exact = np.prod(ndtr((hi - mean) / sig) - ndtr((lo - mean) / sig))
        assert abs(p - exact) <= max(3 * err, 1e-6)


def test_genz_correlated_vs_plain_mc():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    box = MvnBox(mean=np.zeros(3), cov=cov, lower=-np.ones(3),
                 upper=2 * np.ones(3))
    p, err = genz_mvn_probability(box, samples=8192, batches=10, seed=3)
    draws = rng.multivariate_normal(np.zeros(3), cov, size=200_000)
    inside = np.all((draws >= -1.0) & (draws <= 2.0), axis=1)
    mc = inside.mean()
    mc_err = np.sqrt(mc * (1 - mc) / draws.shape[0])
    assert abs(p - mc) <= 4 * np.hypot(err, mc_err)


def test_genz_degenerate_coordinate():
    # zero-variance coordinate reduces to an indicator on the drift
    box = MvnBox(mean=np.array([0.0, 0.5]),
                 cov=np.diag([1.0, 0.0]),
                 lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 1.0]))
    p, _ = genz_mvn_probability(box, samples=4096, seed=0)
    exact = ndtr(1.0) - ndtr(-1.0)
    assert p == pytest.approx(exact, abs=1e-3)
    # drift outside the slab kills the probability
    box2 = MvnBox(mean=np.array([0.0, 5.0]),
                  cov=np.diag([1.0, 0.0]),
                  lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 1.0]))
    p2, _ = genz_mvn_probability(box2, samples=1024, seed=0)
    assert p2 == 0.0


def test_genz_seed_determinism():
    box = MvnBox(mean=np.zeros(2), cov=np.eye(2), lower=-np.ones(2),
                 upper=np.ones(2))
    p1 = genz_mvn_probability(box, samples=2048, seed=9)
    p2 = genz_mvn_probability(box, samples=2048, seed=9)
    assert p1 == p2


def test_genz_input_validation():
    box = MvnBox(mean=np.zeros(1), cov=np.eye(1), lower=-np.ones(1),
                 upper=np.ones(1))
    with pytest.raises(ValueError):
        genz_mvn_probability(box, samples=10)
    with pytest.raises(ValueError):
        MvnBox(mean=np.zeros(1), cov=-np.eye(1), lower=-np.ones(1),
               upper=np.ones(1))
    with pytest.raises(ValueError):
        MvnBox(mean=np.zeros(1), cov=np.eye(1), lower=np.ones(1),
               upper=-np.ones(1))


def test_pivoted_cholesky_reconstructs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    cov = a @ a.T
    L, perm = _pivoted_cholesky(cov)
    np.testing.assert_allclose(L @ L.T, cov[np.ix_(perm, perm)], atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 0.5))
def test_pwa_single_point_overapproximation(pwa, delta):
    # pwa, the default envelope, is built once (tests/conftest.py)
    assert pwa.envelope(np.array([delta]))[0] >= -ndtri(delta) - 1e-12
