"""A piecewise-affine overapproximation of the standard-normal quantile
(used to linearize chance constraints)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _upper_quantile(delta: float) -> float:
    """Phi^{-1}(1 - delta), convex and decreasing for delta in (0, 0.5]."""
    return float(-ndtri(delta))


def _upper_quantile_deriv(delta: float) -> float:
    q = -ndtri(delta)
    pdf = math.exp(-0.5 * q * q) / _SQRT2PI
    return -1.0 / pdf


@dataclass
class PwaQuantile:
    """Upper envelope of secant lines overapproximating Phi^{-1}(1 - delta).

    pieces are (slope, intercept) pairs ordered by breakpoint; the envelope
    max_l(m_l*delta + c_l) lies within [f, f + tol] on its domain
    (delta_lb, 0.5].
    """

    pieces: List[Tuple[float, float]]
    domain: Tuple[float, float]
    tol: float

    def envelope(self, delta):
        delta = np.asarray(delta, dtype=float)
        vals = np.stack([m * delta + c for m, c in self.pieces])
        out = vals.max(axis=0)
        return float(out) if out.ndim == 0 else out

    def __len__(self) -> int:
        return len(self.pieces)


def _secant_gap(a: float, b: float) -> float:
    """Max of secant-minus-function over [a, b] for the upper quantile."""
    fa, fb = _upper_quantile(a), _upper_quantile(b)
    slope = (fb - fa) / (b - a)
    # gap is maximized where f' matches the secant slope; f' is increasing
    da, db = _upper_quantile_deriv(a), _upper_quantile_deriv(b)
    if not (da < slope < db):
        return 0.0
    # f'(x) = -sqrt(2 pi) exp(q^2 / 2) at x = Phi(-q), so the tangent
    # point of the secant's slope is in closed form
    q = math.sqrt(2.0 * math.log(-slope / _SQRT2PI))
    x = float(ndtr(-q))
    return fa + slope * (x - a) - _upper_quantile(x)


def _next_knot(a: float, hi: float, gap_hi: float, tol: float) -> float:
    """The largest b in (a, hi) with _secant_gap(a, b) <= tol, to within
    1e-12 of the piece's width, given gap_hi = _secant_gap(a, hi) > tol.

    h(b) = _secant_gap(a, b) - tol rises from h(a) = -tol (a point the
    search never evaluates, since the gap divides by b - a).  Each step
    keeps h(lo) <= 0 < h(hi) and tries the false-position point of the
    bracket, moved into its middle 98%; the end that stays put twice in a
    row has its h halved (the Illinois rule), so both ends close in."""
    lo, h_lo, h_hi = a, -tol, gap_hi - tol
    side = 0
    while hi - lo > 1e-12 * (hi - a):
        width = hi - lo
        step = width * h_lo / (h_lo - h_hi)
        b = lo + min(max(step, 0.01 * width), 0.99 * width)
        if not lo < b < hi:  # the bracket is a few ulps wide
            break
        h = _secant_gap(a, b) - tol
        if h <= 0.0:
            lo, h_lo = b, h
            if side < 0:
                h_hi *= 0.5
            side = -1
        else:
            hi, h_hi = b, h
            if side > 0:
                h_lo *= 0.5
            side = 1
    return lo


def build_pwa_quantile(delta_lb: float = 1e-6, *,
                       tol: float = 1e-3) -> PwaQuantile:
    """Greedy secant envelope of the upper quantile on (delta_lb, 0.5],
    the end of its range where it is convex.

    Secants of a convex function overapproximate on their interval, so
    the upper envelope of the secants overapproximates on the whole
    domain, which keeps the reach-set computation conservative.  From
    each knot a, the next knot is 0.5 when the secant gap to 0.5 is
    within tol, else the largest b with _secant_gap(a, b) <= tol.  That
    b is found by false position (the Illinois variant, _next_knot) on a
    bracket [lo, hi] that starts at [a, 0.5] and keeps
    gap(a, lo) <= tol < gap(a, hi); the search stops when
    hi - lo <= 1e-12 * (hi - a) and returns lo.  So every piece's gap is
    within tol, and a stop relative to the piece resolves a first piece
    of any width.  The piece count grows as tol ** -0.5 (78 pieces at
    the defaults, 24 428 at tol 1e-8).

    Raises ValueError unless 0 < delta_lb < 0.5 and tol is finite and
    positive, when tol is within the rounding error of the gap at
    delta_lb, when a knot cannot advance, and when the secants overflow
    (delta_lb below about 1e-308).
    """
    delta_max = 0.5
    if not (0.0 < delta_lb < delta_max):
        raise ValueError("require 0 < delta_lb < 0.5 "
                         "(the upper quantile is convex only on (0, 0.5])")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    # the gap is a difference of quantile values no larger than the one
    # at delta_lb, so it is computed to a few ulps of that; a tol as small
    # as its rounding error would let the knots creep by noise
    if tol <= 256.0 * math.ulp(_upper_quantile(delta_lb)):
        raise ValueError(f"tol={tol!r} is within the rounding error of the "
                         f"secant gap at delta_lb={delta_lb!r}")

    knots = [delta_lb]
    a = delta_lb
    while a < delta_max:
        gap = _secant_gap(a, delta_max)
        if gap <= tol:
            knots.append(delta_max)
            break
        b = _next_knot(a, delta_max, gap, tol)
        if not b > a:
            raise ValueError(f"no knot after a={a!r} has a secant gap "
                             f"within tol={tol!r}")
        knots.append(b)
        a = b

    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        fa, fb = _upper_quantile(a), _upper_quantile(b)
        slope = (fb - fa) / (b - a)
        pieces.append((slope, fa - slope * a))
    if not np.all(np.isfinite(pieces)):
        raise ValueError(f"the secants overflow at delta_lb={delta_lb!r}")
    return PwaQuantile(pieces=pieces, domain=(delta_lb, delta_max), tol=tol)
