"""A piecewise-affine overapproximation of the standard-normal quantile
(used to linearize chance constraints)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the envelope's upper end, where the upper quantile stops being convex
_DELTA_MAX = 0.5


def _upper_quantile(delta: float) -> float:
    """Phi^{-1}(1 - delta), convex and decreasing for delta in (0, 0.5]."""
    return float(-ndtri(delta))


def _quantile_slope(q: float) -> float:
    """The upper quantile's derivative where it takes the value q:
    -1 / phi(q), which overflows to -inf for delta below about 1e-308."""
    return -_SQRT2PI / math.exp(-0.5 * q * q)


@dataclass
class PwaQuantile:
    """Upper envelope of secant lines overapproximating Phi^{-1}(1 - delta).

    pieces are (slope, intercept) pairs ordered by breakpoint; the envelope
    max_l(m_l*delta + c_l) lies within [f, f + tol] on its domain
    (delta_lb, 0.5].  evaluations counts the secant-gap evaluations of
    its build (0 for one built by hand), a build cost that does not
    depend on the machine.
    """

    pieces: List[Tuple[float, float]]
    domain: Tuple[float, float]
    tol: float
    evaluations: int = 0

    def envelope(self, delta):
        delta = np.asarray(delta, dtype=float)
        vals = np.stack([m * delta + c for m, c in self.pieces])
        out = vals.max(axis=0)
        return float(out) if out.ndim == 0 else out

    def __len__(self) -> int:
        return len(self.pieces)


def _secant_gap(a: float, fa: float, b: float) -> Tuple[float, float]:
    """The largest amount by which the secant of the upper quantile f
    over [a, b] exceeds f, and its derivative in b; fa is f(a).

    f' increases, so the gap is largest at the x* where f' equals the
    secant's slope s.  f'(x) = -sqrt(2 pi) exp(q^2 / 2) at x = Phi(-q), so
    x* and f(x*) = q* are in closed form, and the derivative in b is
    s'(b) (x* - a) = (f'(b) - s)(x* - a) / (b - a) (the envelope theorem).
    Both are 0 when s is not strictly between f'(a) and f'(b), as when
    b - a is too small for the rounded quantiles to resolve."""
    fb = _upper_quantile(b)
    slope = (fb - fa) / (b - a)
    db = _quantile_slope(fb)
    if not _quantile_slope(fa) < slope < db:
        return 0.0, 0.0
    q = math.sqrt(2.0 * math.log(-slope / _SQRT2PI))
    x = float(ndtr(-q))
    return fa + slope * (x - a) - q, (db - slope) * (x - a) / (b - a)


def _knot_after(a: float, guess: float, tol: float) -> Tuple[float, int]:
    """The largest b in (a, 0.5] with _secant_gap(a, f(a), b)[0] <= tol,
    to within 1e-12 of the piece's width, searched from the first trial
    a + guess; and the number of gap evaluations the search took.

    h(b) = gap(a, b) - tol rises from h(a) = -tol (a point the search
    never evaluates, since the gap divides by b - a).  The search keeps a
    bracket with h(lo) <= 0 < h(hi), from [a, 0.5] with 0.5 not yet
    evaluated, and stops when hi - lo <= 1e-12 * (hi - a), returning lo.
    Each trial is Newton's step on h, aimed a quarter of that stop width
    beyond the root, so that once Newton has converged the next trial
    lands across the root and closes the bracket.  A step that leaves the
    bracket, or is not under half the move before the last one, bisects
    instead (the safeguard of Numerical Recipes' rtsafe), at the bracket's
    geometric mean: that halves its decades while its ends are far apart,
    as they are when a first piece below 1e-250 is many times wider than
    delta_lb, and its width once they are near.  A trial at or past 0.5
    evaluates 0.5, and 0.5 is the knot if its gap is within tol."""
    fa = _upper_quantile(a)
    lo, hi, top = a, _DELTA_MAX, True  # top: hi is 0.5, not yet evaluated
    b, prev, evaluations = a + guess, a, 0
    moved = older = math.inf  # the last two moves between trials
    while True:
        if top and b >= hi:
            b = hi
        elif not lo < b < hi:
            b = math.sqrt(lo) * math.sqrt(hi)
            if not lo < b < hi:
                b = 0.5 * (lo + hi)
            if not lo < b < hi:  # the bracket is a few ulps wide
                return lo, evaluations
        older, moved = moved, abs(b - prev)
        gap, slope = _secant_gap(a, fa, b)
        evaluations += 1
        h = gap - tol
        if h <= 0.0:
            if b == _DELTA_MAX:
                return b, evaluations
            lo = b
        else:
            hi, top = b, False
        if hi - lo <= 1e-12 * (hi - a):
            return lo, evaluations
        step = h / slope if 0.0 < slope < math.inf else math.nan
        aim = 2.5e-13 * (b - a)
        prev, b = b, b - step + (aim if h <= 0.0 else -aim)
        if not abs(b - prev) < 0.5 * older:
            b = math.nan  # bisect


def build_pwa_quantile(delta_lb: float = 1e-6, *,
                       tol: float = 1e-3) -> PwaQuantile:
    """Greedy secant envelope of the upper quantile on (delta_lb, 0.5],
    the end of its range where it is convex.

    Secants of a convex function overapproximate on their interval, so
    the upper envelope of the secants overapproximates on the whole
    domain, which keeps the reach-set computation conservative.  From
    each knot a, the next knot is the largest b <= 0.5 whose secant gap
    is within tol, to within 1e-12 of the piece, found by safeguarded
    Newton on the gap's closed form (_knot_after).  Its first trial
    extends the previous piece by the ratio of the last two widths (the
    first piece starts from b = 2 delta_lb).  So every piece's gap is
    within tol, and a stop relative to the piece resolves a first piece
    of any width.  The default envelope is 78 pieces from 328 gap
    evaluations (4.2 a knot, 5.5 at delta_lb 1e-200), built in about
    0.35 ms on 2 CPUs.  The piece count grows as tol ** -0.5 (24 428
    pieces at tol 1e-8).

    Raises ValueError unless 0 < delta_lb < 0.5 and tol is finite and
    positive, when tol is within the rounding error of the gap at
    delta_lb, when a knot cannot advance, and when the secants overflow
    (delta_lb below about 1e-308).
    """
    if not (0.0 < delta_lb < _DELTA_MAX):
        raise ValueError("require 0 < delta_lb < 0.5 "
                         "(the upper quantile is convex only on (0, 0.5])")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    q = _upper_quantile(delta_lb)
    # the gap is a difference of quantile values no larger than the one
    # at delta_lb, so it is computed to a few ulps of that; a tol as small
    # as its rounding error would let the knots creep by noise
    if tol <= 256.0 * math.ulp(q):
        raise ValueError(f"tol={tol!r} is within the rounding error of the "
                         f"secant gap at delta_lb={delta_lb!r}")

    # the first trial is b = 2 delta_lb; each later one extends the last
    # width by the ratio of the last two (delta_lb standing in for the
    # width before the first)
    width, growth, evaluations = delta_lb, 1.0, 0
    knots = [delta_lb]
    while knots[-1] < _DELTA_MAX:
        a = knots[-1]
        b, spent = _knot_after(a, width * growth, tol)
        evaluations += spent
        if not b > a:
            raise ValueError(f"no knot after a={a!r} has a secant gap "
                             f"within tol={tol!r}")
        growth, width = (b - a) / width, b - a
        knots.append(b)

    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        fa, fb = _upper_quantile(a), _upper_quantile(b)
        slope = (fb - fa) / (b - a)
        pieces.append((slope, fa - slope * a))
    if not np.all(np.isfinite(pieces)):
        raise ValueError(f"the secants overflow at delta_lb={delta_lb!r}")
    return PwaQuantile(pieces=pieces, domain=(delta_lb, _DELTA_MAX), tol=tol,
                       evaluations=evaluations)
