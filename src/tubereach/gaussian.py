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


def build_pwa_quantile(delta_lb: float = 1e-6, *,
                       tol: float = 1e-3) -> PwaQuantile:
    """Greedy secant construction of the overapproximating envelope on
    (delta_lb, 0.5], the end of the range where the upper quantile is
    convex.

    Knots are placed so each secant's maximum gap over its interval is at
    most tol.  Secants of a convex function overapproximate on each
    interval, and the upper envelope of all secants overapproximates on
    the whole domain, which keeps the reach-set computation conservative.
    """
    delta_max = 0.5
    if not (0.0 < delta_lb < delta_max):
        raise ValueError("require 0 < delta_lb < 0.5 "
                         "(the upper quantile is convex only on (0, 0.5])")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    knots = [delta_lb]
    a = delta_lb
    while a < delta_max:
        if _secant_gap(a, delta_max) <= tol:
            knots.append(delta_max)
            break
        # largest b in (a, delta_max] with gap <= tol, by bisection
        lo, hi = a, delta_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _secant_gap(a, mid) <= tol:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * max(1.0, hi):
                break
        knots.append(lo)
        a = lo

    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        fa, fb = _upper_quantile(a), _upper_quantile(b)
        slope = (fb - fa) / (b - a)
        pieces.append((slope, fa - slope * a))
    return PwaQuantile(pieces=pieces, domain=(delta_lb, delta_max), tol=tol)
