"""Scalar normal CDF/quantile, a piecewise-affine overapproximation of the
standard-normal quantile (used to linearize chance constraints), and a
quasi-Monte-Carlo multivariate-normal box-probability estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(z):
    """Standard normal CDF; accepts scalars or arrays, +/-inf map to 1/0."""
    if np.isscalar(z):
        if math.isnan(z):
            raise ValueError("normal_cdf: NaN input")
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise ValueError("normal_cdf: NaN input")
    return ndtr(z)


def normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile: p must lie strictly in (0, 1)")
    out = ndtri(arr)
    return float(out) if np.isscalar(p) else out


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
    max_l(m_l*delta + c_l) lies within [f, f + tol] on (delta_lb, delta_max].
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
    x = brentq(lambda t: _upper_quantile_deriv(t) - slope, a, b, xtol=1e-14)
    return fa + slope * (x - a) - _upper_quantile(x)


def build_pwa_quantile(delta_lb: float = 1e-6, delta_max: float = 0.5,
                       tol: float = 1e-3) -> PwaQuantile:
    """Greedy secant construction of the overapproximating envelope.

    Knots are placed so each secant's maximum gap over its interval is at
    most tol.  Secants of a convex function overapproximate on each
    interval, and the upper envelope of all secants overapproximates on
    the whole domain, which keeps the reach-set computation conservative.
    """
    if not (0.0 < delta_lb < delta_max <= 0.5):
        raise ValueError("require 0 < delta_lb < delta_max <= 0.5 "
                         "(the upper quantile is convex only on that range)")
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


@dataclass
class MvnBox:
    """Axis-aligned integration region for a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        d = self.mean.size
        if self.cov.shape != (d, d):
            raise ValueError("covariance shape mismatch")
        if self.lower.size != d or self.upper.size != d:
            raise ValueError("bound length mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower > upper")
        sym = 0.5 * (self.cov + self.cov.T)
        if np.max(np.abs(self.cov - sym)) > 1e-8 * max(1.0, np.abs(self.cov).max()):
            raise ValueError("covariance must be symmetric")
        if d and np.min(np.linalg.eigvalsh(sym)) < -1e-10:
            raise ValueError("covariance is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.size


def _pivoted_cholesky(cov: np.ndarray, tol: float = 1e-10):
    """Cholesky with diagonal pivoting; returns (L, perm) with cov[p][:,p] ~= L L^T.

    Handles rank-deficient PSD matrices; raises on indefinite input.
    """
    d = cov.shape[0]
    a = cov.copy()
    perm = np.arange(d)
    L = np.zeros((d, d))
    scale = max(np.max(np.abs(np.diag(cov))), 1.0)
    for i in range(d):
        diag = np.diag(a)[i:]
        j = i + int(np.argmax(diag))
        if a[j, j] < -tol * scale:
            raise ValueError("covariance is not positive semidefinite")
        if a[j, j] <= tol * scale:
            break
        for arr in (a,):
            arr[[i, j], :] = arr[[j, i], :]
            arr[:, [i, j]] = arr[:, [j, i]]
        L[[i, j], :] = L[[j, i], :]
        perm[[i, j]] = perm[[j, i]]
        piv = math.sqrt(a[i, i])
        L[i, i] = piv
        if i + 1 < d:
            L[i + 1:, i] = a[i + 1:, i] / piv
            a[i + 1:, i + 1:] -= np.outer(L[i + 1:, i], L[i + 1:, i])
    return L, perm


_PRIMES = None


def _kronecker_roots(d: int) -> np.ndarray:
    """Square roots of the first d primes, the Richtmyer lattice generator."""
    global _PRIMES
    if _PRIMES is None or len(_PRIMES) < d:
        primes = []
        n = 2
        while len(primes) < max(d, 64):
            if all(n % p for p in primes):
                primes.append(n)
            n += 1
        _PRIMES = primes
    return np.sqrt(np.array(_PRIMES[:d], dtype=float))


def genz_mvn_probability(box: MvnBox, samples: int = 1024, batches: int = 10,
                         seed: int = 0) -> Tuple[float, float]:
    """Estimate P(lower <= X <= upper) for X ~ N(mean, cov).

    Sequential-conditioning transform to the unit cube via pivoted
    Cholesky, integrated with a randomly shifted Kronecker lattice (plain
    Monte Carlo beyond 100 dimensions).  Returns (estimate, std_error)
    where std_error is the batch standard deviation over sqrt(batches).
    """
    if samples < 100 or batches < 2:
        raise ValueError("require samples >= 100 and batches >= 2")
    d = box.dim
    L, perm = _pivoted_cholesky(box.cov)
    lo = (box.lower - box.mean)[perm]
    hi = (box.upper - box.mean)[perm]
    rng = np.random.Generator(np.random.Philox(key=seed))
    use_lattice = d <= 100
    roots = _kronecker_roots(max(d - 1, 1)) if use_lattice else None

    batch_means = np.empty(batches)
    for b in range(batches):
        if use_lattice:
            shift = rng.random(max(d - 1, 1))
            k = np.arange(1, samples + 1)[:, None]
            w = np.mod(k * roots[None, :] + shift[None, :], 1.0)
        else:
            w = rng.random((samples, max(d - 1, 1)))
        batch_means[b] = _genz_transform(L, lo, hi, w)
    est = float(np.clip(batch_means.mean(), 0.0, 1.0))
    err = float(batch_means.std(ddof=1) / math.sqrt(batches))
    return est, err


def _genz_transform(L: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    w: np.ndarray) -> float:
    """Genz sequential conditioning; w holds unit-cube points, one row each."""
    nsamp = w.shape[0]
    d = lo.size
    f = np.ones(nsamp)
    y = np.zeros((nsamp, d))
    for i in range(d):
        drift = y[:, :i] @ L[i, :i] if i else 0.0
        li = L[i, i]
        if li > 1e-13:
            a = normal_cdf(np.clip((lo[i] - drift) / li, -38, 38))
            bnd = normal_cdf(np.clip((hi[i] - drift) / li, -38, 38))
        else:
            # degenerate coordinate: 0/1 indicator given earlier draws
            inside = (drift >= lo[i] - 1e-12) & (drift <= hi[i] + 1e-12)
            a = np.zeros(nsamp)
            bnd = np.where(inside, 1.0, 0.0)
        width = np.maximum(bnd - a, 0.0)
        f *= width
        if i < d - 1:
            u = a + w[:, i] * width
            u = np.clip(u, 1e-16, 1.0 - 1e-16)
            y[:, i] = ndtri(u)
    return float(f.mean())
