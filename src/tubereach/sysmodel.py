"""Linear time-varying Gaussian system definitions, per-step moments by
forward recursion, and benchmark system generators (integrator chain,
spacecraft relative motion, Dubins vehicle with known turning rates,
uncontrolled stable system)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .geometry import HPolytope, box_polytope

_PSD_TOL = 1e-10


@dataclass
class GaussianDisturbance:
    """Per-step mean vectors and PSD covariance matrices."""

    mean_per_step: List[np.ndarray]
    cov_per_step: List[np.ndarray]

    def __post_init__(self):
        self.mean_per_step = [np.asarray(m, dtype=float).ravel()
                              for m in self.mean_per_step]
        self.cov_per_step = [np.atleast_2d(np.asarray(c, dtype=float))
                             for c in self.cov_per_step]
        if len(self.mean_per_step) != len(self.cov_per_step):
            raise ValueError("mean/cov step count mismatch")
        for mu, cov in zip(self.mean_per_step, self.cov_per_step):
            if cov.shape != (mu.size, mu.size):
                raise ValueError("covariance shape mismatch")
            if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
                raise ValueError("disturbance mean and covariance must be "
                                 "finite")
            if np.max(np.abs(cov - cov.T)) > _PSD_TOL * max(1.0, np.abs(cov).max()):
                raise ValueError("covariance must be symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) < -_PSD_TOL:
                raise ValueError("covariance must be positive semidefinite")

    @classmethod
    def iid(cls, mean, cov, steps: int) -> "GaussianDisturbance":
        return cls(mean_per_step=[np.asarray(mean, dtype=float)] * steps,
                   cov_per_step=[np.asarray(cov, dtype=float)] * steps)


@dataclass
class StochasticLTVSystem:
    """x_{k+1} = A_k x_k + B_k u_k + w_k with Gaussian w_k and polytopic
    input set; input_dim may be zero for uncontrolled systems."""

    A_seq: List[np.ndarray]
    B_seq: List[np.ndarray]
    disturbance: GaussianDisturbance
    input_set: Optional[HPolytope]
    horizon: int

    def __post_init__(self):
        self.A_seq = [np.atleast_2d(np.asarray(a, dtype=float)) for a in self.A_seq]
        self.B_seq = [np.atleast_2d(np.asarray(b, dtype=float)) for b in self.B_seq]
        n = self.A_seq[0].shape[0]
        self.B_seq = [b.reshape(n, -1) for b in self.B_seq]
        if not (len(self.A_seq) == len(self.B_seq) == self.horizon
                == len(self.disturbance.mean_per_step)):
            raise ValueError("sequence lengths must equal the horizon")
        for a, b in zip(self.A_seq, self.B_seq):
            if a.shape != (n, n) or b.shape[0] != n:
                raise ValueError("matrix dimensions inconsistent")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError("A and B entries must be finite")
        m = self.B_seq[0].shape[1]
        if any(b.shape[1] != m for b in self.B_seq):
            raise ValueError("input dimension varies across steps")
        if m > 0:
            if self.input_set is None:
                raise ValueError("input set required when input_dim > 0")
            if self.input_set.dim != m:
                raise ValueError("input set dimension mismatch")
            if self.input_set.is_empty() or not self.input_set.is_bounded():
                raise ValueError("input set must be nonempty and bounded")

    @property
    def state_dim(self) -> int:
        return self.A_seq[0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.B_seq[0].shape[1]

    @classmethod
    def lti(cls, a, b, disturbance_mean, disturbance_cov,
            input_set: Optional[HPolytope], horizon: int) -> "StochasticLTVSystem":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
        dist = GaussianDisturbance.iid(disturbance_mean, disturbance_cov, horizon)
        return cls(A_seq=[a] * horizon, B_seq=[b] * horizon,
                   disturbance=dist, input_set=input_set, horizon=horizon)


@dataclass
class TargetTube:
    """Time-indexed safe sets T_0..T_N; each must be bounded."""

    sets: List[HPolytope]

    def __post_init__(self):
        if len(self.sets) < 2:
            raise ValueError("tube needs at least T_0 and T_1")
        dim = self.sets[0].dim
        for poly in self.sets:
            if poly.dim != dim:
                raise ValueError("all tube sets must share the state dimension")
            if not poly.is_bounded():
                raise ValueError("tube sets must be bounded")

    @property
    def horizon(self) -> int:
        return len(self.sets) - 1

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def __getitem__(self, k: int) -> HPolytope:
        return self.sets[k]


def step_moments(sys: StochasticLTVSystem):
    """Per-step moments of x_k = Phi_k x0 + H_k U + (noise) for k = 1..N,
    in one forward pass: a list of (Phi_k, H_k, mu_k, Sigma_k), where H_k
    (n x mN) maps the stacked input U, and mu_k and Sigma_k are the mean
    and covariance of the noise's share of x_k."""
    n, m, nsteps = sys.state_dim, sys.input_dim, sys.horizon
    phi, h = np.eye(n), np.zeros((n, m * nsteps))
    mu, cov = np.zeros(n), np.zeros((n, n))
    moments = []
    for k in range(nsteps):
        a = sys.A_seq[k]
        phi = a @ phi
        h = a @ h
        h[:, k * m:(k + 1) * m] = sys.B_seq[k]
        mu = a @ mu + sys.disturbance.mean_per_step[k]
        cov = a @ cov @ a.T + sys.disturbance.cov_per_step[k]
        moments.append((phi, h, mu, cov))
    return moments


def make_integrator_chain(n: int, sampling_time: float, horizon: int,
                          cov: float, input_bound: float) -> StochasticLTVSystem:
    """Chain of n integrators under zero-order hold."""
    if n < 1 or sampling_time <= 0.0:
        raise ValueError("need n >= 1 and positive sampling time")
    # terms[k] = ts^k / k!, by the recurrence so that no k! overflows
    terms = np.concatenate([[1.0], np.cumprod(sampling_time
                                              / np.arange(1, n + 1))])
    a = np.eye(n)
    for i in range(n):
        a[i, i:] = terms[:n - i]
    b = terms[n:0:-1]
    input_set = box_polytope([0.0], [input_bound])
    return StochasticLTVSystem.lti(a, b, np.zeros(n),
                                   np.diag(np.full(n, cov)),
                                   input_set, horizon)


def make_cwh(orbital_rate: float = 0.00106, mass: float = 1.0,
             sampling_time: float = 20.0, horizon: int = 5,
             cov_diag: Sequence[float] = (1e-4, 1e-4, 5e-8, 5e-8),
             input_bound: float = 0.1) -> StochasticLTVSystem:
    """Planar relative orbital motion (state [x, y, xdot, ydot]) with exact
    zero-order-hold discretization via the augmented matrix exponential."""
    if orbital_rate <= 0.0 or mass <= 0.0 or sampling_time <= 0.0:
        raise ValueError("orbital rate, mass, and sampling time must be positive")
    w = orbital_rate
    a_c = np.array([[0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [3.0 * w * w, 0.0, 0.0, 2.0 * w],
                    [0.0, 0.0, -2.0 * w, 0.0]])
    b_c = np.array([[0.0, 0.0], [0.0, 0.0],
                    [1.0 / mass, 0.0], [0.0, 1.0 / mass]])
    aug = np.zeros((6, 6))
    aug[:4, :4] = a_c
    aug[:4, 4:] = b_c
    phi = expm(aug * sampling_time)
    a_d, b_d = phi[:4, :4], phi[:4, 4:]
    input_set = box_polytope([0.0, 0.0], [input_bound, input_bound])
    return StochasticLTVSystem.lti(a_d, b_d, np.zeros(4),
                                   np.diag(np.asarray(cov_diag, dtype=float)),
                                   input_set, horizon)


def cwh_los_tube(horizon: int = 5) -> TargetTube:
    """Line-of-sight cone tube with a docking terminal box."""
    # cone |x| <= -y, bounded by |x| <= 2, y >= -2, velocity caps 0.5
    cone = HPolytope(
        normals=np.array([
            [1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]]),
        offsets=np.array([0.0, 0.0, 2.0, 2.0, 2.0, 0.0,
                          0.5, 0.5, 0.5, 0.5]))
    terminal = HPolytope(
        normals=np.vstack([np.eye(4), -np.eye(4)]),
        offsets=np.array([0.1, 0.0, 0.01, 0.01, 0.1, 0.1, 0.01, 0.01]))
    return TargetTube(sets=[cone] * horizon + [terminal])


def dubins_headings(phi0: float, sampling_time: float,
                    turn_rates: Sequence[float], horizon: int) -> np.ndarray:
    rates = np.asarray(turn_rates, dtype=float)
    if rates.size < horizon:
        raise ValueError("turn_rates must cover the horizon")
    cums = np.concatenate([[0.0], np.cumsum(rates[:horizon - 1])])
    return phi0 + sampling_time * cums


def make_dubins(sampling_time: float, horizon: int, phi0: float,
                turn_rates: Sequence[float], umax: float,
                mu_eta=(0.0, 0.0), cov_eta=None) -> StochasticLTVSystem:
    """Position-only Dubins dynamics with a known heading schedule."""
    if umax <= 0.0:
        raise ValueError("umax must be positive")
    headings = dubins_headings(phi0, sampling_time, turn_rates, horizon)
    a_seq = [np.eye(2)] * horizon
    b_seq = [sampling_time * np.array([[math.cos(p)], [math.sin(p)]])
             for p in headings]
    cov = 1e-3 * np.eye(2) if cov_eta is None else np.asarray(cov_eta, dtype=float)
    dist = GaussianDisturbance.iid(np.asarray(mu_eta, dtype=float), cov, horizon)
    input_set = HPolytope(normals=np.array([[1.0], [-1.0]]),
                          offsets=np.array([umax, 0.0]))  # u in [0, umax]
    return StochasticLTVSystem(A_seq=a_seq, B_seq=b_seq, disturbance=dist,
                               input_set=input_set, horizon=horizon)


def nominal_dubins_tube(sys: StochasticLTVSystem, delta: float,
                        decay_steps: float = 100.0,
                        base_half_width: float = 4.0) -> TargetTube:
    """Boxes around the noiseless constant-throttle trajectory, with
    exponentially decaying half-widths."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    lo, hi = sys.input_set.interval_bounds()
    u = delta * hi[0]
    centers = [np.zeros(2)]
    for k in range(sys.horizon):
        centers.append(centers[-1] + (sys.B_seq[k] @ np.array([u])))
    sets = [box_polytope(c, [base_half_width * math.exp(-k / decay_steps)] * 2)
            for k, c in enumerate(centers)]
    return TargetTube(sets=sets)


def make_uncontrolled(n: int, gain: float = 0.8, cov: float = 0.05,
                      horizon: int = 10) -> StochasticLTVSystem:
    """x+ = gain * x + w with no input channel."""
    a = gain * np.eye(n)
    b = np.zeros((n, 0))
    dist = GaussianDisturbance.iid(np.zeros(n),
                                   np.diag(np.full(n, cov)), horizon)
    return StochasticLTVSystem(A_seq=[a] * horizon, B_seq=[b] * horizon,
                               disturbance=dist, input_set=None, horizon=horizon)


def viability_tube(dim: int, half_width: float, horizon: int,
                   terminal_half_width: Optional[float] = None) -> TargetTube:
    """Constant box tube, optionally with a tighter terminal box."""
    box = box_polytope(np.zeros(dim), [half_width] * dim)
    term = box if terminal_half_width is None else \
        box_polytope(np.zeros(dim), [terminal_half_width] * dim)
    return TargetTube(sets=[box] * horizon + [term])
