"""Workload definitions and the cycle of operations each one repeats.

The configs are frozen copies, so a change to the package's examples does
not change what the benchmark measures.  Inputs are built through the
command line tool's config path; the reach sets, interpolants and
validations are then computed as `tubereach compute`, `interpolate` and
`validate` compute them, at one worker.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from tubereach import cli, gaussian, geometry, montecarlo, reachalgo

import checks


@dataclass(frozen=True)
class Problem:
    name: str
    config: dict  # tubereach config: system, tube, horizon, alphas, directions
    # Monte-Carlo trajectories per validated vertex: what `tubereach
    # validate` uses for the config, its validation.n_traj or VALIDATE_N_TRAJ
    n_traj: int
    dp_spacing: Optional[float] = None  # grid of the DP oracle (dim <= 2)
    betas: int = 0  # points of the interpolation sweep over [alpha1, alpha2]
    symmetric: bool = False  # the set must be symmetric about 0


# `tubereach validate`'s trajectory count when the config sets none.
VALIDATE_N_TRAJ = 100_000


def _interval(half_width: float) -> dict:
    return {"normals": [[1.0], [-1.0]], "offsets": [half_width, half_width]}


SCALAR = Problem(
    name="scalar",
    config={
        "system": {"type": "custom", "A_seq": [[[1.0]]] * 5,
                   "B_seq": [[[1.0]]] * 5,
                   "disturbance": {"mean": [0.0], "covariance": [[0.001]]},
                   "input_set": _interval(0.1)},
        "tube": {"type": "explicit",
                 "sets": [_interval(0.6 ** k) for k in range(6)]},
        "horizon": 5,
        "alphas": [0.5, 0.6],
        "directions": {"count": 2},
    },
    n_traj=VALIDATE_N_TRAJ, dp_spacing=0.01, symmetric=True)

INTEGRATOR2 = Problem(
    name="integrator2",
    config={
        "system": {"type": "integrator", "dimension": 2,
                   "sampling_time": 0.1, "covariance": 0.01,
                   "input_bound": 0.1},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 10,
        "alphas": [0.6, 0.9],
        "directions": {"count": 32},
    },
    n_traj=VALIDATE_N_TRAJ, dp_spacing=0.05, betas=7)

INTEGRATOR40 = Problem(
    name="integrator40",
    config={
        "system": {"type": "integrator", "dimension": 40,
                   "sampling_time": 0.1, "covariance": 0.01,
                   "input_bound": 1.0},
        "tube": {"type": "viability", "half_width": 10.0,
                 "terminal_half_width": 8.0},
        "horizon": 5,
        "alphas": [0.6, 0.9],
        "directions": {"count": 8, "slice": [0, 1]},
    },
    n_traj=10_000)  # the example's validation.n_traj

DUBINS = Problem(
    name="dubins",
    config={
        "system": {"type": "dubins", "sampling_time": 0.1,
                   "heading": 0.3141592653589793,
                   "turn_rates": [0.6283185307179586] * 50,
                   "input_bound": 10.0,
                   "disturbance_covariance": [[0.001, 0.0], [0.0, 0.001]]},
        "tube": {"type": "dubins-nominal", "delta": 0.7,
                 "decay_steps": 100.0, "base_half_width": 4.0},
        "horizon": 50,
        "alphas": [0.8],
        "directions": {"count": 8},
    },
    n_traj=VALIDATE_N_TRAJ)

WORKLOADS = {
    "scalar": (SCALAR,),
    "planar": (INTEGRATOR2,),
    "scale-up": (INTEGRATOR40, DUBINS),
}


@dataclass
class Inputs:
    system: object
    tube: object
    directions: object
    pwa: object


def build_inputs(config: dict) -> Inputs:
    """System, tube (with its boundedness LPs), PWA quantile envelope and
    directions, built from a config as `tubereach compute` builds them."""
    horizon = int(config["horizon"])
    system = cli.build_system(config["system"], horizon)
    tube = cli.build_tube(config["tube"], system)
    dirs = config["directions"]
    slice_dims = tuple(dirs["slice"]) if "slice" in dirs else None
    directions = geometry.spread_directions(int(dirs["count"]),
                                            system.state_dim, slice_dims)
    pwa = gaussian.build_pwa_quantile(delta_lb=1e-6, tol=1e-3)
    return Inputs(system, tube, directions, pwa)


@dataclass
class Prepared:
    problem: Problem
    inputs: Inputs
    dp: object  # reachalgo.DpTable or None


def prepare(problem: Problem, inputs: Inputs) -> Prepared:
    """Attach the DP oracle; it is built once per run, outside any timing."""
    table = None
    if problem.dp_spacing is not None:
        table = reachalgo.dp_values(inputs.system, inputs.tube,
                                    problem.dp_spacing, problem.dp_spacing)
    return Prepared(problem, inputs, table)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Cycle:
    compute_s: float
    validate_s: float
    area_frac: float
    shapes: Dict[Tuple[str, float], np.ndarray]  # vertices of each set


def _call(fn, *args, **kwargs):
    """(value, exception, seconds) of one library call."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a failed operation
        traceback.print_exception(exc, file=sys.stderr)
        return None, exc, time.perf_counter() - t0
    return out, None, time.perf_counter() - t0


def _call_batch(min_s: float, fn, *args, **kwargs):
    """_call repeated until the calls have taken min_s (at least once);
    (last value, exception, mean seconds per call)."""
    calls, total = 0, 0.0
    while calls == 0 or total < min_s:
        out, exc, secs = _call(fn, *args, **kwargs)
        calls, total = calls + 1, total + secs
        if exc is not None:
            break
    return out, exc, total / calls


def mc_seed(seed: int, problem_index: int, alpha_index: int) -> int:
    """Base seed of one validation; vertex i uses base + i (< 100)."""
    return seed * 10_000 + 1_000 * problem_index + 100 * alpha_index


def _threshold_step(prep: Prepared, p_index: int, a_index: int, alpha: float,
                    seed: int, ledger: Ledger, times: Dict[str, float],
                    validate_batch_s: float):
    """Compute, check and validate the set at one threshold; the checked
    set, or None when it failed."""
    prob, inp, table = prep.problem, prep.inputs, prep.dp
    label = f"{prob.name} alpha={alpha:g}"
    res, exc, secs = _call(reachalgo.compute_reach_set, inp.system, inp.tube,
                           alpha, inp.directions, pwa=inp.pwa, jobs=1)
    times["compute"] += secs
    if exc is not None:
        problems, bounds = [f"raised {exc!r}"], []
    else:
        problems, bounds = checks.check_reach_set(res, inp.system, inp.tube,
                                                  alpha)
    if not problems and table is not None:
        problems += checks.check_inside_dp(res.polytope.vertices, table, alpha)
    if not problems and prob.symmetric:
        problems += checks.check_symmetric(res.polytope.vertices)
    ledger.record(label + " compute", problems)
    if problems:
        ledger.record(label + " validate", ["its reach set failed"])
        return None
    report, exc, secs = _call_batch(
        validate_batch_s, montecarlo.validate_vertices, res, inp.system,
        inp.tube, prob.n_traj, seed=mc_seed(seed, p_index, a_index))
    times["validate"] += secs
    ledger.record(label + " validate",
                  [f"raised {exc!r}"] if exc is not None
                  else checks.check_validation(report, bounds))
    return res


def _interpolation_sweep(prep: Prepared, low, high, betas: int,
                         ledger: Ledger) -> None:
    prob, table = prep.problem, prep.dp
    a1, a2 = (float(a) for a in prob.config["alphas"])
    for i, beta in enumerate(np.linspace(a1, a2, betas)):
        label = f"{prob.name} interpolate beta={beta:.4f}"
        if low is None or high is None:
            ledger.record(label, ["an input set failed"])
            continue
        poly, exc, _ = _call(reachalgo.interpolate_sets, low, high, float(beta))
        if exc is not None:
            ledger.record(label, [f"raised {exc!r}"])
            continue
        problems = []
        if table is not None:
            problems += checks.check_inside_dp(poly.vertices, table, beta)
        if i == 0:
            problems += checks.check_same_hull(poly, low.polytope,
                                               "beta = alpha1")
        if i == betas - 1:
            problems += checks.check_same_hull(poly, high.polytope,
                                               "beta = alpha2")
        ledger.record(label, problems)


def warm_up(prepared: List[Prepared], seed: int) -> None:
    """Untimed and unchecked: for each problem, the anchor LP and hull at
    its first threshold, and the Monte-Carlo validation of the anchor.  This
    absorbs lazy imports (the first HiGHS call imports scipy.optimize) and
    first-touch allocation."""
    for p_index, prep in enumerate(prepared):
        inp = prep.inputs
        res, exc, _ = _call(reachalgo.compute_reach_set, inp.system, inp.tube,
                            float(prep.problem.config["alphas"][0]),
                            inp.directions, pwa=inp.pwa, jobs=1,
                            max_directions=0)
        if exc is None and not res.is_empty:
            _call(montecarlo.validate_vertices, res, inp.system, inp.tube,
                  prep.problem.n_traj, seed=mc_seed(seed, p_index, 0))


def run_cycle(prepared: List[Prepared], seed: int, ledger: Ledger,
              validate_batch_s: float = 0.0) -> Cycle:
    """Compute every reach set of the workload, validate each by
    Monte-Carlo, run the interpolation sweep, and check all of it.

    Each set is validated right after it is computed, which spreads the
    validation time over the cycle.  A validation is repeated, with the same
    seed and so the same result, until the repeats have taken
    validate_batch_s, and timed as their mean."""
    times = {"compute": 0.0, "validate": 0.0}
    areas, shapes = [], {}
    for p_index, prep in enumerate(prepared):
        alphas = [float(a) for a in prep.problem.config["alphas"]]
        sets = []
        for a_index, alpha in enumerate(alphas):
            res = _threshold_step(prep, p_index, a_index, alpha, seed, ledger,
                                  times, validate_batch_s)
            sets.append(res)
            if res is not None:
                inp = prep.inputs
                areas.append(checks.slice_area_fraction(
                    res, inp.tube, inp.directions.slice_dims or (0, 1)))
                shapes[prep.problem.name, alpha] = res.polytope.vertices
        if len(sets) > 1 and prep.problem.betas:
            _interpolation_sweep(prep, sets[0], sets[-1], prep.problem.betas,
                                 ledger)
    area = float(np.mean(areas)) if areas else 0.0
    return Cycle(times["compute"], times["validate"], area, shapes)
