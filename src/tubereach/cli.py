"""Config-driven command line front end.

Subcommands: example (write a ready-made config), compute (polytopic
underapproximation), interpolate (cross-threshold set), dp (grid
baseline), validate (Monte-Carlo vertex check), report (merge artifacts).
All randomness is seeded from the config (default 0) so reruns reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys as _sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import montecarlo, reachalgo
from .gaussian import build_pwa_quantile
from .geometry import HPolytope, VPolytope, box_polytope, spread_directions
from .sysmodel import (GaussianDisturbance, StochasticLTVSystem, TargetTube,
                       cwh_los_tube, make_cwh, make_dubins,
                       make_integrator_chain, make_uncontrolled,
                       nominal_dubins_tube, viability_tube)

log = logging.getLogger("tubereach")

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_EMPTY_SET = 2
EXIT_SOLVER_FAILURE = 3


class ConfigError(ValueError):
    pass


def _check_keys(node: dict, allowed, where: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(node: dict, key: str, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if key not in node:
        raise ConfigError(f"missing key {key!r} in {where}")
    return node[key]


_REQUIRED = object()


def _number(value, kind, where: str):
    """value as a kind (int or float).  A boolean, a string, a value that
    is not finite and, for int, a fractional value raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, not {value!r}")
    if not abs(value) <= _sys.float_info.max:  # NaN, inf, a huge int
        raise ConfigError(f"{where} must be finite, not {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{where} must be an integer, not {value!r}")
    return kind(value)


def _numbers(value, where: str) -> np.ndarray:
    """A list of config numbers, or a rectangular nest of such lists, as
    a float array; each entry goes through _number."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, not {value!r}")
    # a ragged nest leaves lists among the entries, which _number rejects
    entries = np.asarray(value, dtype=object)
    for v in entries.flat:
        _number(v, float, where)
    return entries.astype(float)


def _value(node: dict, key: str, where: str, kind=float, default=_REQUIRED):
    """node[key] through _number, or through _numbers for kind list;
    default when node lacks the key, and a missing key without a default
    raises ConfigError."""
    if default is not _REQUIRED and key not in node:
        return default
    value = _require(node, key, where)
    name = f"{where}.{key}"
    return _numbers(value, name) if kind is list else \
        _number(value, kind, name)


def _polytope(node: dict, where: str) -> HPolytope:
    _check_keys(node, {"normals", "offsets"}, where)
    return HPolytope(normals=_value(node, "normals", where, list),
                     offsets=_value(node, "offsets", where, list))


def build_system(spec: dict, horizon: int) -> StochasticLTVSystem:
    kind = _require(spec, "type", "system")
    if kind == "integrator":
        _check_keys(spec, {"type", "dimension", "sampling_time",
                           "covariance", "input_bound"}, "system")
        return make_integrator_chain(
            _value(spec, "dimension", "system", int),
            _value(spec, "sampling_time", "system", default=0.1), horizon,
            _value(spec, "covariance", "system"),
            _value(spec, "input_bound", "system"))
    if kind == "uncontrolled":
        _check_keys(spec, {"type", "dimension", "gain", "covariance"},
                    "system")
        return make_uncontrolled(
            _value(spec, "dimension", "system", int),
            gain=_value(spec, "gain", "system", default=0.8),
            cov=_value(spec, "covariance", "system", default=0.05),
            horizon=horizon)
    if kind == "cwh":
        _check_keys(spec, {"type", "orbital_rate", "mass", "sampling_time",
                           "covariance_diagonal", "input_bound"}, "system")
        kwargs = {key: _value(spec, key, "system") for key in
                  ("orbital_rate", "mass", "sampling_time", "input_bound")
                  if key in spec}
        if "covariance_diagonal" in spec:
            kwargs["cov_diag"] = _value(spec, "covariance_diagonal",
                                        "system", list)
        return make_cwh(horizon=horizon, **kwargs)
    if kind == "dubins":
        _check_keys(spec, {"type", "sampling_time", "heading", "turn_rates",
                           "input_bound", "disturbance_mean",
                           "disturbance_covariance"}, "system")
        return make_dubins(
            _value(spec, "sampling_time", "system", default=0.1), horizon,
            _value(spec, "heading", "system", default=0.3141592653589793),
            _value(spec, "turn_rates", "system", list),
            _value(spec, "input_bound", "system", default=10.0),
            mu_eta=_value(spec, "disturbance_mean", "system", list,
                          default=(0.0, 0.0)),
            cov_eta=_value(spec, "disturbance_covariance", "system", list,
                           default=None))
    if kind == "custom":
        _check_keys(spec, {"type", "A_seq", "B_seq", "disturbance",
                           "input_set"}, "system")
        dist = _require(spec, "disturbance", "system")
        _check_keys(dist, {"mean", "covariance"}, "system.disturbance")
        gd = GaussianDisturbance.iid(
            _value(dist, "mean", "system.disturbance", list),
            _value(dist, "covariance", "system.disturbance", list), horizon)
        iset = spec.get("input_set")
        return StochasticLTVSystem(
            A_seq=_value(spec, "A_seq", "system", list),
            B_seq=_value(spec, "B_seq", "system", list), disturbance=gd,
            input_set=None if iset is None
            else _polytope(iset, "system.input_set"),
            horizon=horizon)
    raise ConfigError(f"unknown system type {kind!r}")


def build_tube(spec: dict, sys: StochasticLTVSystem) -> TargetTube:
    kind = _require(spec, "type", "tube")
    horizon = sys.horizon
    if kind == "viability":
        _check_keys(spec, {"type", "half_width", "terminal_half_width"},
                    "tube")
        return viability_tube(
            sys.state_dim, _value(spec, "half_width", "tube"), horizon,
            _value(spec, "terminal_half_width", "tube", default=None))
    if kind == "shrinking-box":
        _check_keys(spec, {"type", "base_half_width", "decay"}, "tube")
        base = _value(spec, "base_half_width", "tube")
        decay = _value(spec, "decay", "tube")
        return TargetTube([box_polytope(np.zeros(sys.state_dim),
                                        [base * decay ** k] * sys.state_dim)
                           for k in range(horizon + 1)])
    if kind == "cwh-los":
        _check_keys(spec, {"type"}, "tube")
        return cwh_los_tube(horizon)
    if kind == "dubins-nominal":
        _check_keys(spec, {"type", "delta", "decay_steps",
                           "base_half_width"}, "tube")
        return nominal_dubins_tube(
            sys, _value(spec, "delta", "tube", default=0.7),
            decay_steps=_value(spec, "decay_steps", "tube", default=100.0),
            base_half_width=_value(spec, "base_half_width", "tube",
                                   default=4.0))
    if kind == "explicit":
        _check_keys(spec, {"type", "sets"}, "tube")
        sets = _require(spec, "sets", "tube")
        if not isinstance(sets, list):
            raise ConfigError(f"tube.sets must be a list, not {sets!r}")
        return TargetTube([_polytope(s, f"tube.sets[{k}]")
                           for k, s in enumerate(sets)])
    raise ConfigError(f"unknown tube type {kind!r}")


_TOP_KEYS = {"system", "tube", "horizon", "alphas", "directions",
             "anchor_mode", "seed", "pwa", "output_dir", "dp", "validation"}
# the optional sections, their keys and the kind of number each holds; the
# slice is a pair of state indices
_SECTIONS = {"directions": {"count": int, "slice": None},
             "pwa": {"tolerance": float, "delta_lb": float},
             "dp": {"state_spacing": float, "input_spacing": float},
             "validation": {"n_traj": int, "seed": int}}


def load_config(path: str) -> dict:
    """The config at path, with every number of its top level and of its
    optional sections checked and converted by _number."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("system", "tube", "horizon", "alphas"):
        _require(cfg, key, "config")
    if not isinstance(cfg["alphas"], list) or not cfg["alphas"]:
        raise ConfigError("alphas must be a nonempty list")
    cfg["alphas"] = [_number(a, float, "alpha") for a in cfg["alphas"]]
    for a in cfg["alphas"]:
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"alpha {a} outside (0, 1]")
    cfg["horizon"] = _number(cfg["horizon"], int, "horizon")
    if cfg["horizon"] < 1:
        raise ConfigError("horizon must be >= 1")
    cfg["seed"] = _number(cfg.get("seed", 0), int, "seed")
    anchor_mode = cfg.get("anchor_mode", "cheby")
    if anchor_mode not in ("cheby", "xmax"):
        raise ConfigError(f"unknown anchor_mode {anchor_mode!r}")
    for section, kinds in _SECTIONS.items():
        node = cfg.setdefault(section, {})
        _check_keys(node, kinds, section)
        for key, value in node.items():
            if key != "slice":
                node[key] = _number(value, kinds[key], f"{section}.{key}")
    slice_dims = cfg["directions"].get("slice")
    if slice_dims is not None:
        if not isinstance(slice_dims, list) or len(slice_dims) != 2:
            raise ConfigError("directions.slice must be a pair of state "
                              f"indices, not {slice_dims!r}")
        cfg["directions"]["slice"] = [_number(d, int, "directions.slice")
                                      for d in slice_dims]
    for name, seed in (("seed", cfg["seed"]),
                       ("validation.seed", cfg["validation"].get("seed", 0))):
        if seed < 0:
            raise ConfigError(f"{name} must be >= 0, not {seed}")
    output_dir = cfg.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string, not "
                          f"{output_dir!r}")
    return cfg


def _problem(cfg: dict):
    """System, tube and directions of a config as load_config returns
    it."""
    sys = build_system(cfg["system"], cfg["horizon"])
    tube = build_tube(cfg["tube"], sys)
    dirs_cfg = cfg.get("directions", {})
    directions = spread_directions(
        dirs_cfg.get("count", 8 if sys.state_dim != 1 else 2),
        sys.state_dim,
        dirs_cfg.get("slice", (0, 1) if sys.state_dim > 2 else None))
    return sys, tube, directions


def _instantiate(cfg: dict, costs: Optional[Dict[str, float]] = None):
    """_problem's system, tube and directions, and the config's PWA
    envelope; costs, when given, gets the envelope's build seconds, piece
    count and secant-gap evaluations."""
    sys, tube, directions = _problem(cfg)
    pwa_cfg = cfg.get("pwa", {})
    start = time.perf_counter()
    pwa = build_pwa_quantile(delta_lb=pwa_cfg.get("delta_lb", 1e-6),
                             tol=pwa_cfg.get("tolerance", 1e-3))
    if costs is not None:
        costs.update(envelope=time.perf_counter() - start,
                     envelope_pieces=len(pwa),
                     envelope_evaluations=pwa.evaluations)
    return sys, tube, directions, pwa


def _alpha_tag(alpha: float) -> str:
    """The file name part for a threshold: 0.6 -> alpha0p6."""
    return f"alpha{alpha:g}".replace(".", "p")


def _read_result(path) -> reachalgo.ReachSetResult:
    """A result file as `compute` writes it; a malformed one raises
    ValueError naming the file."""
    return _read(path, reachalgo.ReachSetResult.from_json)


def _read(path, reader):
    """reader applied to the text of a file; a ValueError it raises
    names the file."""
    return _naming([path], reader, Path(path).read_text())


def _naming(paths, fn, *args):
    """fn(*args); a ValueError it raises names the files in paths."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{', '.join(map(str, paths))}: {exc}") from None


def _timings(text) -> Dict[str, Dict[str, float]]:
    """The timings sidecar: numbers by name, by threshold (seconds by
    phase, simplex iterations, LP sizes), and the envelope's build under
    "setup"."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and all(
            isinstance(phases, dict) and all(
                isinstance(s, (int, float)) and not isinstance(s, bool)
                for s in phases.values()) for phases in doc.values())):
        raise ValueError("timings are not numbers by name by threshold")
    return doc


def cmd_compute(args) -> int:
    cfg = load_config(args.config)
    setup: Dict[str, float] = {}
    sys, tube, directions, pwa = _instantiate(cfg, setup)
    outdir = args.output_dir or cfg.get("output_dir", ".")
    any_empty = False
    timings: Dict[str, Dict[str, float]] = {"setup": setup}
    for alpha in cfg["alphas"]:
        res = reachalgo.compute_reach_set(
            sys, tube, alpha, directions,
            anchor_mode=cfg.get("anchor_mode", "cheby"), pwa=pwa,
            jobs=args.jobs)
        if res.status == "solver_failure":
            log.error("solver failure at alpha=%s: %s", alpha, res.diagnostic)
            return EXIT_SOLVER_FAILURE
        statuses = {bp.status for bp in res.boundary_points}
        if "solver_failure" in statuses and "ok" not in statuses:
            log.error("solver failure at alpha=%s: no line search "
                      "succeeded; the set would be the anchor alone", alpha)
            return EXIT_SOLVER_FAILURE
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, f"reach_{_alpha_tag(alpha)}")
        jpath = base + ".json"
        Path(jpath).write_text(res.to_json())
        # timings go to a sidecar that each run overwrites, so the other
        # artifacts stay byte-identical across reruns
        timings[f"{alpha:g}"] = res.timings
        _write_json(os.path.join(outdir, "timings.json"), timings)
        if res.is_empty:
            any_empty = True
            log.warning("alpha=%s: empty set (%s); certificate at %s",
                        alpha, res.diagnostic, jpath)
            continue
        _write_csv(base + "_vertices.csv",
                   ["index", "status", "theta", "lower_bound"]
                   + [f"x{i}" for i in range(res.polytope.dim)],
                   ([i, bp.status, bp.theta, bp.lower_bound, *bp.point]
                    for i, bp in enumerate(res.boundary_points)))
        if res.polytope.dim >= 2:
            _boundary_csv(base + "_boundary.csv", res.polytope,
                          directions.slice_dims)
        log.info("alpha=%s: %d vertices -> %s", alpha,
                 res.polytope.n_vertices, jpath)
    return EXIT_EMPTY_SET if any_empty else EXIT_OK


def _boundary_csv(path, polytope: VPolytope, slice_dims) -> None:
    """Closed 2D boundary loop for plotting (slice coordinates)."""
    i, j = slice_dims if slice_dims else (0, 1)
    pts = polytope.vertices[:, [i, j]]
    center = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - center[1],
                                  pts[:, 0] - center[0]))
    _write_csv(path, [f"x{i}", f"x{j}"],
               np.vstack([pts[order], pts[order][:1]]))


def _write_csv(path, header, rows) -> None:
    """A CSV artifact: the header, then each row, with strings and ints
    as they are and every other number as .12g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([v if isinstance(v, (str, int)) else f"{v:.12g}"
                     for v in row] for row in rows)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def cmd_interpolate(args) -> int:
    set1, set2 = _read_result(args.set1), _read_result(args.set2)
    if set1.alpha > set2.alpha:
        set1, set2 = set2, set1
    t0 = time.perf_counter()
    poly = _naming([args.set1, args.set2], reachalgo.interpolate_sets,
                   set1, set2, args.beta)
    elapsed = time.perf_counter() - t0
    gamma = reachalgo.interpolation_weight(set1.alpha, set2.alpha, args.beta)
    out = args.output or "interpolated.json"
    _write_json(out, {"beta": args.beta, "alpha1": set1.alpha,
                      "alpha2": set2.alpha, "gamma": gamma,
                      "vertices": poly.vertices.tolist()})
    print(f"gamma={gamma:.6f} vertices={poly.n_vertices} "
          f"elapsed={elapsed:.4f}s -> {out}")
    return EXIT_OK


def cmd_dp(args) -> int:
    cfg = load_config(args.config)
    sys, tube, _ = _problem(cfg)
    table = reachalgo.dp_values(sys, tube,
                                cfg["dp"].get("state_spacing", 0.05),
                                cfg["dp"].get("input_spacing", 0.05))
    outdir = args.output_dir or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    mesh = np.meshgrid(*table.grids, indexing="ij")
    _write_csv(os.path.join(outdir, "dp_values.csv"),
               [f"x{i}" for i in range(len(table.grids))]
               + [f"V{k}" for k in range(len(table.values))],
               np.stack([m.ravel() for m in mesh]
                        + [v.ravel() for v in table.values], axis=1))
    for alpha in cfg["alphas"]:
        mask, polygon = reachalgo.dp_level_set(table, alpha)
        if polygon is not None:
            _write_csv(os.path.join(outdir,
                                    f"dp_level_{_alpha_tag(alpha)}.csv"),
                       ["x0", "x1"], polygon.vertices)
        log.info("alpha=%s: %d cells above threshold", alpha,
                 int(mask.sum()))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    # the envelope is built though nothing here reads it yet, so that
    # validate refuses the pwa settings that compute refuses
    sys, tube, _, _ = _instantiate(cfg)
    result = _read_result(args.result)
    if result.is_empty:
        log.error("result artifact holds an empty set; nothing to validate")
        return EXIT_EMPTY_SET
    val_cfg = cfg["validation"]
    n_traj = args.n_traj if args.n_traj is not None \
        else val_cfg.get("n_traj", 100000)
    seed = val_cfg.get("seed", cfg["seed"])
    report = _naming([args.result], montecarlo.validate_vertices, result,
                     sys, tube, n_traj, seed)
    outdir = args.output_dir or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, "validation")
    Path(base + ".json").write_text(report.to_json())
    _write_csv(base + ".csv", [f"x{i}" for i in range(result.polytope.dim)]
               + ["empirical_probability", "binomial_std", "error"],
               ([*r.point, r.empirical_probability, r.binomial_std, r.error]
                for r in report.records))
    print(f"vertices={len(report.records)} mean_error={report.mean_error:.6f}"
          f" std_error={report.std_error:.6f}"
          f" pooled_binomial_std={report.pooled_binomial_std:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    merged: Dict[str, object] = {"results": [], "validation": None}
    times = {}
    tpath = os.path.join(args.dir, "timings.json")
    if os.path.exists(tpath):
        times = _read(tpath, _timings)
    merged["setup"] = times.get("setup")
    for name in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, name)
        if name.startswith("reach_") and name.endswith(".json"):
            res = _read_result(path)
            merged["results"].append({
                "alpha": res.alpha, "status": res.status,
                "n_vertices": None if res.is_empty
                else res.polytope.n_vertices,
                "timings": times.get(f"{res.alpha:g}", {}),
            })
        elif name == "validation.json":
            report = _read(path, montecarlo.ValidationReport.from_json)
            merged["validation"] = {
                "mean_error": report.mean_error,
                "std_error": report.std_error, "n_traj": report.n_traj,
                "pooled_binomial_std": report.pooled_binomial_std}
    _write_json(os.path.join(args.dir, "summary.json"), merged)
    setup = merged["setup"] or {}
    if "envelope" in setup:
        print(f"setup envelope={setup['envelope']:.4f}s "
              f"pieces={setup.get('envelope_pieces', 'n/a')} "
              f"evaluations={setup.get('envelope_evaluations', 'n/a')}")
    for row in merged["results"]:
        spent = row["timings"]
        total = spent.get("total")
        shown = "n/a" if total is None else f"{total:.4f}s"
        phases = "".join(f" {phase}={spent[phase]:.4f}s" for phase in
                         ("assemble", "anchor", "anchor_solve", "searches",
                          "search_solve", "hull")
                         if phase in spent)
        print(f"alpha={row['alpha']:g} status={row['status']} "
              f"vertices={row['n_vertices']} time={shown}{phases}")
    return EXIT_OK


_EXAMPLES: Dict[str, dict] = {
    "integrator2": {
        "system": {"type": "integrator", "dimension": 2,
                   "sampling_time": 0.1, "covariance": 0.01,
                   "input_bound": 0.1},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 10,
        "alphas": [0.6, 0.9],
        "directions": {"count": 32},
        "dp": {"state_spacing": 0.05, "input_spacing": 0.05},
        "seed": 0,
    },
    "integrator40": {
        "system": {"type": "integrator", "dimension": 40,
                   "sampling_time": 0.1, "covariance": 0.01,
                   "input_bound": 1.0},
        "tube": {"type": "viability", "half_width": 10.0,
                 "terminal_half_width": 8.0},
        "horizon": 5,
        "alphas": [0.6, 0.9],
        "directions": {"count": 8, "slice": [0, 1]},
        "validation": {"n_traj": 10000},
        "seed": 0,
    },
    "stochy-uncontrolled": {
        "system": {"type": "uncontrolled", "dimension": 2, "gain": 0.8,
                   "covariance": 0.05},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 10,
        "alphas": [0.6],
        "directions": {"count": 8},
        "seed": 0,
    },
    "cwh": {
        "system": {"type": "cwh"},
        "tube": {"type": "cwh-los"},
        "horizon": 5,
        "alphas": [0.8],
        "directions": {"count": 8, "slice": [0, 1]},
        "validation": {"n_traj": 100000},
        "seed": 0,
    },
    "dubins": {
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
        "seed": 0,
    },
}


def cmd_example(args) -> int:
    if args.name not in _EXAMPLES:
        log.error("unknown example %r; choose from %s", args.name,
                  sorted(_EXAMPLES))
        return EXIT_BAD_CONFIG
    out = args.output or f"{args.name}.json"
    _write_json(out, _EXAMPLES[args.name])
    print(out)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubereach",
        description="Polytopic underapproximations of stochastic reach "
                    "sets with open-loop controller synthesis.")
    parser.add_argument("--verbose", "-v", action="count", default=0,
                        help="increase log verbosity (-v, -vv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write a ready-made config file")
    p.add_argument("name", help="|".join(sorted(_EXAMPLES)))
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("compute", help="run the reach-set computation")
    p.add_argument("config")
    p.add_argument("--output-dir", "-d")
    p.add_argument("--jobs", "-j", type=int, default=1)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("interpolate",
                       help="interpolate two computed sets to a "
                            "threshold in between")
    p.add_argument("--set1", required=True)
    p.add_argument("--set2", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("dp", help="grid dynamic-programming baseline")
    p.add_argument("config")
    p.add_argument("--output-dir", "-d")
    p.set_defaults(func=cmd_dp)

    p = sub.add_parser("validate",
                       help="Monte-Carlo check of a computed result")
    p.add_argument("config")
    p.add_argument("--result", required=True)
    p.add_argument("--n-traj", type=int)
    p.add_argument("--output-dir", "-d")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="summarize artifacts in a directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means an empty reach set
        # here; --help exits 0
        return EXIT_BAD_CONFIG if exc.code else EXIT_OK
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=_sys.stderr, level=level,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError, the library's own input validation and any I/O
        # error (missing or unreadable inputs, unwritable outputs) alike;
        # solver failures return EXIT_SOLVER_FAILURE explicitly
        log.error("%s", exc)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
