"""Config-driven command line front end.

Subcommands: example (write a ready-made config), compute (polytopic
underapproximation), interpolate (cross-threshold set), dp (grid
baseline), validate (Monte-Carlo vertex check), report (merge artifacts).
The config's seed seeds validation, the one random part, so reruns
reproduce byte-identical artifacts.  A config key left out takes the
default of the function that receives it.
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
from .reachalgo import ReachSetResult
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
    if unknown := set(node) - set(allowed):
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
        raise ConfigError(f"{where} must be an integer, not {value}")
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


def _value(value, kind, where: str):
    """A config value as kind: through _number for int and float, through
    _numbers for list, as it is for None."""
    if kind is None:
        return value
    return _numbers(value, where) if kind is list else \
        _number(value, kind, where)


# the default of a key that, left out, is not passed on, so that the
# function receiving it applies its own
_PASS = object()


def _fields(node: dict, where: str, **keys) -> dict:
    """The keys of a config object, each read by _value.  keys declares
    every key it may hold: its kind (int, float, list for a list of
    numbers, None for the value as it is) or, if it may be left out,
    (kind, default); a default of _PASS leaves it out of the result."""
    _check_keys(node, keys, where)
    fields = {}
    for key, kind in keys.items():
        kind, default = kind if isinstance(kind, tuple) else (kind, _REQUIRED)
        if key in node or default is _REQUIRED:
            fields[key] = _value(_require(node, key, where), kind,
                                 f"{where}.{key}")
        elif default is not _PASS:
            fields[key] = default
    return fields


def _passed(fields: dict, *names, **renamed) -> dict:
    """Keyword arguments from those of fields that a config sets: each
    of names under its own name, each key of renamed under the name it
    maps to."""
    params = {**{name: name for name in names}, **renamed}
    return {params[key]: v for key, v in fields.items() if key in params}


def _polytope(node: dict, where: str) -> HPolytope:
    return HPolytope(**_fields(node, where, normals=list, offsets=list))


def build_system(spec: dict, horizon: int) -> StochasticLTVSystem:
    kind = _require(spec, "type", "system")
    if kind == "integrator":
        f = _fields(spec, "system", type=None, dimension=int,
                    sampling_time=(float, 0.1), covariance=float,
                    input_bound=float)
        return make_integrator_chain(f["dimension"], f["sampling_time"],
                                     horizon, f["covariance"],
                                     f["input_bound"])
    if kind == "uncontrolled":
        f = _fields(spec, "system", type=None, dimension=int,
                    gain=(float, _PASS), covariance=(float, _PASS))
        return make_uncontrolled(f["dimension"], horizon=horizon,
                                 **_passed(f, "gain", covariance="cov"))
    if kind == "cwh":
        f = _fields(spec, "system", type=None, orbital_rate=(float, _PASS),
                    mass=(float, _PASS), sampling_time=(float, _PASS),
                    input_bound=(float, _PASS),
                    covariance_diagonal=(list, _PASS))
        return make_cwh(horizon=horizon, **_passed(
            f, "orbital_rate", "mass", "sampling_time", "input_bound",
            covariance_diagonal="cov_diag"))
    if kind == "dubins":
        f = _fields(spec, "system", type=None, sampling_time=(float, 0.1),
                    heading=(float, 0.3141592653589793), turn_rates=list,
                    input_bound=(float, 10.0),
                    disturbance_mean=(list, _PASS),
                    disturbance_covariance=(list, _PASS))
        return make_dubins(f["sampling_time"], horizon, f["heading"],
                           f["turn_rates"], f["input_bound"],
                           **_passed(f, disturbance_mean="mu_eta",
                                     disturbance_covariance="cov_eta"))
    if kind == "custom":
        f = _fields(spec, "system", type=None, A_seq=list, B_seq=list,
                    disturbance=None, input_set=(None, None))
        dist = _fields(f["disturbance"], "system.disturbance", mean=list,
                       covariance=list)
        return StochasticLTVSystem(
            A_seq=f["A_seq"], B_seq=f["B_seq"],
            disturbance=GaussianDisturbance.iid(
                dist["mean"], dist["covariance"], horizon),
            input_set=None if f["input_set"] is None
            else _polytope(f["input_set"], "system.input_set"),
            horizon=horizon)
    raise ConfigError(f"unknown system type {kind!r}")


def build_tube(spec: dict, sys: StochasticLTVSystem) -> TargetTube:
    kind = _require(spec, "type", "tube")
    horizon = sys.horizon
    if kind == "viability":
        f = _fields(spec, "tube", type=None, half_width=float,
                    terminal_half_width=(float, _PASS))
        return viability_tube(sys.state_dim, f["half_width"], horizon,
                              **_passed(f, "terminal_half_width"))
    if kind == "shrinking-box":
        f = _fields(spec, "tube", type=None, base_half_width=float,
                    decay=float)
        return TargetTube([box_polytope(
            np.zeros(sys.state_dim),
            [f["base_half_width"] * f["decay"] ** k] * sys.state_dim)
            for k in range(horizon + 1)])
    if kind == "cwh-los":
        _fields(spec, "tube", type=None)
        return cwh_los_tube(horizon)
    if kind == "dubins-nominal":
        f = _fields(spec, "tube", type=None, delta=(float, 0.7),
                    decay_steps=(float, _PASS),
                    base_half_width=(float, _PASS))
        return nominal_dubins_tube(sys, f["delta"], **_passed(
            f, "decay_steps", "base_half_width"))
    if kind == "explicit":
        sets = _fields(spec, "tube", type=None, sets=None)["sets"]
        if not isinstance(sets, list):
            raise ConfigError(f"tube.sets must be a list, not {sets!r}")
        return TargetTube([_polytope(s, f"tube.sets[{k}]")
                           for k, s in enumerate(sets)])
    raise ConfigError(f"unknown tube type {kind!r}")


# the optional sections: each key's kind and its default (all may be left
# out); the slice is a pair of state indices
_SECTIONS = {"directions": {"count": (int, 8), "slice": (list, (0, 1))},
             "pwa": {"tolerance": (float, _PASS), "delta_lb": (float, _PASS)},
             "dp": {"state_spacing": (float, 0.05),
                    "input_spacing": (float, 0.05)},
             "validation": {"n_traj": (int, 100000)}}


def _section(cfg: dict, name: str) -> dict:
    """An optional section of a config, read through its declaration."""
    return _fields(cfg.get(name, {}), name, **_SECTIONS[name])


def load_config(path: str) -> dict:
    """The config at path, its top level read by _fields and checked; its
    optional sections are checked here and read where they are used."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _fields(cfg, "config", system=None, tube=None, horizon=int,
                  alphas=None, seed=(int, _PASS), anchor_mode=(None, _PASS),
                  output_dir=(None, "."),
                  **{name: (None, _PASS) for name in _SECTIONS})
    if not isinstance(cfg["alphas"], list) or not cfg["alphas"]:
        raise ConfigError("alphas must be a nonempty list")
    cfg["alphas"] = [_number(a, float, "alpha") for a in cfg["alphas"]]
    named = {}
    for a in cfg["alphas"]:
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"alpha {a} outside (0, 1]")
        if _threshold(a) in named:
            raise ConfigError(f"alphas {named[_threshold(a)]} and {a} share "
                              f"the name {_alpha_tag(a)}, so their "
                              "artifacts would collide")
        named[_threshold(a)] = a
    if cfg["horizon"] < 1:
        raise ConfigError("horizon must be >= 1")
    if "seed" in cfg and cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, not {cfg['seed']}")
    if cfg.get("anchor_mode") not in (None, "cheby", "xmax"):
        raise ConfigError(f"unknown anchor_mode {cfg['anchor_mode']!r}")
    for name in _SECTIONS:
        _section(cfg, name)
    if not isinstance(cfg["output_dir"], str) or not cfg["output_dir"]:
        raise ConfigError("output_dir must be a nonempty string, not "
                          f"{cfg['output_dir']!r}")
    return cfg


def _problem(cfg: dict):
    """System, tube and directions of a config."""
    sys = build_system(cfg["system"], cfg["horizon"])
    tube = build_tube(cfg["tube"], sys)
    dirs = _section(cfg, "directions")
    pair = [_number(d, int, "directions.slice") for d in dirs["slice"]]
    if len(pair) != 2:
        raise ConfigError("directions.slice must be a pair of state "
                          f"indices, not {pair}")
    return sys, tube, spread_directions(dirs["count"], sys.state_dim, pair)


def _instantiate(cfg: dict, costs: Optional[Dict[str, float]] = None):
    """_problem's system, tube and directions, and the config's PWA
    envelope; costs, when given, gets the envelope's build seconds, piece
    count and secant-gap evaluations."""
    sys, tube, directions = _problem(cfg)
    start = time.perf_counter()
    pwa = build_pwa_quantile(**_passed(_section(cfg, "pwa"), "delta_lb",
                                       tolerance="tol"))
    if costs is not None:
        costs.update(envelope=time.perf_counter() - start,
                     envelope_pieces=len(pwa),
                     envelope_evaluations=pwa.evaluations)
    return sys, tube, directions, pwa


def _threshold(alpha: float) -> str:
    """A threshold's name, in the CSVs' number format: the timings key,
    and the report's; a threshold of at most 6 significant digits reads
    as with :g."""
    return f"{alpha:.12g}"


def _alpha_tag(alpha: float) -> str:
    """The file name part for a threshold: 0.6 -> alpha0p6."""
    return "alpha" + _threshold(alpha).replace(".", "p")


def _read(path, reader):
    """reader applied to the text of a file; a ValueError it raises
    names the file."""
    return _naming([path], reader, Path(path).read_text())


def _naming(paths, fn, *args, **kwargs):
    """fn(*args, **kwargs); a ValueError it raises names paths' files."""
    try:
        return fn(*args, **kwargs)
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
    outdir = args.output_dir or cfg["output_dir"]
    any_empty = False
    timings: Dict[str, Dict[str, float]] = {"setup": setup}
    for alpha in cfg["alphas"]:
        res = reachalgo.compute_reach_set(
            sys, tube, alpha, directions, pwa=pwa, jobs=args.jobs,
            **_passed(cfg, "anchor_mode"))
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
        timings[_threshold(alpha)] = res.timings
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
    set1, set2 = (_read(path, ReachSetResult.from_json)
                  for path in (args.set1, args.set2))
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
    dp = _section(cfg, "dp")
    table = reachalgo.dp_values(sys, tube, dp["state_spacing"],
                                dp["input_spacing"])
    outdir = args.output_dir or cfg["output_dir"]
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
    result = _read(args.result, ReachSetResult.from_json)
    if result.is_empty:
        log.error("result artifact holds an empty set; nothing to validate")
        return EXIT_EMPTY_SET
    n_traj = args.n_traj if args.n_traj is not None \
        else _section(cfg, "validation")["n_traj"]
    report = _naming([args.result], montecarlo.validate_vertices, result,
                     sys, tube, n_traj, **_passed(cfg, "seed"))
    outdir = args.output_dir or cfg["output_dir"]
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
            res = _read(path, ReachSetResult.from_json)
            merged["results"].append({
                "alpha": res.alpha, "status": res.status,
                "n_vertices": None if res.is_empty
                else res.polytope.n_vertices,
                "timings": times.get(_threshold(res.alpha), {}),
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
        print(f"alpha={_threshold(row['alpha'])} status={row['status']} "
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
