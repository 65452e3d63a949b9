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
from .geometry import HPolytope, VPolytope, spread_directions
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
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(node: dict, key: str, where: str):
    if key not in node:
        raise ConfigError(f"missing key {key!r} in {where}")
    return node[key]


def build_system(spec: dict, horizon: int) -> StochasticLTVSystem:
    kind = _require(spec, "type", "system")
    if kind == "integrator":
        _check_keys(spec, {"type", "dimension", "sampling_time",
                           "covariance", "input_bound"}, "system")
        return make_integrator_chain(
            int(_require(spec, "dimension", "system")),
            float(spec.get("sampling_time", 0.1)), horizon,
            float(_require(spec, "covariance", "system")),
            float(_require(spec, "input_bound", "system")))
    if kind == "uncontrolled":
        _check_keys(spec, {"type", "dimension", "gain", "covariance"},
                    "system")
        return make_uncontrolled(int(_require(spec, "dimension", "system")),
                                 gain=float(spec.get("gain", 0.8)),
                                 cov=float(spec.get("covariance", 0.05)),
                                 horizon=horizon)
    if kind == "cwh":
        _check_keys(spec, {"type", "orbital_rate", "mass", "sampling_time",
                           "covariance_diagonal", "input_bound"}, "system")
        kwargs = {"horizon": horizon}
        if "orbital_rate" in spec:
            kwargs["orbital_rate"] = float(spec["orbital_rate"])
        if "mass" in spec:
            kwargs["mass"] = float(spec["mass"])
        if "sampling_time" in spec:
            kwargs["sampling_time"] = float(spec["sampling_time"])
        if "covariance_diagonal" in spec:
            kwargs["cov_diag"] = [float(v) for v in spec["covariance_diagonal"]]
        if "input_bound" in spec:
            kwargs["input_bound"] = float(spec["input_bound"])
        return make_cwh(**kwargs)
    if kind == "dubins":
        _check_keys(spec, {"type", "sampling_time", "heading", "turn_rates",
                           "input_bound", "disturbance_mean",
                           "disturbance_covariance"}, "system")
        cov = spec.get("disturbance_covariance")
        return make_dubins(float(spec.get("sampling_time", 0.1)), horizon,
                           float(spec.get("heading", 0.3141592653589793)),
                           [float(v) for v in _require(spec, "turn_rates",
                                                       "system")],
                           float(spec.get("input_bound", 10.0)),
                           mu_eta=spec.get("disturbance_mean", (0.0, 0.0)),
                           cov_eta=None if cov is None else np.asarray(cov))
    if kind == "custom":
        _check_keys(spec, {"type", "A_seq", "B_seq", "disturbance",
                           "input_set"}, "system")
        dist = _require(spec, "disturbance", "system")
        _check_keys(dist, {"mean", "covariance"}, "system.disturbance")
        gd = GaussianDisturbance.iid(np.asarray(dist["mean"], dtype=float),
                                     np.asarray(dist["covariance"],
                                                dtype=float), horizon)
        iset = spec.get("input_set")
        input_set = None if iset is None else HPolytope(
            normals=np.asarray(iset["normals"], dtype=float),
            offsets=np.asarray(iset["offsets"], dtype=float))
        return StochasticLTVSystem(
            A_seq=[np.asarray(a, dtype=float) for a in spec["A_seq"]],
            B_seq=[np.asarray(b, dtype=float) for b in spec["B_seq"]],
            disturbance=gd, input_set=input_set, horizon=horizon)
    raise ConfigError(f"unknown system type {kind!r}")


def build_tube(spec: dict, sys: StochasticLTVSystem) -> TargetTube:
    kind = _require(spec, "type", "tube")
    horizon = sys.horizon
    if kind == "viability":
        _check_keys(spec, {"type", "half_width", "terminal_half_width"},
                    "tube")
        term = spec.get("terminal_half_width")
        return viability_tube(sys.state_dim,
                              float(_require(spec, "half_width", "tube")),
                              horizon,
                              None if term is None else float(term))
    if kind == "shrinking-box":
        _check_keys(spec, {"type", "base_half_width", "decay"}, "tube")
        base = float(_require(spec, "base_half_width", "tube"))
        decay = float(_require(spec, "decay", "tube"))
        from .geometry import box_polytope
        return TargetTube([box_polytope(np.zeros(sys.state_dim),
                                        [base * decay ** k] * sys.state_dim)
                           for k in range(horizon + 1)])
    if kind == "cwh-los":
        _check_keys(spec, {"type"}, "tube")
        return cwh_los_tube(horizon)
    if kind == "dubins-nominal":
        _check_keys(spec, {"type", "delta", "decay_steps",
                           "base_half_width"}, "tube")
        return nominal_dubins_tube(sys, float(spec.get("delta", 0.7)),
                                   decay_steps=float(
                                       spec.get("decay_steps", 100.0)),
                                   base_half_width=float(
                                       spec.get("base_half_width", 4.0)))
    if kind == "explicit":
        _check_keys(spec, {"type", "sets"}, "tube")
        sets = [HPolytope(normals=np.asarray(s["normals"], dtype=float),
                          offsets=np.asarray(s["offsets"], dtype=float))
                for s in _require(spec, "sets", "tube")]
        return TargetTube(sets)
    raise ConfigError(f"unknown tube type {kind!r}")


_TOP_KEYS = {"system", "tube", "horizon", "alphas", "directions",
             "anchor_mode", "seed", "pwa", "output_dir", "dp", "validation"}


def load_config(path: str) -> dict:
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
    for a in cfg["alphas"]:
        if not (0.0 < float(a) <= 1.0):
            raise ConfigError(f"alpha {a} outside (0, 1]")
    if int(cfg["horizon"]) < 1:
        raise ConfigError("horizon must be >= 1")
    anchor_mode = cfg.get("anchor_mode", "cheby")
    if anchor_mode not in ("cheby", "xmax"):
        raise ConfigError(f"unknown anchor_mode {anchor_mode!r}")
    dirs = cfg.get("directions", {})
    _check_keys(dirs, {"count", "slice"}, "directions")
    pwa = cfg.get("pwa", {})
    _check_keys(pwa, {"tolerance", "delta_lb"}, "pwa")
    return cfg


def _instantiate(cfg: dict):
    horizon = int(cfg["horizon"])
    sys = build_system(cfg["system"], horizon)
    tube = build_tube(cfg["tube"], sys)
    dirs_cfg = cfg.get("directions", {})
    count = int(dirs_cfg.get("count", 8 if sys.state_dim != 1 else 2))
    slice_dims = dirs_cfg.get("slice")
    if slice_dims is not None:
        slice_dims = (int(slice_dims[0]), int(slice_dims[1]))
    elif sys.state_dim > 2:
        slice_dims = (0, 1)
    directions = spread_directions(count, sys.state_dim, slice_dims)
    pwa_cfg = cfg.get("pwa", {})
    pwa = build_pwa_quantile(delta_lb=float(pwa_cfg.get("delta_lb", 1e-6)),
                             tol=float(pwa_cfg.get("tolerance", 1e-3)))
    return sys, tube, directions, pwa


def _alpha_tag(alpha: float) -> str:
    """The file name part for a threshold: 0.6 -> alpha0p6."""
    return f"alpha{alpha:g}".replace(".", "p")


def _result_paths(outdir: str, alpha: float):
    tag = _alpha_tag(alpha)
    return (os.path.join(outdir, f"reach_{tag}.json"),
            os.path.join(outdir, f"reach_{tag}_vertices.csv"),
            os.path.join(outdir, f"reach_{tag}_boundary.csv"))


def _read_result(path) -> reachalgo.ReachSetResult:
    """A result file as `compute` writes it; a malformed one raises
    ValueError naming the file."""
    text = Path(path).read_text()
    try:
        return reachalgo.ReachSetResult.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_compute(args) -> int:
    cfg = load_config(args.config)
    sys, tube, directions, pwa = _instantiate(cfg)
    outdir = args.output_dir or cfg.get("output_dir", ".")
    any_empty = False
    timings: Dict[str, Dict[str, float]] = {}
    for alpha in cfg["alphas"]:
        alpha = float(alpha)
        res = reachalgo.compute_reach_set(
            sys, tube, alpha, directions,
            anchor_mode=cfg.get("anchor_mode", "cheby"), pwa=pwa,
            jobs=args.jobs)
        if res.anchor.status == "solver_failure":
            log.error("solver failure at alpha=%s: %s", alpha,
                      res.anchor.diagnostic)
            return EXIT_SOLVER_FAILURE
        statuses = {bp.status for bp in res.boundary_points}
        if "solver_failure" in statuses and "ok" not in statuses:
            log.error("solver failure at alpha=%s: no line search "
                      "succeeded; the set would be the anchor alone", alpha)
            return EXIT_SOLVER_FAILURE
        os.makedirs(outdir, exist_ok=True)
        jpath, vpath, bpath = _result_paths(outdir, alpha)
        with open(jpath, "w") as fh:
            fh.write(res.to_json())
        # timings go to a sidecar that each run overwrites, so the other
        # artifacts stay byte-identical across reruns
        timings[f"{alpha:g}"] = res.timings
        with open(os.path.join(outdir, "timings.json"), "w") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
        if res.is_empty:
            any_empty = True
            log.warning("alpha=%s: empty set (%s); certificate at %s",
                        alpha, res.diagnostic, jpath)
            continue
        res.vertex_csv(vpath)
        if res.polytope.dim >= 2:
            _boundary_csv(bpath, res.polytope, directions.slice_dims)
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
    loop = np.vstack([pts[order], pts[order][:1]])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}", f"x{j}"])
        for p in loop:
            w.writerow([f"{v:.12g}" for v in p])


def cmd_interpolate(args) -> int:
    set1, set2 = _read_result(args.set1), _read_result(args.set2)
    if set1.alpha > set2.alpha:
        set1, set2 = set2, set1
    try:
        t0 = time.perf_counter()
        poly = reachalgo.interpolate_sets(set1, set2, args.beta)
        elapsed = time.perf_counter() - t0
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_BAD_CONFIG
    gamma = reachalgo.interpolation_weight(set1.alpha, set2.alpha, args.beta)
    out = args.output or "interpolated.json"
    with open(out, "w") as fh:
        json.dump({"beta": args.beta, "alpha1": set1.alpha,
                   "alpha2": set2.alpha, "gamma": gamma,
                   "vertices": poly.vertices.tolist()},
                  fh, indent=2, sort_keys=True)
    print(f"gamma={gamma:.6f} vertices={poly.n_vertices} "
          f"elapsed={elapsed:.4f}s -> {out}")
    return EXIT_OK


def cmd_dp(args) -> int:
    cfg = load_config(args.config)
    sys, tube, _, _ = _instantiate(cfg)
    dp_cfg = cfg.get("dp", {})
    _check_keys(dp_cfg, {"state_spacing", "input_spacing"}, "dp")
    try:
        table = reachalgo.dp_values(
            sys, tube, float(dp_cfg.get("state_spacing", 0.05)),
            float(dp_cfg.get("input_spacing", 0.05)))
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_BAD_CONFIG
    outdir = args.output_dir or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    table.to_csv(os.path.join(outdir, "dp_values.csv"))
    for alpha in cfg["alphas"]:
        mask, polygon = reachalgo.dp_level_set(table, float(alpha))
        if polygon is not None:
            path = os.path.join(outdir,
                                f"dp_level_{_alpha_tag(float(alpha))}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x0", "x1"])
                for p in polygon.vertices:
                    w.writerow([f"{v:.12g}" for v in p])
        log.info("alpha=%s: %d cells above threshold", alpha,
                 int(mask.sum()))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sys, tube, _, _ = _instantiate(cfg)
    result = _read_result(args.result)
    if result.is_empty:
        log.error("result artifact holds an empty set; nothing to validate")
        return EXIT_EMPTY_SET
    val_cfg = cfg.get("validation", {})
    _check_keys(val_cfg, {"n_traj", "seed"}, "validation")
    n_traj = args.n_traj if args.n_traj is not None \
        else int(val_cfg.get("n_traj", 100000))
    seed = int(val_cfg.get("seed", cfg.get("seed", 0)))
    report = montecarlo.validate_vertices(result, sys, tube, n_traj,
                                          seed=seed)
    outdir = args.output_dir or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, "validation")
    with open(base + ".json", "w") as fh:
        fh.write(report.to_json())
    report.to_csv(base + ".csv")
    print(f"vertices={len(report.records)} mean_error={report.mean_error:.6f}"
          f" std_error={report.std_error:.6f}"
          f" pooled_binomial_std={report.pooled_binomial_std:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    merged: Dict[str, object] = {"results": [], "validation": None}
    times = {}
    tpath = os.path.join(args.dir, "timings.json")
    if os.path.exists(tpath):
        with open(tpath) as fh:
            times = json.load(fh)
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
            with open(path) as fh:
                doc = json.load(fh)
            merged["validation"] = {"mean_error": doc["mean_error"],
                                    "std_error": doc["std_error"],
                                    "n_traj": doc["n_traj"],
                                    # absent from older validation.json
                                    "pooled_binomial_std":
                                        doc.get("pooled_binomial_std")}
    out = os.path.join(args.dir, "summary.json")
    with open(out, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    for row in merged["results"]:
        total = row["timings"].get("total")
        shown = "n/a" if total is None else f"{total:.4f}s"
        print(f"alpha={row['alpha']:g} status={row['status']} "
              f"vertices={row['n_vertices']} time={shown}")
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
    with open(out, "w") as fh:
        json.dump(_EXAMPLES[args.name], fh, indent=2, sort_keys=True)
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
