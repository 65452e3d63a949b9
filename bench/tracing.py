"""Spans around the library's layers, recorded from outside the library.

The tracer replaces module attributes (functions, and a few methods on
their classes) with wrappers that record a span per call: name, start,
end, parent span and a few attributes read from the arguments or the
result.  Every module of the package that binds the same function object
gets the wrapper, so callers that look the name up at call time are
traced wherever they import it from.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

SETUP, CYCLE = "setup", "cycle"
DESCRIBE = "tracing.describe"


def _lp_sizes(args, kwargs, out):
    prob, lp = out
    nnz = 0
    for pair in (lp.ineq, lp.eq):
        if pair is not None:
            a = pair[0]
            nnz += int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))
    slopes = np.array([s for s, _ in prob.pwa.pieces])
    icepts = np.array([c for _, c in prob.pwa.pieces])
    # neighbouring secants meet at their shared knot
    knots = np.concatenate([[prob.pwa.domain[0]],
                            np.diff(icepts) / -np.diff(slopes)])
    return {"mode": prob.mode, "rows": lp.n_rows, "cols": lp.n_vars,
            "nnz": nnz, "chance_rows": prob.n_risk * knots.size,
            "useful_rows": prob.n_risk * int(np.sum(knots < prob.delta_cap))}


def _line_ok(args, kwargs, out):
    return {"ok": out.status == "optimal"}


def _pieces(args, kwargs, out):
    return {"pieces": len(out.pieces)}


def _trajectories(fn):
    sig = inspect.signature(fn)

    def describe(args, kwargs, out):
        return {"n_traj": int(sig.bind(*args, **kwargs).arguments["n_traj"])}
    return describe


# (module, attribute path, span name, attribute reader factory)
TARGETS = [
    ("lpsolve", "simplex_solve", "lpsolve.simplex_solve", None),
    ("lpsolve", "highs_solve", "lpsolve.highs_solve", None),
    ("chance", "build_risk_lp", "chance.build_risk_lp", lambda f: _lp_sizes),
    ("chance", "solve_anchor_cheby", "chance.solve_anchor_cheby", None),
    ("chance", "solve_line_search", "chance.solve_line_search",
     lambda f: _line_ok),
    ("sysmodel", "concat_matrices", "sysmodel.concat_matrices", None),
    ("sysmodel", "TargetTube.__post_init__", "sysmodel.TargetTube", None),
    ("geometry", "HPolytope.is_bounded", "geometry.is_bounded", None),
    ("geometry", "HPolytope.is_empty", "geometry.is_empty", None),
    ("geometry", "convex_hull_2d", "geometry.convex_hull_2d", None),
    ("geometry", "prune_vertices", "geometry.prune_vertices", None),
    ("gaussian", "build_pwa_quantile", "gaussian.build_pwa_quantile",
     lambda f: _pieces),
    ("reachalgo", "compute_reach_set", "reachalgo.compute_reach_set", None),
    ("reachalgo", "interpolate_sets", "reachalgo.interpolate_sets", None),
    ("montecarlo", "simulate_reach_prob", "montecarlo.simulate_reach_prob",
     _trajectories),
]


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent,
    attrs].  Spans opened on a worker thread with no open span of their
    own take the innermost open span of the tracer's thread as parent: the
    library's pool runs searches on workers while the caller waits."""

    def __init__(self):
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: List[int] = []
        self._local.stack = self._owner_stack
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str,
             describe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                with self.span(DESCRIBE):
                    try:
                        self.spans[idx][4] = describe(args, kwargs, out)
                    except (AttributeError, TypeError, ValueError, KeyError) as exc:
                        # the layer's types changed; its derived figures read 0
                        self.spans[idx][4] = {"error": repr(exc)}
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore on exit."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "tubereach" or n.startswith("tubereach.")]
        try:
            for mod_name, path, span_name, reader in TARGETS:
                self._install(loaded, mod_name, path, span_name, reader)
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def _install(self, loaded, mod_name, path, span_name, reader) -> None:
        owner = importlib.import_module(f"tubereach.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            return  # the layer no longer exists; its metrics read 0
        wrapper = self.wrap(orig, span_name,
                            None if reader is None else reader(orig))
        homes = [owner] if outer else [m for m in loaded
                                       if getattr(m, attr, None) is orig]
        for home in homes:
            self._patches.append((home, attr, orig))
            setattr(home, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


class _Root:
    """Totals of one setup build or one cycle."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.secs: Dict[str, float] = {}
        self.self_secs: Dict[str, float] = {}
        self.attrs: Dict[str, list] = {}
        self.compute_children = 0.0  # time in direct children of computes

    def add(self, key: str, dur: float, self_dur: float, attrs) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1
        self.secs[key] = self.secs.get(key, 0.0) + dur
        self.self_secs[key] = self.self_secs.get(key, 0.0) + self_dur
        if attrs is not None and "error" not in attrs:
            self.attrs.setdefault(key, []).append(attrs)


def _caller(spans, idx) -> str:
    """Package module of the nearest traced ancestor outside lpsolve."""
    parent = spans[idx][3]
    while parent is not None:
        name = spans[parent][0]
        module = name.split(".")[0]
        if module in ("chance", "geometry"):
            return module
        if name in (SETUP, CYCLE):
            break
        parent = spans[parent][3]
    return "other"


def _roots(spans) -> Dict[int, _Root]:
    children: Dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    root_of: Dict[int, Optional[int]] = {}
    roots: Dict[int, _Root] = {}
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        if parent is None:
            root_of[idx] = idx if name in (SETUP, CYCLE) else None
            if root_of[idx] is not None:
                roots[idx] = _Root()
            continue
        root = root_of[idx] = root_of[parent]
        if root is None or name == DESCRIBE:
            continue
        key = name
        if name == "lpsolve.simplex_solve":
            key = f"{name}.{_caller(spans, idx)}"
        dur = end - start
        roots[root].add(key, dur, dur - children.get(idx, 0.0), attrs)
        if spans[parent][0] == "reachalgo.compute_reach_set":
            roots[root].compute_children += dur
    return roots


def _med(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans) -> Dict[str, tuple]:
    """Per-layer figures: medians over cycles, or over setup builds for
    the layers that run while inputs are built."""
    roots = _roots(spans)
    cycles = [r for i, r in roots.items() if spans[i][0] == CYCLE]
    builds = [r for i, r in roots.items() if spans[i][0] == SETUP]
    out: Dict[str, tuple] = {}

    def calls(rs, key):
        return _med([r.calls.get(key, 0) for r in rs])

    def secs(rs, key):
        return _med([r.secs.get(key, 0.0) for r in rs])

    for caller in ("chance", "geometry"):
        key = f"lpsolve.simplex_solve.{caller}"
        out[f"{key}.calls"] = (calls(cycles, key), "count")
        out[f"{key}.s"] = (secs(cycles, key), "s")
    key = "lpsolve.simplex_solve.geometry"
    out[f"setup.{key}.calls"] = (calls(builds, key), "count")
    out[f"setup.{key}.s"] = (secs(builds, key), "s")
    for key in ("lpsolve.highs_solve", "chance.build_risk_lp",
                "chance.solve_line_search", "sysmodel.concat_matrices",
                "reachalgo.interpolate_sets", "montecarlo.simulate_reach_prob"):
        out[f"{key}.calls"] = (calls(cycles, key), "count")
        out[f"{key}.s"] = (secs(cycles, key), "s")
    for key in ("chance.solve_anchor_cheby", "geometry.convex_hull_2d",
                "geometry.prune_vertices", "reachalgo.compute_reach_set"):
        out[f"{key}.s"] = (secs(cycles, key), "s")
    out["chance.solve_line_search.self_s"] = (
        _med([r.self_secs.get("chance.solve_line_search", 0.0) for r in cycles]), "s")
    out["reachalgo.compute_reach_set.self_s"] = (
        _med([r.self_secs.get("reachalgo.compute_reach_set", 0.0) for r in cycles]), "s")
    out["reachalgo.compute_reach_set.covered_frac"] = (_med([
        r.compute_children / r.secs["reachalgo.compute_reach_set"]
        for r in cycles if r.secs.get("reachalgo.compute_reach_set")]), "frac")

    lps = [a for r in cycles for a in r.attrs.get("chance.build_risk_lp", [])]
    line = [a for a in lps if a["mode"] == "line"]
    for field in ("rows", "cols", "nnz"):
        out[f"chance.lp_{field}"] = (max((a[field] for a in line), default=0), "count")
    total = sum(a["chance_rows"] for a in lps)
    out["chance.pwa_rows_useful_frac"] = (
        sum(a["useful_rows"] for a in lps) / total if total else 0.0, "frac")
    searches = [a for r in cycles for a in r.attrs.get("chance.solve_line_search", [])]
    out["chance.line_search_ok_frac"] = (
        sum(a["ok"] for a in searches) / len(searches) if searches else 0.0, "frac")
    sims = "montecarlo.simulate_reach_prob"
    sim_s = sum(r.secs.get(sims, 0.0) for r in cycles)
    traj = sum(a["n_traj"] for r in cycles for a in r.attrs.get(sims, []))
    out["montecarlo.trajectories_per_s"] = (traj / sim_s if sim_s else 0.0, "1/s")

    out["geometry.is_bounded.calls"] = (calls(builds, "geometry.is_bounded"), "count")
    out["geometry.is_bounded.s"] = (secs(builds, "geometry.is_bounded"), "s")
    out["sysmodel.TargetTube.s"] = (secs(builds, "sysmodel.TargetTube"), "s")
    out["gaussian.build_pwa_quantile.s"] = (
        secs(builds, "gaussian.build_pwa_quantile"), "s")
    pieces = [a["pieces"] for r in builds
              for a in r.attrs.get("gaussian.build_pwa_quantile", [])]
    out["gaussian.pwa_pieces"] = (max(pieces, default=0), "count")
    return out
