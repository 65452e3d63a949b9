"""One measured run of one workload: set-up builds, a warm-up, then timed
cycles until the run length is used up.  Imported only after the
thread-count variables are pinned (see run.py)."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Dict, List

import numpy as np
import scipy

import tracing
import workloads

# Set-up is timed in batches of fresh builds, all before the warm-up: a
# batch repeats the build until it has taken BATCH_S, so each sample
# averages over the host's short slow spells, and setup_s is the median of
# the batches' per-build times.
SETUP_BATCHES = 5
BATCH_S = 1.0
# Likewise, an untimed cycle's validation of one set is timed over
# repeats lasting VALIDATE_BATCH_S; traced cycles validate once, so their
# call counts do not depend on the host's speed.
VALIDATE_BATCH_S = 1.0


def environment(root: str) -> Dict[str, object]:
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")},
    }


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _build_batches(problems, tracer=None):
    """SETUP_BATCHES batches of fresh builds; returns the per-build time of
    each batch, the number of builds in each, and the last inputs.  Traced,
    each build is one set-up span."""
    per_build, counts = [], []
    for _ in range(SETUP_BATCHES):
        n, t0 = 0, time.perf_counter()
        while n == 0 or time.perf_counter() - t0 < BATCH_S:
            if tracer is None:
                inputs = [workloads.build_inputs(p.config) for p in problems]
            else:
                with tracer.installed(), tracer.span(tracing.SETUP):
                    inputs = [workloads.build_inputs(p.config)
                              for p in problems]
            n += 1
        per_build.append((time.perf_counter() - t0) / n)
        counts.append(n)
    return per_build, counts, inputs


def _traced_cycle(prepared, seed, ledger, tracer):
    with tracer.installed(), tracer.span(tracing.CYCLE):
        return workloads.run_cycle(prepared, seed, ledger)


def _med(values: List[float]) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool,
            out_dir: str) -> dict:
    """Run one workload and return the result record.

    Untraced (trace=False): end-to-end metrics, each a median over the
    run's timed cycles (setup_s over its build batches).  Traced: per-layer
    metrics from spans; traced and untraced cycles alternate so the
    tracing overhead is measured in the same process."""
    problems = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    setup_s, builds, inputs = _build_batches(problems, tracer)
    prepared = [workloads.prepare(p, inp) for p, inp in zip(problems, inputs)]

    ledger = workloads.Ledger()
    # A whole warm-up cycle would cost as much as the timed phase on the
    # workloads with one cycle per run; the anchors absorb the first-call
    # costs.
    workloads.warm_up(prepared, seed)
    plain, traced = [], []
    start = time.perf_counter()
    # Another cycle (traced: another pair) starts only if, at the pace so
    # far, it ends within --seconds; at least one runs.
    while not plain or (time.perf_counter() - start) * (1 + 1 / len(plain)) <= seconds:
        plain.append(workloads.run_cycle(prepared, seed, ledger,
                                         VALIDATE_BATCH_S))
        if tracer is not None:
            traced.append(_traced_cycle(prepared, seed, ledger, tracer))
    first = plain[0].shapes
    reproducible = all(
        c.shapes.keys() == first.keys()
        and all(np.array_equal(c.shapes[k], first[k]) for k in first)
        for c in plain + traced)

    compute = [c.compute_s for c in plain]
    if tracer is None:
        metrics = {
            "setup_s": (_med(setup_s), "s"),
            "compute_s": (_med(compute), "s"),
            "validate_s": (_med([c.validate_s for c in plain]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "area_frac": (_med([c.area_frac for c in plain]), "frac"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["tracing_overhead_s"] = (
            _med([c.compute_s for c in traced]) - _med(compute), "s")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        "setup_s": setup_s, "setup_builds": builds,
        "cycles": [{"compute_s": c.compute_s, "validate_s": c.validate_s,
                    "area_frac": c.area_frac} for c in plain],
        "traced_cycles": [{"compute_s": c.compute_s} for c in traced],
        # every cycle reproduced the first one's vertices, and every
        # figure is a finite number
        "correct": reproducible and all(math.isfinite(v)
                                        for v, _ in metrics.values()),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    return record
