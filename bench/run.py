"""Benchmark of the tubereach pipeline: config -> reach sets ->
interpolation -> Monte-Carlo validation, with independent checks.

    python3 bench/run.py --workload planar --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

It imports the package from `src/` next to this directory.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per layer with --trace 1).  With
`--workload all` each workload runs in a fresh process and the last line
maps workload names to those objects.  Full records and spans go to
`bench/out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scalar", "planar", "scale-up")
# BLAS / OpenMP pools read these once, when numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so no workload inherits another's
    heap, caches or peak resident set."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tubereach", "__init__.py")):
        print(f"error: no tubereach package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    if "numpy" in sys.modules:
        print("error: numpy was loaded before the thread counts were pinned",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import tubereach
    if not os.path.abspath(tubereach.__file__).startswith(SRC + os.sep):
        print(f"error: tubereach imported from {tubereach.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness

    rec = harness.measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), os.path.join(HERE, "out"))
    env = rec["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
          f"cycles={len(rec['cycles'])}")
    for failure in rec["failures"][:20]:
        print(f"# FAILED {failure}")
    for key, m in rec["metrics"].items():
        print(f"{args.workload:9s} {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} {'attempted':48s} {rec['attempted']}")
    print(f"{args.workload:9s} {'failed':48s} {rec['failed']}")
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
