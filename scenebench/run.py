"""Scene-scoring benchmark: one workload per run, one client in a closed loop.

Run from the repository root:

    python3 scenebench/run.py --workload judge_bound --seed 1 --seconds 35 --trace 0

The run writes seeded scenes under ``.bench_build/scenebench``, loads them
through ``scene.load_scene`` and ``annotations.load_entry``, and scores one
scene at a time with ``metrics.evaluate_scene`` until the next scene would
overrun ``--seconds``.  It checks every report, prints per-scene lines and
report digests, and ends with one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload in turn, each in its own process.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_all(args, names) -> int:
    """Run every workload in its own process and gather their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for n, m in result["metrics"].items():
            merged["metrics"][f"{name}.{n}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "scenescore" / "__init__.py").is_file():
        print(f"scenebench: no scorer source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # One BLAS thread: on a host of few shared cores, a second thread that
    # waits for a busy core makes the matrix products' time swing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from scenebench import bench

    if args.workload == "all":
        return run_all(args, list(bench.WORKLOADS))
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {[*bench.WORKLOADS, 'all']}")
    logging.disable(logging.WARNING)  # the synthetic meshes trip load-time warnings
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
