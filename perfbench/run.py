"""Benchmark jetflow's run_experiment on one workload and print the result as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow-d2 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it records the environment
and the details behind the metrics.  jetflow is imported from ./src, never
from an installed copy; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hankel-sweep", "convergence-d1", "estimate-d3", "flow-d2")
# their BLAS calls are too small to gain from a second thread, which would only
# spin on a core that the interpreter and the rest of the host need
SINGLE_THREADED = ("hankel-sweep", "convergence-d1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "jetflow" / "__init__.py").is_file():
        print(f"perfbench: no jetflow sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS threads must be fixed before numpy loads; set-up processes inherit them
    threads = "1" if args.workload in SINGLE_THREADED else str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("JETFLOW_OUTPUT_DIR", None)  # it would override the config's output_dir
    sys.path.insert(0, str(SRC))

    import jetflow

    if Path(jetflow.__file__).resolve().parent != SRC / "jetflow":
        print(f"perfbench: imported jetflow from {jetflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    result, report = bench.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), SRC, ROOT / ".perfbench-out" / args.workload)
    print(json.dumps({"perfbench": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
