"""Run every workload untraced and then traced, each in its own process, and print all metrics.

From the root of a checkout:

    python3 perfbench/report.py --seconds 30 --seed 1

Exits with code 1 when any run reports correct = false.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"
DETAILS = ("seed_used", "run_s_samples", "run_s_tail_percentile", "csv_sha256",
           "span_coverage", "traced_calls")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    all_correct = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            details, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
            all_correct = all_correct and result["correct"]
            print(f"{name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print("  " + ", ".join(f"{k}={details[k]}" for k in DETAILS if k in details))
            for metric, value in result["metrics"].items():
                print(f"  {metric:46s} {value['value']:>14.6g} {value['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
