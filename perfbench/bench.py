"""Measure one workload: timed run_experiment calls, set-up time, memory, checks, traced split.

Import this module only after ``src`` is on ``sys.path`` and the BLAS thread
variables are set; ``run.py`` does both.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import mpmath
import numpy as np
import scipy

import jetflow
from jetflow.experiments import run_experiment

import tracer as tr
from workloads import Workload

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import jetflow
from jetflow.experiments import validate_config
with open(sys.argv[2]) as fh:
    cfg = json.load(fh)
sys.exit(1 if validate_config(cfg) else 0)
"""

E2E_UNITS = {"run_s": "s", "run_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_ratio": "ratio"}


def setup_seconds(src: Path, cfg_path: Path) -> float:
    """Wall time of a fresh interpreter that imports jetflow, loads and validates the config."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(cfg_path)],
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with code {proc.returncode}")
    return elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND, 1)  # samples at or below the reported one
    return ordered[k - 1], 100.0 * k / len(ordered)


def _untraced(cfg: dict) -> tuple[float, bytes | None]:
    t0 = time.perf_counter()
    try:
        result = run_experiment(cfg)
    except Exception:  # a failing call is a measured outcome, not a benchmark crash
        traceback.print_exc()
        return time.perf_counter() - t0, None
    elapsed = time.perf_counter() - t0
    return elapsed, Path(result["csv"]).read_bytes()


def _traced(tracer: tr.Tracer, cfg: dict) -> tuple[float, bytes | None]:
    try:
        result = tracer.call(run_experiment, cfg)
    except Exception:
        traceback.print_exc()
        return tracer.wall_s, None
    return tracer.wall_s, Path(result["csv"]).read_bytes()


class Tally:
    """Operations attempted and failed; one CSV row is one operation."""

    def __init__(self, workload, ref: dict, first: bytes | None) -> None:
        self.first = first
        if first is None:
            self.rows, self.bad = 1, 1
        else:
            rows = list(csv.DictReader(io.StringIO(first.decode())))
            verdicts = workload.check(rows, ref)
            self.rows, self.bad = len(verdicts), verdicts.count(False)
        self.attempted = self.rows
        self.failed = self.bad

    def add(self, body: bytes | None) -> None:
        """Count one more call; a CSV that differs from the first call's fails every row."""
        self.attempted += self.rows
        self.failed += self.bad if body == self.first and body is not None else self.rows


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seed_used": workload.seeded,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "jetflow": jetflow.__version__,
        "machine": platform.machine(),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, src: Path,
            outdir: Path) -> tuple[dict, dict]:
    """Run one workload for `seconds`; returns (result line, report of details).

    jetflow writes its CSV and manifest to `outdir`; `src` is what the set-up
    processes import jetflow from.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = workload.config(seed)
    cfg["output_dir"] = str(outdir)
    report = environment(workload, seed)

    setup = []
    if not trace:
        cfg_path = outdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        setup = [setup_seconds(src, cfg_path) for _ in range(SETUP_REPEATS)]

    ref = workload.reference()
    clean = not tr.wrapped_names()
    warm_s, first = _untraced(cfg)
    tally = Tally(workload, ref, first)
    report.update(rows_per_call=tally.rows, rows_failed_per_call=tally.bad,
                  warmup_s=warm_s)
    if first is not None:
        report.update(csv_sha256=hashlib.sha256(first).hexdigest(), csv_bytes=len(first))

    times: list[float] = []
    traced: list[float] = []
    self_s: dict[str, list[float]] = defaultdict(list)
    counts = first_exact = None
    counts_repeat = True
    tracer = tr.Tracer()
    deadline = time.perf_counter() + seconds
    while first is not None and (time.perf_counter() < deadline or (trace and len(traced) < 2)):
        clean = clean and not tr.wrapped_names()
        elapsed, body = _untraced(cfg)
        times.append(elapsed)
        tally.add(body)
        if not trace:
            continue
        elapsed, body = _traced(tracer, cfg)
        clean = clean and not tr.wrapped_names()
        traced.append(elapsed)
        tally.add(body)
        for span in tr.SPANS:
            self_s[span].append(tracer.self_s[span])
        exact = {k: tracer.counts[k] for k in tr.EXACT_COUNTS}
        if counts is None:
            counts, first_exact = tracer.counts.copy(), exact
        counts_repeat = counts_repeat and exact == first_exact

    correct = first is not None and tally.failed == 0 and clean
    report.update(calls=len(times), wrappers_clean=clean)
    if not times:
        return {"correct": False, "attempted": tally.attempted, "failed": tally.failed,
                "metrics": {}}, report

    if not trace:
        tail_s, pct = tail(times)
        report.update(run_s_tail_percentile=pct, run_s_samples=len(times),
                      run_s_all=times, setup_samples=setup)
        values = {
            "run_s": statistics.median(times),
            "run_s_tail": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        correct = correct and counts_repeat
        traced_s = statistics.median(traced)
        metrics = layer_metrics(self_s, counts, len(first), traced_s, statistics.median(times))
        run_self = metrics["experiments.run_experiment.self_s"]["value"]
        report.update(traced_calls=len(traced), counts_repeat=counts_repeat,
                      traced_run_s=traced_s, span_coverage=1.0 - run_self / traced_s)
        (outdir / "spans.json").write_text(json.dumps(
            [{"id": i, "name": n, "start": s, "end": e, "parent": p}
             for i, n, s, e, p in tracer.spans]))
    return {"correct": bool(correct), "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}, report


def layer_metrics(self_s: dict, counts: dict, csv_bytes: int, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics from the traced calls: median self times, and counts of one call."""
    out = {f"{span}.self_s": (statistics.median(self_s[span]), "s") for span in tr.SPANS}
    calls = counts["hankel.smallest_eigenvalue.calls"]
    cells = counts["fock.feature_matrix.cells"]
    out.update({
        "hankel.smallest_eigenvalue.calls": (calls, "count"),
        "hankel.smallest_eigenvalue.order_sum": (counts["hankel.smallest_eigenvalue.order_sum"], "count"),
        "hankel.smallest_eigenvalue.certified_ratio": (
            counts["hankel.smallest_eigenvalue.certified"] / calls if calls else 0.0, "ratio"),
        "pushforward.estimate_pushforward.calls": (counts["pushforward.estimate_pushforward.calls"], "count"),
        "pushforward.estimate_pushforward.illposed": (counts["pushforward.estimate_pushforward.illposed"], "count"),
        "pushforward.estimate_pushforward.cond_max": (counts["pushforward.estimate_pushforward.cond_max"], "ratio"),
        "pushforward.estimate_pushforward.solve_flops": (counts["pushforward.estimate_pushforward.solve_flops"], "flop"),
        "fock.feature_matrix.cells": (cells, "count"),
        "fock.feature_matrix.bytes": (16 * cells, "B"),  # computed: complex128 cells
        "reconstruct.readoff.points": (counts["reconstruct.readoff.points"], "count"),
        "fock.basis_gradient_at_zero.calls": (counts["fock.basis_gradient_at_zero.calls"], "count"),
        "vectorfield.flow.rhs_calls": (counts["vectorfield.flow.rhs_calls"], "count"),
        "maps.eval_map_batch.rows": (counts["maps.eval_map_batch.rows"], "count"),
        "experiments.csv_bytes": (csv_bytes, "B"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
