"""Smoke test of the benchmark harness: every workload at a tiny size, traced and untraced.

From the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jetflow.experiments import run_experiment  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tiny(cfg: dict) -> dict:
    """The same experiment kind and map at a size that runs in well under a second."""
    if cfg["kind"] == "hankel-rates":
        return dict(cfg, n_max=4, precision_bits=64)
    sampling = {k: v for k, v in cfg["sampling"].items() if k != "N_sweep"}
    cfg = dict(cfg, sampling=dict(sampling, N=300))
    cfg["orders"] = {"m": 2, "n_sweep": [2, 3]} if "n_sweep" in cfg["orders"] else {"m": 2, "n": 3}
    if "eval" in cfg:
        cfg["eval"] = dict(cfg["eval"], points_per_axis=3)
    return cfg


def _tiny_workload(name: str):
    # the real checks expect full-size CSVs; here only the harness is under test
    w = WORKLOADS[name]
    return dataclasses.replace(w, config=lambda seed: _tiny(w.config(seed)),
                               reference=dict, check=lambda rows, ref: [True] * len(rows))


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_cli_names_match_workloads():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert declared == [name for name in run.WORKLOAD_NAMES if name in declared]
    assert set(run.WORKLOAD_NAMES) - set(declared) == {"hankel-sweep", "estimate-d3"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_unwraps(name, tmp_path):
    cfg = dict(_tiny(WORKLOADS[name].config(5)), output_dir=str(tmp_path))
    assert tr.wrapped_names() == []
    plain = Path(run_experiment(cfg)["csv"]).read_bytes()

    tracer = tr.Tracer()
    during, result = tracer.call(lambda c: (tr.wrapped_names(), run_experiment(c)), cfg)
    assert len(during) == len(tr.TARGETS)
    assert tr.wrapped_names() == []
    assert Path(result["csv"]).read_bytes() == plain

    _, root, start, end, parent = tracer.spans[-1]
    assert (root, parent) == (tr.ROOT, -1)
    assert sum(tracer.self_s.values()) == pytest.approx(end - start)
    assert min(tracer.self_s.values()) >= 0
    assert set(tracer.self_s) <= set(tr.SPANS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_measure_traced(name, tmp_path):
    result, report = bench.measure(_tiny_workload(name), 5, 0.01, True, ROOT / "src", tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert report["counts_repeat"] and report["wrappers_clean"]
    assert report["traced_calls"] >= 2
    assert result["attempted"] == report["rows_per_call"] * (1 + 2 * report["calls"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
    assert json.loads((tmp_path / "spans.json").read_text())[-1]["name"] == tr.ROOT


def test_measure_untraced(tmp_path):
    result, report = bench.measure(_tiny_workload("convergence-d1"), 5, 0.2, False,
                                   ROOT / "src", tmp_path)
    assert result["correct"] and report["wrappers_clean"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert len(report["setup_samples"]) == bench.SETUP_REPEATS
    assert report["run_s_samples"] == report["calls"] >= 1


def test_tail_keeps_ten_samples_above():
    times = [float(i) for i in range(40)]
    value, pct = bench.tail(times)
    assert sum(t > value for t in times) == bench.TAIL_BEYOND
    assert pct == 75.0
