import copy
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import jetflow
from jetflow import experiments, hankel
from jetflow.errors import PrecisionError
from jetflow.experiments import KINDS, demo_config, run_experiment


def _rows(result):
    with open(result["csv"]) as fh:
        return list(csv.DictReader(fh))


def test_pushforward_convergence_two_components(tmp_path):
    cfg = {
        "kind": "pushforward-convergence", "d": 1, "r": 2,
        "map": "0.3*z1 + 0.1*z1^2; 0.5*z1",
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": 2, "n_sweep": [3, 5, 7]},
        "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5]},
        "output_dir": str(tmp_path),
    }
    rows = _rows(run_experiment(cfg))
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert float(rows[-1]["frobenius_error"]) < 1e-10


def test_pushforward_convergence_in_a_ball_domain(tmp_path):
    # the support box's corner (0.5, 0.5) lies inside the unit ball
    cfg = {
        "kind": "pushforward-convergence", "d": 2, "r": 1,
        "map": "0.3*z1 + 0.1*z1*z2",
        "base_point": [0.0, 0.0],
        "domain": {"kind": "ball", "radius": 1.0},
        "orders": {"m": 2, "n_sweep": [3, 4]},
        "sampling": {"scheme": "halton", "N": 1000, "support_radii": [0.5, 0.5]},
        "output_dir": str(tmp_path),
    }
    rows = _rows(run_experiment(cfg))
    assert [row["status"] for row in rows] == ["ok"] * 2
    assert float(rows[-1]["frobenius_error"]) < 1e-10


def test_map_reconstruction_two_components(tmp_path):
    cfg = {
        "kind": "map-reconstruction", "d": 2, "r": 2,
        "map": "exp(z1) - 1; sin(z2) + 0.1*z1*z2",
        "base_point": [0.0, 0.0],
        "domain": {"kind": "box", "radii": [1.0, 1.0]},
        "orders": {"m": 3, "n": 5},
        "sampling": {"scheme": "halton", "N": 3000, "support_radii": [0.5, 0.5]},
        "eval": {"radii": [0.2, 0.2], "points_per_axis": 5},
        "output_dir": str(tmp_path),
    }
    result = run_experiment(cfg)
    rows = _rows(result)
    assert len(rows) == 25 and all(row["status"] == "ok" for row in rows)
    assert result["summary"]["sup_error"] < 1e-3
    errs = [float(row["abs_error"]) for row in rows]
    assert np.isclose(max(errs), result["summary"]["sup_error"])


def test_pole_on_a_sample_writes_an_error_row(tmp_path):
    # the grid of 201 points on [-1/2, 1/2] holds z1 = 0.25, where the map has a pole
    cfg = {
        "kind": "pushforward-convergence", "d": 1, "r": 1, "map": "0.01/(z1-0.25)",
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": 3, "n_sweep": [3]},
        "sampling": {"scheme": "grid", "N_sweep": [201], "support_radii": [0.5], "seed": 1},
        "output_dir": str(tmp_path),
    }
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = _rows(run_experiment(cfg))
    assert [row["status"] for row in rows] == ["error:EstimatorIllPosedError"]


def _sweep_config(tmp_path, n_sweep, N_sweep, scheme="halton"):
    return {
        "kind": "pushforward-convergence", "d": 1, "r": 1, "map": "0.3*z1 + 0.1*z1^2",
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": 3, "n_sweep": n_sweep},
        "sampling": {"scheme": scheme, "N_sweep": N_sweep, "support_radii": [0.5], "seed": 1},
        "output_dir": str(tmp_path),
    }


def test_underdetermined_order_fails_only_its_row(tmp_path):
    # 10 samples: n = 12 has 13 columns, n = 3 and 5 have 4 and 6
    with pytest.warns(UserWarning, match="underdetermined"):
        rows = _rows(run_experiment(_sweep_config(tmp_path, [3, 5, 12], [10])))
    assert [(row["n"], row["status"]) for row in rows] == [
        ("3", "ok"), ("5", "ok"), ("12", "error:EstimatorIllPosedError")]


def test_sweep_draws_once_per_N(tmp_path, monkeypatch):
    calls = []
    draw = experiments.draw_samples

    def counted(measure, N, scheme, seed=None):
        calls.append(N)
        return draw(measure, N, scheme, seed)

    monkeypatch.setattr(experiments, "draw_samples", counted)
    rows = _rows(run_experiment(_sweep_config(tmp_path, [3, 4, 5], [200, 300], "iid")))
    assert calls == [200, 300]
    assert [(row["n"], row["N"]) for row in rows] == [
        (n, N) for n in ("3", "4", "5") for N in ("200", "300")]
    assert all(row["status"] == "ok" for row in rows)


def test_convergence_sweep_certifies_each_distinct_block_once(tmp_path, monkeypatch):
    # n = 3..8 on a box centred at 0: 12 parity-block certificates, of which 7 are
    # distinct; a second run certifies all 7 again, so no certificate outlives its sweep
    sizes = []
    certify = hankel._certified_smallest

    def counted(rows, precision_bits, *basis):
        assert basis  # the runner's hints come from the box's basis table
        sizes.append(len(rows))
        return certify(rows, precision_bits, *basis)

    monkeypatch.setattr(hankel, "_certified_smallest", counted)
    cfg = {**demo_config("pushforward-convergence"), "output_dir": str(tmp_path)}
    csv_path = Path(run_experiment(cfg)["csv"])
    assert sizes == [2, 2, 3, 3, 4, 4, 5]
    text = csv_path.read_text()
    run_experiment(cfg)
    assert len(sizes) == 14 and csv_path.read_text() == text


def test_bad_draw_is_an_error_row(tmp_path):
    # validate_config rejects a negative iid seed; the runner itself records the
    # draw's InputError in every row of that N
    cfg = _sweep_config(tmp_path, [3, 4], [200], "iid")
    cfg["sampling"]["seed"] = -1
    _, rows, summary = experiments._run_pushforward_convergence(cfg)
    assert [row[-1] for row in rows] == ["error:InputError"] * 2
    assert summary["rows_ok"] == 0


def test_an_uncertifiable_order_fails_only_its_rows(tmp_path, monkeypatch):
    # the parity blocks are 2 and 2 at n = 3, 3 and 2 at n = 4, 4 and 4 at n = 7: only n = 4 holds a 3
    certify = hankel._certified_smallest

    def failing(rows, precision_bits, *basis):
        if len(rows) == 3:
            raise PrecisionError("no certificate at this precision")
        return certify(rows, precision_bits, *basis)

    monkeypatch.setattr(hankel, "_certified_smallest", failing)
    rows = _rows(run_experiment(_sweep_config(tmp_path, [3, 4, 7], [200, 300])))
    assert [(row["n"], row["status"], row["lambda_n"] == "") for row in rows] == [
        ("3", "ok", False)] * 2 + [("4", "error:PrecisionError", True)] * 2 + [("7", "ok", False)] * 2


def test_lambda_below_float64s_range_is_printed(tmp_path):
    # a support of radius 1e-30: the certified lambda_n at n = 12 is 9.18e-728, a float64 0
    cfg = _sweep_config(tmp_path, [8, 12], [400])
    cfg["sampling"]["support_radii"] = [1e-30]
    rows = _rows(run_experiment(cfg))
    assert [mpmath.nstr(mpmath.mpf(row["lambda_n"]), 3) for row in rows] == ["2.33e-485", "9.18e-728"]


def test_hankel_rates_writes_a_lambda_below_float64s_range(tmp_path):
    # an interval of radius 1e-30: lambda_n is a float64 0 from n = 7 on, 1.84e-757 at n = 12
    cfg = {"kind": "hankel-rates", "a": 0.0, "r": 1e-30, "n_max": 12, "output_dir": str(tmp_path)}
    rows = _rows(run_experiment(cfg))
    assert [row["n"] for row in rows] == [str(n) for n in range(13)]
    assert mpmath.nstr(mpmath.mpf(rows[-1]["lambda_n"]), 5) == "1.8355e-757"
    for n, row in enumerate(rows):
        lam = mpmath.mpf(row["lambda_n"])
        assert row["status"] == "ok" and lam > 0
        assert float(row["rate"]) == pytest.approx(float(-mpmath.log(lam) / (2 * n + 2)), rel=1e-15)
        assert float(row["gap"]) == pytest.approx(float(row["rate"]) - float(row["log_sigma"]), abs=1e-13)



def test_hankel_rates_on_a_tiny_interval_writes_a_finite_log_sigma(tmp_path):
    # r * r underflows: log(sigma) is log(2e300) and log(3e200), not inf
    for a, r, log_sigma in ((0.0, 1e-300, 691.4686750787737), (0.5, 1e-200, 461.6156308874773)):
        cfg = {"kind": "hankel-rates", "a": a, "r": r, "n_max": 3, "output_dir": str(tmp_path)}
        rows = _rows(run_experiment(cfg))
        assert [row["status"] for row in rows] == ["ok"] * 4
        for row in rows:
            assert float(row["log_sigma"]) == pytest.approx(log_sigma, rel=1e-15)
            assert math.isfinite(float(row["gap"]))

def test_an_underflowing_lambda_leaves_the_rate_bound_empty(tmp_path, monkeypatch):
    tiny = mpmath.ldexp(1, -1400)
    monkeypatch.setattr(hankel, "_certified_smallest", lambda rows, bits, *basis: tiny)
    rows = _rows(run_experiment(_sweep_config(tmp_path, [3, 4], [300])))
    assert [(row["status"], row["lambda_n"], row["rate_bound"]) for row in rows] == [
        ("ok", mpmath.nstr(tiny, 17), "")] * 2
    # a float64 lambda keeps %.17g, and the rate bound is written
    monkeypatch.undo()
    rows = _rows(run_experiment(_sweep_config(tmp_path, [3, 4], [300])))
    assert all(row["lambda_n"] == f"{float(row['lambda_n']):.17g}" and row["rate_bound"] for row in rows)


def test_import_and_validate_leave_scipy_submodules_unloaded():
    code = ("import sys, jetflow\n"
            "from jetflow.experiments import KINDS, demo_config, validate_config\n"
            "for kind in KINDS:\n"
            "    assert not validate_config(demo_config(kind))\n"
            "print(sorted(m for m in ('mpmath', 'scipy.integrate', 'scipy.linalg') if m in sys.modules))\n")
    src = str(Path(jetflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _header(result):
    with open(result["csv"]) as fh:
        return fh.readline().rstrip("\n").split(",")


def test_map_reconstruction_header(tmp_path):
    cfg = {
        "kind": "map-reconstruction", "d": 2, "r": 2,
        "map": "z1 + z2^2; z1*z2",
        "base_point": [0.0, 0.0],
        "domain": {"kind": "box", "radii": [1.0, 1.0]},
        "orders": {"m": 2, "n": 3},
        "sampling": {"scheme": "halton", "N": 500, "support_radii": [0.5, 0.5]},
        "eval": {"radii": [0.2, 0.2], "points_per_axis": 2},
        "output_dir": str(tmp_path),
    }
    assert _header(run_experiment(cfg)) == [
        "z1", "z2",
        "f1_true_re", "f1_true_im", "f1_hat_re", "f1_hat_im",
        "f2_true_re", "f2_true_im", "f2_hat_re", "f2_hat_im",
        "abs_error", "status",
    ]


def test_vectorfield_recovery_header(tmp_path):
    cfg = {
        "kind": "vectorfield-recovery", "d": 2,
        "map": "-z1 + 0.1*z2^2; -0.5*z2",
        "base_point": [0.0, 0.0],
        "domain": {"kind": "box", "radii": [1.0, 1.0]},
        "orders": {"m": 2, "n": 3},
        "flow": {"T": 0.1, "tol": 1e-10},
        "sampling": {"scheme": "halton", "N": 500, "support_radii": [0.4, 0.4]},
        "eval": {"radii": [0.2, 0.2], "points_per_axis": 2},
        "output_dir": str(tmp_path),
    }
    assert _header(run_experiment(cfg)) == [
        "z1", "z2",
        "V1_true", "V1_hat_re", "V1_hat_im",
        "V2_true", "V2_hat_re", "V2_hat_im",
        "abs_error", "status",
    ]


def test_demo_config_returns_a_fresh_copy():
    for kind in KINDS:
        cfg = demo_config(kind)
        expected = copy.deepcopy(cfg)
        for value in cfg.values():
            if isinstance(value, dict):
                for inner in value.values():
                    if isinstance(inner, list):
                        inner.append(0)
                value["extra"] = 1
        cfg["extra"] = 1
        assert demo_config(kind) == expected
