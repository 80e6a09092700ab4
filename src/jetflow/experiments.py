"""Experiment pipelines behind the CLI: config validation, runs, CSV and manifest output.

Configs are JSON documents.  Each run writes one CSV of results (every sweep
row appears, failed rows carry an error status) plus run_manifest.json echoing
the config, seed, library versions, and a summary.  CSV bodies are
deterministic for a fixed config; only the manifest carries a timestamp.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import ConfigError, JetflowError, MapSyntaxError
from .fock import DomainSpec, SampleSet, measure_radii
from .hankel import MeasureSpec, hankel_spectrum_sweep, moment_matrix, sigma, smallest_eigenvalue
from .maps import eval_map_batch, parse_map
from .multiindex import graded_numbering
from .pushforward import estimate_pushforward, gamma_check, oracle_pushforward, theorem_rate
from .reconstruct import pipeline_and_lsq_coefficients, reconstruct_eval
from .sampling import _SCHEMES, _tensor_grid, draw_samples
from .vectorfield import (
    bound_B,
    check_equilibrium,
    estimate_generator,
    flow_sample_set,
    reconstruct_field,
)

KINDS = (
    "pushforward-convergence",
    "map-reconstruction",
    "lsq-equivalence",
    "hankel-rates",
    "vectorfield-recovery",
)

OUTPUT_ENV = "JETFLOW_OUTPUT_DIR"


# ---------------------------------------------------------------- validation

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _num_list(x, length=None) -> bool:
    if not isinstance(x, list) or not all(_is_num(v) for v in x):
        return False
    return length is None or len(x) == length


def _validate_orders(cfg, issues) -> None:
    orders = cfg.get("orders")
    if not isinstance(orders, dict):
        issues.append(("orders", "required object with m and n (or n_sweep)"))
        return
    m = orders.get("m")
    if not _is_int(m) or m < 1:
        issues.append(("orders.m", "required integer >= 1"))
        return
    has_n = "n" in orders
    has_sweep = "n_sweep" in orders
    if has_n == has_sweep:
        issues.append(("orders", "exactly one of n or n_sweep is required"))
        return
    if has_n and (not _is_int(orders["n"]) or orders["n"] < m):
        issues.append(("orders.n", f"required integer >= m ({m})"))
    if has_sweep:
        ns = orders["n_sweep"]
        if not isinstance(ns, list) or not ns or not all(_is_int(v) and v >= m for v in ns):
            issues.append(("orders.n_sweep", f"required nonempty list of integers >= m ({m})"))


def _validate_sampling(cfg, issues, d: int | None) -> None:
    sampling = cfg.get("sampling")
    if not isinstance(sampling, dict):
        issues.append(("sampling", "required object"))
        return
    if sampling.get("scheme") not in _SCHEMES:
        issues.append(("sampling.scheme", f"required one of {_SCHEMES}"))
    has_n = "N" in sampling
    has_sweep = "N_sweep" in sampling
    if has_n == has_sweep:
        issues.append(("sampling", "exactly one of N or N_sweep is required"))
    elif has_n and (not _is_int(sampling["N"]) or sampling["N"] < 1):
        issues.append(("sampling.N", "required integer >= 1"))
    elif has_sweep:
        ns = sampling["N_sweep"]
        if not isinstance(ns, list) or not ns or not all(_is_int(v) and v >= 1 for v in ns):
            issues.append(("sampling.N_sweep", "required nonempty list of integers >= 1"))
    radii = sampling.get("support_radii")
    if not _num_list(radii, d) or any(v <= 0 for v in radii or [0]):
        issues.append(("sampling.support_radii", f"required list of {d} positive numbers"))
    if "support_center" in sampling and not _num_list(sampling["support_center"], d):
        issues.append(("sampling.support_center", f"must be a list of {d} numbers"))
    if "seed" in sampling and sampling["seed"] is not None and not _is_int(sampling["seed"]):
        issues.append(("sampling.seed", "must be an integer"))


def _validate_domain(cfg, issues, d: int | None) -> None:
    domain = cfg.get("domain")
    if not isinstance(domain, dict):
        issues.append(("domain", "required object"))
        return
    kind = domain.get("kind")
    if kind == "box":
        if not _num_list(domain.get("radii"), d) or any(v <= 0 for v in domain.get("radii") or [0]):
            issues.append(("domain.radii", f"required list of {d} positive numbers"))
    elif kind == "ball":
        if not _is_num(domain.get("radius")) or domain.get("radius", 0) <= 0:
            issues.append(("domain.radius", "required positive number"))
    else:
        issues.append(("domain.kind", "required 'box' or 'ball'"))


def _validate_eval(cfg, issues, d: int | None) -> None:
    ev = cfg.get("eval")
    if not isinstance(ev, dict):
        issues.append(("eval", "required object with radii and points_per_axis"))
        return
    if not _num_list(ev.get("radii"), d) or any(v <= 0 for v in ev.get("radii") or [0]):
        issues.append(("eval.radii", f"required list of {d} positive numbers"))
    ppa = ev.get("points_per_axis")
    if not _is_int(ppa) or ppa < 1:
        issues.append(("eval.points_per_axis", "required integer >= 1"))


def _validate_map(cfg, issues, d: int | None, r: int | None) -> None:
    src = cfg.get("map")
    if not isinstance(src, str) or not src.strip():
        issues.append(("map", "required nonempty expression string"))
        return
    if d is None or r is None:
        return
    try:
        parse_map(src, d, r)
    except MapSyntaxError as exc:
        issues.append(("map", str(exc)))


def _validate_base_point(cfg, issues, d: int | None) -> None:
    if not _num_list(cfg.get("base_point"), d):
        issues.append(("base_point", f"required list of {d} numbers"))


def validate_config(cfg: Any) -> list[tuple[str, str]]:
    """Check an experiment config; returns a list of (path, reason) issues."""
    issues: list[tuple[str, str]] = []
    if not isinstance(cfg, dict):
        return [("", "config must be a JSON object")]
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [("kind", f"required one of {KINDS}")]
    if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
        issues.append(("output_dir", "must be a string"))

    if kind == "hankel-rates":
        if not _is_num(cfg.get("a")):
            issues.append(("a", "required number"))
        if not _is_num(cfg.get("r")) or cfg.get("r", 0) <= 0:
            issues.append(("r", "required positive number"))
        if not _is_int(cfg.get("n_max")) or cfg.get("n_max", -1) < 0:
            issues.append(("n_max", "required integer >= 0"))
        bits = cfg.get("precision_bits", 256)
        if not _is_int(bits) or bits < 16:
            issues.append(("precision_bits", "must be an integer >= 16"))
        return issues

    d = cfg.get("d")
    if not _is_int(d) or d < 1:
        issues.append(("d", "required integer >= 1"))
        d = None
    if kind in ("pushforward-convergence", "map-reconstruction"):
        r = cfg.get("r")
        if not _is_int(r) or r < 1:
            issues.append(("r", "required integer >= 1"))
            r = None
    elif kind == "vectorfield-recovery":
        r = d
    else:  # lsq-equivalence
        r = 1

    _validate_map(cfg, issues, d, r)
    _validate_sampling(cfg, issues, d)
    if kind != "lsq-equivalence":
        _validate_base_point(cfg, issues, d)
        _validate_domain(cfg, issues, d)
    _validate_orders(cfg, issues)
    if kind != "pushforward-convergence":
        for section, key in (("orders", "n_sweep"), ("sampling", "N_sweep")):
            if isinstance(cfg.get(section), dict) and key in cfg[section]:
                issues.append((f"{section}.{key}", "only pushforward-convergence runs sweeps"))
    if kind in ("map-reconstruction", "vectorfield-recovery"):
        _validate_eval(cfg, issues, d)
    if kind == "vectorfield-recovery":
        flow = cfg.get("flow")
        if not isinstance(flow, dict):
            issues.append(("flow", "required object with T and tol"))
        else:
            if not _is_num(flow.get("T")) or flow.get("T", 0) <= 0:
                issues.append(("flow.T", "required positive number"))
            if not _is_num(flow.get("tol")) or flow.get("tol", 0) <= 0:
                issues.append(("flow.tol", "required positive number"))
    return issues


# ----------------------------------------------------------------- plumbing

def resolve_output_dir(cfg: dict) -> Path:
    env = os.environ.get(OUTPUT_ENV)
    if env:
        return Path(env)
    return Path(cfg.get("output_dir", "jetflow-out"))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_manifest(outdir: Path, cfg: dict, summary: dict) -> Path:
    import mpmath
    import scipy

    manifest = {
        "config": cfg,
        "seed": (cfg.get("sampling") or {}).get("seed"),
        "versions": {
            "jetflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "python": sys.version.split()[0],
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "summary": summary,
    }
    path = outdir / "run_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _sampling_pieces(cfg: dict) -> tuple[MeasureSpec, str, int | None]:
    sampling = cfg["sampling"]
    d = len(sampling["support_radii"])
    center = sampling.get("support_center", [0.0] * d)
    measure = MeasureSpec.uniform_box(center, sampling["support_radii"])
    return measure, sampling["scheme"], sampling.get("seed")


def _domain_spec(cfg: dict) -> DomainSpec:
    domain = cfg["domain"]
    p = cfg["base_point"]
    if domain["kind"] == "box":
        return DomainSpec.box(p, domain["radii"])
    return DomainSpec.ball(p, domain["radius"])


def _eval_grid(cfg: dict, p: np.ndarray) -> np.ndarray:
    ev = cfg["eval"]
    return _tensor_grid(p, np.array(ev["radii"], dtype=np.float64), ev["points_per_axis"])


def _n_values(cfg: dict) -> list[int]:
    orders = cfg["orders"]
    return list(orders["n_sweep"]) if "n_sweep" in orders else [orders["n"]]


def _N_values(cfg: dict) -> list[int]:
    sampling = cfg["sampling"]
    return list(sampling["N_sweep"]) if "N_sweep" in sampling else [sampling["N"]]


# ------------------------------------------------------------------ runners

def _run_pushforward_convergence(cfg: dict) -> tuple[str, list[str], list[list], dict]:
    d, r = cfg["d"], cfg["r"]
    f = parse_map(cfg["map"], d, r)
    p = np.array(cfg["base_point"], dtype=np.float64)
    domain = _domain_spec(cfg)
    measure, scheme, seed = _sampling_pieces(cfg)
    m = cfg["orders"]["m"]
    oracle = oracle_pushforward(f, p, m)
    q = eval_map_batch(f, p[None, :])[0]
    R_mu, _ = measure_radii(measure, domain)

    header = ["n", "N", "frobenius_error", "gamma_residual", "lambda_n",
              "rate_bound", "smallest_kept_sv", "status"]
    rows: list[list] = []
    errors: list[float] = []
    for n in _n_values(cfg):
        exact_rows = moment_matrix(measure, n, exact=True)
        D_mu = np.array(exact_rows, dtype=np.float64)  # float() of each entry, as exact=False gives
        lam = float(smallest_eigenvalue(exact_rows, 256).Lambda)
        for N in _N_values(cfg):
            try:
                Z0 = draw_samples(measure, N, scheme, seed)
                samples = SampleSet(Z=p + Z0, W=eval_map_batch(f, p + Z0),
                                    provenance=scheme, seed=seed)
                est = estimate_pushforward(p, q, m, n, samples)
                err = float(np.linalg.norm(oracle.C - est.C_hat))
                gam = gamma_check(D_mu, moment_matrix(MeasureSpec.empirical(Z0), n))
                rate = theorem_rate(m, n, R_mu, lam, 1 - gam) if gam < 1 else None
                rows.append([n, N, err, gam, lam, rate, est.smallest_kept_sv, "ok"])
                errors.append(err)
            except JetflowError as exc:
                rows.append([n, N, None, None, lam, None, None,
                             f"error:{type(exc).__name__}"])
    summary = {
        "final_error": errors[-1] if errors else None,
        "max_error": max(errors) if errors else None,
        "rows_ok": len(errors),
        "rows_total": len(rows),
    }
    return "pushforward_convergence.csv", header, rows, summary


def _run_map_reconstruction(cfg: dict) -> tuple[str, list[str], list[list], dict]:
    d, r = cfg["d"], cfg["r"]
    f = parse_map(cfg["map"], d, r)
    p = np.array(cfg["base_point"], dtype=np.float64)
    measure, scheme, seed = _sampling_pieces(cfg)
    m, n = cfg["orders"]["m"], cfg["orders"]["n"]
    N = cfg["sampling"]["N"]
    Z0 = draw_samples(measure, N, scheme, seed)
    Z = p + Z0
    samples = SampleSet(Z=Z, W=eval_map_batch(f, Z), provenance=scheme, seed=seed)
    q = eval_map_batch(f, p[None, :])[0]
    est = estimate_pushforward(p, q, m, n, samples)

    grid = _eval_grid(cfg, p)
    truth = eval_map_batch(f, grid)
    header = [f"z{k + 1}" for k in range(d)]
    for i in range(r):
        header += [f"f{i + 1}_true_re", f"f{i + 1}_true_im",
                   f"f{i + 1}_hat_re", f"f{i + 1}_hat_im"]
    header += ["abs_error", "status"]
    approx = reconstruct_eval(est, p, q, m, grid)
    errs = np.max(np.abs(approx - truth), axis=1)
    rows: list[list] = []
    for z, t, a, err in zip(grid, truth, approx, errs):
        row: list = list(z)
        for i in range(r):
            row += [t[i].real, t[i].imag, a[i].real, a[i].imag]
        rows.append(row + [err, "ok"])
    worst = float(errs.max())
    summary = {"sup_error": worst, "m": m, "n": n, "N": N}
    return "map_reconstruction.csv", header, rows, summary


def _run_lsq_equivalence(cfg: dict) -> tuple[str, list[str], list[list], dict]:
    d = cfg["d"]
    g = parse_map(cfg["map"], d, 1)
    measure, scheme, seed = _sampling_pieces(cfg)
    m, n = cfg["orders"]["m"], cfg["orders"]["n"]
    X = draw_samples(measure, cfg["sampling"]["N"], scheme, seed)
    mono, direct = pipeline_and_lsq_coefficients(g, X, m, n)
    table = graded_numbering(d, m)
    header = ["index", "alpha", "pipeline_re", "pipeline_im", "lsq_re", "lsq_im",
              "abs_diff", "status"]
    rows = []
    for i, alpha in enumerate(table.entries):
        rows.append([
            i + 1,
            "|".join(str(a) for a in alpha),
            mono[i].real, mono[i].imag, direct[i].real, direct[i].imag,
            abs(mono[i] - direct[i]), "ok",
        ])
    summary = {"max_abs_diff": float(np.max(np.abs(mono - direct))), "m": m, "n": n}
    return "lsq_equivalence.csv", header, rows, summary


def _run_hankel_rates(cfg: dict) -> tuple[str, list[str], list[list], dict]:
    a, r = cfg["a"], cfg["r"]
    bits = cfg.get("precision_bits", 256)
    target = math.log(sigma(a, r))
    header = ["n", "lambda_n", "rate", "log_sigma", "gap", "status"]
    rows: list[list] = []
    gap = None
    for spec in hankel_spectrum_sweep(a, r, cfg["n_max"], bits):
        lam = float(spec.Lambda)
        rate = float(-math.log(lam) / (2 * spec.n + 2)) if lam > 0 else None
        gap = rate - target if rate is not None else None
        rows.append([spec.n, lam, rate, target, gap, "ok"])
    summary = {"final_gap": gap, "log_sigma": target, "precision_bits": bits}
    return "hankel_rates.csv", header, rows, summary


def _run_vectorfield_recovery(cfg: dict) -> tuple[str, list[str], list[list], dict]:
    d = cfg["d"]
    V = parse_map(cfg["map"], d, d)
    p = np.array(cfg["base_point"], dtype=np.float64)
    try:
        check_equilibrium(V, p)
    except ValueError as exc:
        raise ConfigError([("base_point", str(exc))]) from None
    measure, scheme, seed = _sampling_pieces(cfg)
    m, n = cfg["orders"]["m"], cfg["orders"]["n"]
    T, tol = cfg["flow"]["T"], cfg["flow"]["tol"]
    Z0 = draw_samples(measure, cfg["sampling"]["N"], scheme, seed)
    samples = flow_sample_set(V, T, p + Z0, tol, provenance=scheme, seed=seed)
    est = estimate_pushforward(p, p, m, n, samples)
    gen = estimate_generator(est, T)
    pencil_bound = bound_B(est.C_hat)

    grid = _eval_grid(cfg, p)
    truth = eval_map_batch(V, grid)
    header = [f"z{k + 1}" for k in range(d)]
    for i in range(d):
        header += [f"V{i + 1}_true", f"V{i + 1}_hat_re", f"V{i + 1}_hat_im"]
    header += ["abs_error", "status"]
    approx = reconstruct_field(gen, p, m, grid)
    errs = np.max(np.abs(approx - truth), axis=1)
    rows: list[list] = []
    for z, t, a, err in zip(grid, truth, approx, errs):
        row: list = list(z)
        for i in range(d):
            row += [t[i].real, a[i].real, a[i].imag]
        rows.append(row + [err, "ok"])
    worst = float(errs.max())
    summary = {
        "sup_error": worst,
        "log_residual": gen.log_residual,
        "bound_B": pencil_bound,
        "T": T,
    }
    return "vectorfield_recovery.csv", header, rows, summary


_RUNNERS: dict[str, Callable[[dict], tuple[str, list[str], list[list], dict]]] = {
    "pushforward-convergence": _run_pushforward_convergence,
    "map-reconstruction": _run_map_reconstruction,
    "lsq-equivalence": _run_lsq_equivalence,
    "hankel-rates": _run_hankel_rates,
    "vectorfield-recovery": _run_vectorfield_recovery,
}


def run_experiment(cfg: dict) -> dict:
    """Validate and run a config; returns {csv, manifest, summary} with paths."""
    issues = validate_config(cfg)
    if issues:
        raise ConfigError(issues)
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_name, header, rows, summary = _RUNNERS[cfg["kind"]](cfg)
    csv_path = outdir / csv_name
    _write_csv(csv_path, header, rows)
    manifest_path = _write_manifest(outdir, cfg, summary)
    return {"csv": str(csv_path), "manifest": str(manifest_path), "summary": summary}


# -------------------------------------------------------------------- demos

def demo_config(kind: str) -> dict:
    """A canned, runnable config for each experiment kind."""
    if kind == "pushforward-convergence":
        return {
            "kind": kind,
            "d": 1,
            "r": 1,
            "map": "0.3*z1 + 0.1*z1^2",
            "base_point": [0.0],
            "domain": {"kind": "box", "radii": [1.0]},
            "orders": {"m": 3, "n_sweep": [3, 4, 5, 6, 7, 8]},
            "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5], "seed": 7},
            "output_dir": "jetflow-out",
        }
    if kind == "map-reconstruction":
        return {
            "kind": kind,
            "d": 1,
            "r": 1,
            "map": "exp(z1) - 1",
            "base_point": [0.0],
            "domain": {"kind": "box", "radii": [1.0]},
            "orders": {"m": 6, "n": 8},
            "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5], "seed": 7},
            "eval": {"radii": [0.3], "points_per_axis": 61},
            "output_dir": "jetflow-out",
        }
    if kind == "lsq-equivalence":
        return {
            "kind": kind,
            "d": 1,
            "map": "sin(z1)",
            "orders": {"m": 5, "n": 7},
            "sampling": {"scheme": "halton", "N": 2000, "support_radii": [0.5], "seed": 7},
            "output_dir": "jetflow-out",
        }
    if kind == "hankel-rates":
        return {
            "kind": kind,
            "a": 0.0,
            "r": 1.0,
            "n_max": 20,
            "precision_bits": 256,
            "output_dir": "jetflow-out",
        }
    if kind == "vectorfield-recovery":
        return {
            "kind": kind,
            "d": 1,
            "map": "-z1 + 0.2*z1^2",
            "base_point": [0.0],
            "domain": {"kind": "box", "radii": [1.0]},
            "orders": {"m": 5, "n": 8},
            "flow": {"T": 0.1, "tol": 1e-10},
            "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.4], "seed": 7},
            "eval": {"radii": [0.3], "points_per_axis": 61},
            "output_dir": "jetflow-out",
        }
    raise ValueError(f"unknown demo kind {kind!r}")
