"""Experiment pipelines behind the CLI: config validation, runs, CSV and manifest output.

Configs are JSON documents.  Each run writes one CSV of results (every sweep
row appears, failed rows carry an error status) plus run_manifest.json echoing
the config, seed, library versions, and a summary.  CSV bodies are
deterministic for a fixed config; only the manifest carries a timestamp.
Each kind has one runner: kind -> _RUNNERS[kind] -> `<kind>.csv`, with "_" for "-".

Importing this module, validating a config, writing a demo config and
rejecting an invalid one load no numpy, scipy or mpmath: the map grammar
comes from `jetflow.grammar`, and the runners' numerical names are bound by
`_numerics()` on a runner's first call or on first access as an attribute.
"""

from __future__ import annotations

import copy
import csv
import datetime
import importlib
import json
import math
import numbers
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import __version__
from ._blas import calling_thread
from .errors import ConfigError, InputError, JetflowError, MapSyntaxError
from .grammar import _PRIMES, _SCHEMES, MapExpr, parse_map

# the numerical names the runners use -> the module that defines them; `_numerics()`
# binds them into this module on a runner's first call or a first attribute access
_NUMERICS = {
    "np": "numpy",  # the module itself
    **dict.fromkeys(("DomainSpec", "SampleSet", "measure_radii"), ".fock"),
    **dict.fromkeys(("MeasureSpec", "box_basis", "hankel_spectrum_sweep", "moment_matrix",
                     "sigma", "smallest_eigenvalue"), ".hankel"),
    "eval_map_batch": ".maps",
    **dict.fromkeys(("graded_numbering", "jet_dimension"), ".multiindex"),
    **dict.fromkeys(("estimate_pushforward", "fold_pushforward", "gamma_check",
                     "oracle_pushforward", "theorem_rate"), ".pushforward"),
    **dict.fromkeys(("pipeline_and_lsq_coefficients", "reconstruct_eval"), ".reconstruct"),
    **dict.fromkeys(("_tensor_grid", "draw_samples"), ".sampling"),
    **dict.fromkeys(("bound_B", "check_equilibrium", "estimate_generator", "flow_sample_set",
                     "reconstruct_field"), ".vectorfield"),
}
_loaded = False


def _numerics() -> None:
    """Bind every name of _NUMERICS into this module's globals, once.

    A name bound already, by a caller that patched it first, keeps its value;
    the loaded marker is bound last, so no thread sees a half-bound module.
    """
    global _loaded
    if _loaded:
        return
    scope = globals()
    for name, module in _NUMERICS.items():
        value = importlib.import_module(module, __package__)
        scope.setdefault(name, value if name == "np" else getattr(value, name))
    _loaded = True


def __getattr__(name: str):
    if name not in _NUMERICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _numerics()
    return globals()[name]


OUTPUT_ENV = "JETFLOW_OUTPUT_DIR"


# ---------------------------------------------------------------- validation

def _is_num(x) -> bool:
    """A finite int or float; a bool is not a number here, and NaN and +-inf are not finite."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and (isinstance(x, int) or math.isfinite(x)))


def _is_int(x, lo: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= lo


def _positive(x) -> bool:
    return _is_num(x) and x > 0


def _numbers(x, d: int | None, ok=_is_num) -> bool:
    """A list whose entries pass ok, of length d when d is known."""
    return isinstance(x, list) and all(ok(v) for v in x) and (d is None or len(x) == d)


def _radii(x, d: int | None) -> bool:
    return _numbers(x, d, _positive) and len(x) > 0


def _need(issues: list, path: str, ok, reason: str) -> bool:
    """Record (path, reason) unless ok; returns whether ok held."""
    if not ok:
        issues.append((path, reason))
    return bool(ok)


def _one_size(issues: list, section: str, obj: dict, key: str, lo: int, bound: str) -> None:
    """Exactly one of obj[key], an integer >= lo, or obj[key_sweep], a nonempty list of them."""
    sweep = key + "_sweep"
    if (key in obj) == (sweep in obj):
        issues.append((section, f"exactly one of {key} or {sweep} is required"))
    elif key in obj:
        _need(issues, f"{section}.{key}", _is_int(obj[key], lo), f"required integer >= {bound}")
    else:
        sizes = obj[sweep]
        _need(issues, f"{section}.{sweep}",
              isinstance(sizes, list) and sizes and all(_is_int(v, lo) for v in sizes),
              f"required nonempty list of integers >= {bound}")


def validate_config(cfg: Any) -> list[tuple[str, str]]:
    """Check an experiment config; returns a list of (path, reason) issues."""
    issues: list[tuple[str, str]] = []
    if not isinstance(cfg, dict):
        return [("", "config must be a JSON object")]
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [("kind", f"required one of {KINDS}")]
    _need(issues, "output_dir", isinstance(cfg.get("output_dir", ""), str), "must be a string")

    if kind == "hankel-rates":
        _need(issues, "a", _is_num(cfg.get("a")), "required number")
        _need(issues, "r", _positive(cfg.get("r")), "required positive number")
        _need(issues, "n_max", _is_int(cfg.get("n_max"), 0), "required integer >= 0")
        _need(issues, "precision_bits", _is_int(cfg.get("precision_bits", 256), 16),
              "must be an integer >= 16")
        return issues

    d = cfg.get("d")
    if not _need(issues, "d", _is_int(d, 1), "required integer >= 1"):
        d = None
    list_of = "list of" if d is None else f"list of {d}"
    if kind in ("pushforward-convergence", "map-reconstruction"):
        r = cfg.get("r")
        if not _need(issues, "r", _is_int(r, 1), "required integer >= 1"):
            r = None
    else:
        r = d if kind == "vectorfield-recovery" else 1

    src = cfg.get("map")
    if (_need(issues, "map", isinstance(src, str) and src.strip(),
              "required nonempty expression string") and None not in (d, r)):
        try:
            parse_map(src, d, r)
        except MapSyntaxError as exc:
            issues.append(("map", str(exc)))

    sampling = cfg.get("sampling")
    if _need(issues, "sampling", isinstance(sampling, dict), "required object"):
        scheme = sampling.get("scheme")
        if _need(issues, "sampling.scheme", scheme in _SCHEMES, f"required one of {_SCHEMES}"):
            _need(issues, "sampling.scheme", scheme != "halton" or d is None or d <= len(_PRIMES),
                  f"halton supports up to {len(_PRIMES)} dimensions")
        _one_size(issues, "sampling", sampling, "N", 1, "1")
        _need(issues, "sampling.support_radii", _radii(sampling.get("support_radii"), d),
              f"required {list_of} positive numbers")
        _need(issues, "sampling.support_center",
              "support_center" not in sampling or _numbers(sampling["support_center"], d),
              f"must be a {list_of} numbers")
        _need(issues, "sampling.seed", sampling.get("seed") is None or _is_int(sampling["seed"], 0),
              "must be an integer >= 0")

    if kind != "lsq-equivalence":
        _need(issues, "base_point", _numbers(cfg.get("base_point"), d), f"required {list_of} numbers")
    if kind == "pushforward-convergence":  # the one runner that reads it, for R_mu
        domain = cfg.get("domain")
        if _need(issues, "domain", isinstance(domain, dict), "required object"):
            shape = domain.get("kind")
            if shape == "box":
                _need(issues, "domain.radii", _radii(domain.get("radii"), d),
                      f"required {list_of} positive numbers")
            elif shape == "ball":
                _need(issues, "domain.radius", _positive(domain.get("radius")),
                      "required positive number")
            else:
                issues.append(("domain.kind", "required 'box' or 'ball'"))

    orders = cfg.get("orders")
    if (_need(issues, "orders", isinstance(orders, dict),
              "required object with m and n (or n_sweep)")
            and _need(issues, "orders.m", _is_int(orders.get("m"), 1), "required integer >= 1")):
        m = orders["m"]
        _one_size(issues, "orders", orders, "n", m, f"m ({m})")
    if kind != "pushforward-convergence":
        for section, key in (("orders", "n_sweep"), ("sampling", "N_sweep")):
            if isinstance(cfg.get(section), dict) and key in cfg[section]:
                issues.append((f"{section}.{key}", "only pushforward-convergence runs sweeps"))

    if kind in ("map-reconstruction", "vectorfield-recovery"):
        ev = cfg.get("eval")
        if _need(issues, "eval", isinstance(ev, dict), "required object with radii and points_per_axis"):
            _need(issues, "eval.radii", _radii(ev.get("radii"), d), f"required {list_of} positive numbers")
            _need(issues, "eval.points_per_axis", _is_int(ev.get("points_per_axis"), 1),
                  "required integer >= 1")
    if kind == "vectorfield-recovery":
        flow = cfg.get("flow")
        if _need(issues, "flow", isinstance(flow, dict), "required object with T and tol"):
            for key in ("T", "tol"):
                _need(issues, f"flow.{key}", _positive(flow.get(key)), "required positive number")
    return issues


# ----------------------------------------------------------------- plumbing

def resolve_output_dir(cfg: dict) -> Path:
    env = os.environ.get(OUTPUT_ENV)
    if env:
        return Path(env)
    return Path(cfg.get("output_dir", "jetflow-out"))


def _fmt(x) -> str:
    """A CSV cell: a number as %.17g of its float, a certified mpf below float64's range in 17 digits."""
    if x is None:
        return ""
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, str):
        return x
    v = float(x)
    if v == 0 and x != 0:  # only an mpf underflows, so mpmath is loaded already
        import mpmath

        return mpmath.nstr(x, 17)
    return f"{v:.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_manifest(outdir: Path, cfg: dict, summary: dict) -> Path:
    import mpmath
    import numpy as np
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


def _sizes(section: dict, key: str) -> list[int]:
    """The one size section[key], or the list section[key_sweep]."""
    sweep = key + "_sweep"
    return list(section[sweep]) if sweep in section else [section[key]]


def _map_and_point(cfg: dict, r: int) -> tuple[MapExpr, np.ndarray]:
    return parse_map(cfg["map"], cfg["d"], r), np.array(cfg["base_point"], dtype=np.float64)


def _map_samples(f: MapExpr, Z: np.ndarray) -> SampleSet:
    return SampleSet(Z=Z, W=eval_map_batch(f, Z))


def _grid_table(cfg: dict, p: np.ndarray, values: Callable,
                columns: tuple[str, ...]) -> tuple[list[str], list[list], float]:
    """Header, rows and largest error of a table over the eval grid around p.

    values(grid) gives the true and the estimated components, each (points, r).  A
    row is z1..zd, then per component one column per template of `columns` (e.g.
    "f{}_hat_re"; the part after the first "_" picks true/true_re/true_im/hat_re/hat_im),
    then abs_error, the largest component error, and status.
    """
    ev = cfg["eval"]
    grid = _tensor_grid(p, np.array(ev["radii"], dtype=np.float64), ev["points_per_axis"])
    truth, approx = values(grid)
    errs = np.max(np.abs(approx - truth), axis=1)
    parts = {"true": truth.real, "true_re": truth.real, "true_im": truth.imag,
             "hat_re": approx.real, "hat_im": approx.imag}
    header = [f"z{k + 1}" for k in range(grid.shape[1])]
    cols = [grid]
    for i in range(truth.shape[1]):
        for name in columns:
            header.append(name.format(i + 1))
            cols.append(parts[name.split("_", 1)[1]][:, i])
    rows = [row + ["ok"] for row in np.column_stack([*cols, errs]).tolist()]
    return header + ["abs_error", "status"], rows, float(errs.max())


# ------------------------------------------------------------------ runners

Table = tuple[list[str], list[list], dict]  # CSV header, CSV rows, summary


def _run_pushforward_convergence(cfg: dict) -> Table:
    _numerics()
    f, p = _map_and_point(cfg, cfg["r"])
    domain = _domain_spec(cfg)
    measure, scheme, seed = _sampling_pieces(cfg)
    m = cfg["orders"]["m"]
    oracle = oracle_pushforward(f, p, m)
    q = eval_map_batch(f, p[None, :])[0]
    R_mu, _ = measure_radii(measure, domain)
    n_sweep, N_sweep = _sizes(cfg["orders"], "n"), _sizes(cfg["sampling"], "N")
    n_max = max(n_sweep)

    # one draw, map evaluation, fold and empirical moment matrix per N, all at
    # n_max: graded numbering makes every order's matrices their leading blocks
    folded: dict[int, Any] = {}
    for N in N_sweep:
        try:
            Z0 = draw_samples(measure, N, scheme, seed)
            folded[N] = (fold_pushforward(p, q, m, n_max, _map_samples(f, p + Z0)),
                         moment_matrix(MeasureSpec.empirical(Z0), n_max))
        except JetflowError as exc:
            folded[N] = exc  # every row of this N carries it
    exact_rows = moment_matrix(measure, n_max, exact=True)
    # the box's orthonormal basis gives each block's eigenvalue hint; its leading blocks serve every n
    basis = box_basis(measure, n_max)

    header = ["n", "N", "frobenius_error", "gamma_residual", "lambda_n",
              "rate_bound", "smallest_kept_sv", "status"]
    rows: list[list] = []
    errors: list[float] = []
    memo: dict = {}  # the sweep's leading tables share exact blocks: certify each once
    for n in n_sweep:
        k = jet_dimension(f.d, n)
        leading = [row[:k] for row in exact_rows[:k]]
        D_mu = np.array(leading, dtype=np.float64)  # float() of each entry, as exact=False gives
        try:  # the certified mpf, which the CSV prints also below float64's range
            lam, lam_error = smallest_eigenvalue(leading, 256, memo=memo, basis=basis).Lambda, None
        except JetflowError as exc:
            lam, lam_error = None, exc  # every row of this n carries it
        for N in N_sweep:
            try:
                for failed in (folded[N], lam_error):
                    if isinstance(failed, JetflowError):
                        raise failed
                fold, D_hat = folded[N]
                est = fold.estimate(n)
                err = float(np.linalg.norm(oracle.C - est.C_hat))
                gam = gamma_check(D_mu, D_hat[:k, :k])
                rate = theorem_rate(m, n, R_mu, lam, 1 - gam) if gam < 1 and float(lam) else None
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
    return header, rows, summary


def _run_map_reconstruction(cfg: dict) -> Table:
    _numerics()
    f, p = _map_and_point(cfg, cfg["r"])
    measure, scheme, seed = _sampling_pieces(cfg)
    m, n = cfg["orders"]["m"], cfg["orders"]["n"]
    N = cfg["sampling"]["N"]
    samples = _map_samples(f, p + draw_samples(measure, N, scheme, seed))
    q = eval_map_batch(f, p[None, :])[0]
    est = estimate_pushforward(p, q, m, n, samples)
    header, rows, worst = _grid_table(
        cfg, p, lambda grid: (eval_map_batch(f, grid), reconstruct_eval(est, p, q, m, grid)),
        ("f{}_true_re", "f{}_true_im", "f{}_hat_re", "f{}_hat_im"))
    return header, rows, {"sup_error": worst, "m": m, "n": n, "N": N}


def _run_lsq_equivalence(cfg: dict) -> Table:
    _numerics()
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
    return header, rows, summary


def _run_hankel_rates(cfg: dict) -> Table:
    _numerics()
    a, r = cfg["a"], cfg["r"]
    bits = cfg.get("precision_bits", 256)
    target = math.log(sigma(a, r))
    header = ["n", "lambda_n", "rate", "log_sigma", "gap", "status"]
    rows: list[list] = []
    gap = None
    for spec in hankel_spectrum_sweep(a, r, cfg["n_max"], bits):
        lam = float(spec.Lambda)
        if lam > 0:
            rate = -math.log(lam) / (2 * spec.n + 2)
        else:  # the table is positive definite, so its certified mpf is below float64's range
            import mpmath

            rate = float(-mpmath.log(spec.Lambda) / (2 * spec.n + 2))
        gap = rate - target
        rows.append([spec.n, spec.Lambda, rate, target, gap, "ok"])
    summary = {"final_gap": gap, "log_sigma": target, "precision_bits": bits}
    return header, rows, summary


def _run_vectorfield_recovery(cfg: dict) -> Table:
    _numerics()
    V, p = _map_and_point(cfg, cfg["d"])
    try:
        check_equilibrium(V, p)
    except InputError as exc:
        raise ConfigError([("base_point", str(exc))]) from None
    measure, scheme, seed = _sampling_pieces(cfg)
    m, n = cfg["orders"]["m"], cfg["orders"]["n"]
    T, tol = cfg["flow"]["T"], cfg["flow"]["tol"]
    # the unshifted draw is not kept: the flow runs at the run's peak memory
    Z0 = p + draw_samples(measure, cfg["sampling"]["N"], scheme, seed)
    samples = flow_sample_set(V, T, Z0, tol)
    est = estimate_pushforward(p, p, m, n, samples)
    gen = estimate_generator(est, T)
    pencil_bound = bound_B(est.C_hat)
    header, rows, worst = _grid_table(
        cfg, p, lambda grid: (eval_map_batch(V, grid), reconstruct_field(gen, p, m, grid)),
        ("V{}_true", "V{}_hat_re", "V{}_hat_im"))
    summary = {
        "sup_error": worst,
        "log_residual": gen.log_residual,
        "bound_B": pencil_bound,
        "T": T,
    }
    return header, rows, summary


_RUNNERS: dict[str, Callable[[dict], Table]] = {
    "pushforward-convergence": _run_pushforward_convergence,
    "map-reconstruction": _run_map_reconstruction,
    "lsq-equivalence": _run_lsq_equivalence,
    "hankel-rates": _run_hankel_rates,
    "vectorfield-recovery": _run_vectorfield_recovery,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: dict) -> dict:
    """Validate and run a config; returns {csv, manifest, summary} with paths."""
    issues = validate_config(cfg)
    if issues:
        raise ConfigError(issues)
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    # every runner's BLAS and LAPACK calls run on the calling thread, so no CSV
    # depends on the thread count and no OpenBLAS worker spins on after the run
    with calling_thread():
        header, rows, summary = _RUNNERS[cfg["kind"]](cfg)
    csv_path = outdir / (cfg["kind"].replace("-", "_") + ".csv")
    _write_csv(csv_path, header, rows)
    manifest_path = _write_manifest(outdir, cfg, summary)
    return {"csv": str(csv_path), "manifest": str(manifest_path), "summary": summary}


# -------------------------------------------------------------------- demos

_DEMOS = {
    "pushforward-convergence": {
        "d": 1,
        "r": 1,
        "map": "0.3*z1 + 0.1*z1^2",
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": 3, "n_sweep": [3, 4, 5, 6, 7, 8]},
        "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5], "seed": 7},
    },
    "map-reconstruction": {
        "d": 1,
        "r": 1,
        "map": "exp(z1) - 1",
        "base_point": [0.0],
        "orders": {"m": 6, "n": 8},
        "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5], "seed": 7},
        "eval": {"radii": [0.3], "points_per_axis": 61},
    },
    "lsq-equivalence": {
        "d": 1,
        "map": "sin(z1)",
        "orders": {"m": 5, "n": 7},
        "sampling": {"scheme": "halton", "N": 2000, "support_radii": [0.5], "seed": 7},
    },
    "hankel-rates": {
        "a": 0.0,
        "r": 1.0,
        "n_max": 20,
        "precision_bits": 256,
    },
    "vectorfield-recovery": {
        "d": 1,
        "map": "-z1 + 0.2*z1^2",
        "base_point": [0.0],
        "orders": {"m": 5, "n": 8},
        "flow": {"T": 0.1, "tol": 1e-10},
        "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.4], "seed": 7},
        "eval": {"radii": [0.3], "points_per_axis": 61},
    },
}


def demo_config(kind: str) -> dict:
    """A canned, runnable config for each experiment kind; a fresh copy on every call."""
    if kind not in _DEMOS:
        raise InputError(f"unknown demo kind {kind!r}")
    return {"kind": kind, **copy.deepcopy(_DEMOS[kind]), "output_dir": "jetflow-out"}
