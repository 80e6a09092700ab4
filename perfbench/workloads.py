"""The benchmark's workloads: one jetflow config each, and checks of its CSV rows.

Every check compares against a reference built outside jetflow: a closed-form
function, a closed-form push-forward matrix, or an eigenvalue from mpmath's own
symmetric eigensolver on moments written out here.  ``check`` returns one
verdict per CSV row, because one row is one operation of the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from jetflow.maps import parse_map
from jetflow.pushforward import oracle_pushforward

# acceptance test 05: natural-log equivalent of 0.06 decimal digits
LOG_SIGMA_TOL = 0.06 * math.log(10)
# acceptance test 03: error at the largest n of the sweep
ORACLE_ERR_TOL = 1e-4
# acceptance test 10: pointwise error of the recovered field
FIELD_TOL = 5e-3
# degree-3 read-off against the degree-3 Taylor polynomial; about 50x the
# deviation seen at N = 100 000
TAYLOR_TOL = 1e-4
# bisection stops at relative width 2^-64; the CSV prints 17 digits
EIG_RTOL = 1e-9
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]  # seed -> jetflow config
    reference: Callable[[], dict]  # computed once per process, outside the timed loop
    check: Callable[[list[dict], dict], list[bool]]  # rows, reference -> verdict per row
    seeded: bool  # False when the config draws no samples


def _f(row: dict, key: str) -> float:
    value = row[key]
    return float(value) if value != "" else math.nan


def _sized(verdicts: list[bool], expected: int) -> list[bool]:
    """A CSV without the expected number of rows fails as a whole."""
    return verdicts if len(verdicts) == expected else [False] * max(len(verdicts), 1)


def _smallest_eig(moments: list[Fraction], n: int, bits: int = 256) -> float:
    """Smallest eigenvalue of the (n+1)x(n+1) Hankel matrix of `moments`, by mpmath.eigsy."""
    with mpmath.workprec(bits):
        H = mpmath.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                m = moments[i + j]
                H[i, j] = mpmath.mpf(m.numerator) / m.denominator
        return float(min(mpmath.eigsy(H, eigvals_only=True)))


# ------------------------------------------------------------- hankel-sweep

HANKEL_N_MAX = 20


def _hankel_config(seed: int) -> dict:
    # the hankel-rates demo unchanged; it draws no samples, so the seed is unused
    return {"kind": "hankel-rates", "a": 0.0, "r": 1.0, "n_max": HANKEL_N_MAX,
            "precision_bits": 256}


def _hankel_reference() -> dict:
    # Lebesgue moments on [-1, 1]: 2/(k+1) for even k, 0 for odd k
    moments = [Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
               for k in range(2 * HANKEL_N_MAX + 1)]
    return {
        "lambda": [_smallest_eig(moments, n) for n in range(HANKEL_N_MAX + 1)],
        # decay base of [-1, 1] Hankel spectra: 1 + sqrt(2)
        "log_sigma": math.log(1.0 + math.sqrt(2.0)),
    }


def _hankel_check(rows: list[dict], ref: dict) -> list[bool]:
    out = []
    prev = math.inf
    for row in rows:
        n, lam = int(row["n"]), _f(row, "lambda_n")
        ok = (row["status"] == "ok"
              and 0 < lam < prev
              and abs(lam - ref["lambda"][n]) <= EIG_RTOL * ref["lambda"][n])
        if n == HANKEL_N_MAX:
            rate = -math.log(lam) / (2 * n + 2)
            ok = ok and abs(rate - ref["log_sigma"]) < LOG_SIGMA_TOL
        out.append(ok)
        prev = lam
    return _sized(out, HANKEL_N_MAX + 1)


# ----------------------------------------------------------- convergence-d1

CONV_MAP = "0.3*z1 + 0.1*z1^2"
CONV_COEFFS = (0.0, 0.3, 0.1)
CONV_M = 3
CONV_N = tuple(range(3, 9))
CONV_RADIUS = Fraction(1, 2)


def _convergence_config(seed: int) -> dict:
    return {
        "kind": "pushforward-convergence", "d": 1, "r": 1, "map": CONV_MAP,
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": CONV_M, "n_sweep": list(CONV_N)},
        "sampling": {"scheme": "iid", "N_sweep": [4000, 20000],
                     "support_radii": [float(CONV_RADIUS)], "seed": seed},
    }


def _convergence_reference() -> dict:
    # normalized uniform moments on [-1/2, 1/2]: (1/2)^k / (k+1) for even k
    moments = [CONV_RADIUS ** k / (k + 1) if k % 2 == 0 else Fraction(0)
               for k in range(2 * max(CONV_N) + 1)]
    # at p = q = 0 the features are z^a / sqrt(a!), so the push-forward entry
    # (b, a) is sqrt(a!/b!) times the z^a coefficient of f(z)^b
    C = np.zeros((CONV_M + 1, CONV_M + 1))
    for b in range(CONV_M + 1):
        power = npoly.polypow(CONV_COEFFS, b)
        for a in range(min(CONV_M + 1, len(power))):
            C[b, a] = math.sqrt(math.factorial(a) / math.factorial(b)) * power[a]
    oracle = oracle_pushforward(parse_map(CONV_MAP, 1, 1), np.zeros(1), CONV_M).C
    return {
        "lambda": {n: _smallest_eig(moments, n) for n in CONV_N},
        # the CSV's errors are measured against jetflow's oracle, so the oracle
        # itself must match the closed form
        "oracle_ok": bool(np.abs(oracle - C).max() <= EXACT_TOL),
    }


def _convergence_check(rows: list[dict], ref: dict) -> list[bool]:
    out = []
    prev_err: dict[int, float] = {}
    for row in rows:
        n, N = int(row["n"]), int(row["N"])
        err, gam, lam = _f(row, "frobenius_error"), _f(row, "gamma_residual"), _f(row, "lambda_n")
        ok = (row["status"] == "ok" and ref["oracle_ok"]
              and n in ref["lambda"]
              and abs(lam - ref["lambda"][n]) <= EIG_RTOL * ref["lambda"][n]
              and 0 <= gam < 1
              and 0 <= err <= _f(row, "rate_bound"))
        # acceptance 03: no growth along n beyond 20% or the 1e-12 roundoff floor
        if N in prev_err:
            ok = ok and err <= max(1.2 * prev_err[N], 1e-12)
        if n == max(CONV_N):
            ok = ok and err < ORACLE_ERR_TOL
        prev_err[N] = err
        out.append(bool(ok))
    return _sized(out, 2 * len(CONV_N))


# -------------------------------------------------------------- estimate-d3

def _estimate_config(seed: int) -> dict:
    return {
        "kind": "map-reconstruction", "d": 3, "r": 1,
        "map": "exp(z1)*cos(z2) - 1 + z3*z1",
        "base_point": [0.0, 0.0, 0.0],
        "domain": {"kind": "box", "radii": [1.0, 1.0, 1.0]},
        "orders": {"m": 3, "n": 6},
        "sampling": {"scheme": "iid", "N": 100000, "support_radii": [0.5, 0.5, 0.5],
                     "seed": seed},
        "eval": {"radii": [0.3, 0.3, 0.3], "points_per_axis": 7},
    }


def _estimate_check(rows: list[dict], ref: dict) -> list[bool]:
    out = []
    for row in rows:
        z1, z2, z3 = _f(row, "z1"), _f(row, "z2"), _f(row, "z3")
        exact = math.exp(z1) * math.cos(z2) - 1 + z3 * z1
        # degree-3 Taylor polynomial: exp(z1) cos(z2) = Re exp(z1 + i z2)
        w = complex(z1, z2)
        taylor = sum((w ** k).real / math.factorial(k) for k in range(4)) - 1 + z3 * z1
        hat = complex(_f(row, "f1_hat_re"), _f(row, "f1_hat_im"))
        out.append(row["status"] == "ok"
                   and abs(_f(row, "f1_true_re") - exact) <= EXACT_TOL
                   and abs(_f(row, "f1_true_im")) <= EXACT_TOL
                   and abs(hat - taylor) <= TAYLOR_TOL)
    return _sized(out, 7 ** 3)


# ------------------------------------------------------------------ flow-d2

def _flow_config(seed: int) -> dict:
    return {
        "kind": "vectorfield-recovery", "d": 2,
        "map": "-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2",
        "base_point": [0.0, 0.0],
        "domain": {"kind": "box", "radii": [1.0, 1.0]},
        "orders": {"m": 3, "n": 6},
        "flow": {"T": 0.5, "tol": 1e-10},
        "sampling": {"scheme": "iid", "N": 100000, "support_radii": [0.4, 0.4], "seed": seed},
        "eval": {"radii": [0.3, 0.3], "points_per_axis": 41},
    }


def _flow_check(rows: list[dict], ref: dict) -> list[bool]:
    out = []
    for row in rows:
        z1, z2 = _f(row, "z1"), _f(row, "z2")
        field = (-z1 + 0.2 * z2 ** 2, -2 * z2 + 0.3 * z1 * z2)
        ok = row["status"] == "ok"
        for i, exact in enumerate(field, start=1):
            hat = complex(_f(row, f"V{i}_hat_re"), _f(row, f"V{i}_hat_im"))
            ok = (ok and abs(_f(row, f"V{i}_true") - exact) <= EXACT_TOL
                  and abs(hat - exact) < FIELD_TOL)
        out.append(bool(ok))
    return _sized(out, 41 ** 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hankel-sweep", _hankel_config, _hankel_reference, _hankel_check, False),
        Workload("convergence-d1", _convergence_config, _convergence_reference,
                 _convergence_check, True),
        Workload("estimate-d3", _estimate_config, dict, _estimate_check, True),
        Workload("flow-d2", _flow_config, dict, _flow_check, True),
    )
}
