"""Acceptance suite: twelve end-to-end criteria with fixed tolerances.

Each test prints one `acceptance NN <name>: PASS|FAIL` line (bypassing
capture so the line always reaches the terminal) and then asserts.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from jetflow.errors import SpectrumError
from jetflow.experiments import run_experiment
from jetflow.fock import SampleSet, feature_matrix_U, projection_tail_sq
from jetflow.hankel import (
    MeasureSpec,
    hankel_spectrum_sweep,
    lebesgue_hankel,
    moment_matrix,
    rectangle_lower_bound,
    sample_complexity,
    sigma,
    smallest_eigenvalue,
)
from jetflow.maps import compose_maps, eval_map_batch, parse_map
from jetflow.multiindex import graded_numbering, jet_dimension
from jetflow.pushforward import (
    estimate_pushforward,
    gamma_check,
    oracle_pushforward,
)
from jetflow.reconstruct import lsq_equivalence_check
from jetflow.sampling import draw_samples
from jetflow.vectorfield import estimate_generator, flow_sample_set, matrix_log, reconstruct_field

LOG_SIGMA_TOL = 0.06 * math.log(10)  # natural-log equivalent of 0.06 decimal digits


@pytest.fixture
def report(capsys):
    def emit(num, name, ok, detail=""):
        line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print("\n" + line, flush=True)

    return emit


def samples_for(f, p, Z0):
    Z = np.asarray(p, dtype=np.float64) + Z0
    return SampleSet(Z=Z, W=eval_map_batch(f, Z))


def random_poly_map(rng, d, deg=2, scale=0.4):
    table = graded_numbering(d, deg)
    comps = []
    for _ in range(d):
        parts = []
        for alpha in table.entries[1:]:
            mono = "*".join(f"z{k + 1}^{a}" for k, a in enumerate(alpha) if a)
            parts.append(f"{rng.uniform(-scale, scale):+.6f}*{mono}")
        comps.append("".join(parts))
    return parse_map(";".join(comps), d, d)


def test_01_identity_exactness(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for d in (1, 2):
        ident = parse_map(";".join(f"z{k + 1}" for k in range(d)), d, d)
        for m in (2, 3):
            rn = jet_dimension(d, m)
            Z0 = rng.uniform(-0.5, 0.5, (10 * rn, d))
            est = estimate_pushforward([0.0] * d, [0.0] * d, m, m, samples_for(ident, [0.0] * d, Z0))
            worst = max(worst, np.linalg.norm(est.C_hat - np.eye(rn)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "identity-exactness", ok, f"max frobenius dev {worst:.2e}")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_02_linear_map_spectrum(report):
    t0 = time.perf_counter()
    f = parse_map("0.5*z1", 1, 1)
    rng = np.random.default_rng(2)
    Z0 = rng.uniform(-0.5, 0.5, (200, 1))
    est = estimate_pushforward([0.0], [0.0], 3, 3, samples_for(f, [0.0], Z0))
    dev = np.abs(est.C_hat - np.diag([1, 0.5, 0.25, 0.125])).max()
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-6 and elapsed < 1.0
    report(2, "linear-map-spectrum", ok, f"entrywise dev {dev:.2e}")
    assert dev < 1e-6
    assert elapsed < 1.0


def test_03_oracle_convergence_in_n(report):
    t0 = time.perf_counter()
    f = parse_map("0.3*z1 + 0.1*z1^2", 1, 1)
    oracle = oracle_pushforward(f, np.array([0.0]), 3).C
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z0 = draw_samples(mu, 4000, "halton")
    errs = []
    for n in range(3, 9):
        est = estimate_pushforward([0.0], [0.0], 3, n, samples_for(f, [0.0], Z0))
        errs.append(np.linalg.norm(oracle - est.C_hat))
    # below ~1e-12 the sweep sits at the roundoff floor and ratios are noise
    decreasing = all(b <= max(1.2 * a, 1e-12) for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    ok = errs[-1] < 1e-4 and decreasing and elapsed < 10.0
    report(3, "oracle-convergence", ok, f"err(n=8) {errs[-1]:.2e}")
    assert errs[-1] < 1e-4
    assert decreasing, errs
    assert elapsed < 10.0


def test_04_composition_functoriality(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        f = random_poly_map(rng, d)
        g = random_poly_map(rng, d)
        p = rng.uniform(-0.3, 0.3, d)
        q = eval_map_batch(f, p[None, :])[0].real
        m = int(rng.integers(2, 5))
        Cf = oracle_pushforward(f, p, m).C
        Cg = oracle_pushforward(g, q, m).C
        Cgf = oracle_pushforward(compose_maps(g, f), p, m).C
        worst = max(worst, np.linalg.norm(Cgf - Cg @ Cf))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(4, "composition-functoriality", ok, f"max frobenius dev {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_05_hankel_decay_rate(report):
    t0 = time.perf_counter()
    specs = hankel_spectrum_sweep(0.0, 1.0, 20, 256)
    lams = [float(s.Lambda) for s in specs]
    strictly_decreasing = all(a > b for a, b in zip(lams, lams[1:]))
    rate = -math.log(lams[-1]) / (2 * 20 + 2)
    gap = abs(rate - math.log(sigma(0.0, 1.0)))
    elapsed = time.perf_counter() - t0
    ok = gap < LOG_SIGMA_TOL and strictly_decreasing and elapsed < 30.0
    report(5, "hankel-decay-rate", ok, f"gap {gap:.3f} < {LOG_SIGMA_TOL:.3f}")
    assert gap < LOG_SIGMA_TOL
    assert strictly_decreasing
    assert elapsed < 30.0


def test_06_rectangle_lower_bound(report):
    t0 = time.perf_counter()
    mu = MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0], normalized=False)
    ok = True
    gaps = []
    for n in range(5):
        left = float(smallest_eigenvalue(moment_matrix(mu, n, exact=True), 256).Lambda)
        right = rectangle_lower_bound([0.0, 0.0], [1.0, 1.0], n, 256)
        gaps.append(left - right)
        ok = ok and left >= right * (1 - 1e-12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(6, "rectangle-lower-bound", ok, f"min slack {min(gaps):.2e}")
    assert all(g >= -1e-15 for g in gaps)
    assert elapsed < 30.0


def test_07_sample_complexity(report):
    t0 = time.perf_counter()
    exact = sample_complexity(1, 1, 1 / 3, 1.0, 0.1) == 432
    mu = MeasureSpec.uniform_box([0.0], [1.0])
    truth = {n: moment_matrix(mu, n) for n in range(1, 5)}
    hits = 0
    for seed in range(100):
        Z = draw_samples(mu, 20000, "iid", seed=seed)
        emp = MeasureSpec.empirical(Z)
        if all(gamma_check(truth[n], moment_matrix(emp, n)) <= 0.5 for n in range(1, 5)):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = exact and hits >= 90 and elapsed < 60.0
    report(7, "sample-complexity", ok, f"formula 432 {'ok' if exact else 'bad'}, {hits}/100 trials")
    assert exact
    assert hits >= 90
    assert elapsed < 60.0


def test_08_lsq_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 5))
        terms = [f"{rng.uniform(-1, 1):+.6f}"]
        terms += [f"{rng.uniform(-1, 1):+.6f}*z1^{k}" for k in range(1, deg + 1)]
        g = parse_map("".join(terms), 1, 1)
        X = rng.uniform(-0.8, 0.8, (80, 1))
        m = deg
        n = deg + int(rng.integers(0, 3))
        worst = max(worst, lsq_equivalence_check(g, X, m, n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(8, "lsq-equivalence", ok, f"max coefficient dev {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_09_matrix_log(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    while count < 50:
        A = rng.uniform(-0.4, 0.4, (5, 5)) + np.eye(5)
        if np.linalg.eigvals(A).real.min() <= 0.05:
            continue
        count += 1
        L = matrix_log(A)
        worst = max(worst, np.linalg.norm(scipy.linalg.expm(L) - A) / np.linalg.norm(A))
    nilp = np.abs(matrix_log(np.array([[1.0, 1.0], [0.0, 1.0]])) - [[0, 1], [0, 0]]).max()
    rejected = False
    try:
        matrix_log(np.diag([1.0, -2.0]))
    except SpectrumError:
        rejected = True
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and nilp <= 1e-10 and rejected and elapsed < 5.0
    report(9, "matrix-log", ok, f"exp-log rel dev {worst:.2e}, nilpotent dev {nilp:.2e}")
    assert worst <= 1e-8
    assert nilp <= 1e-10
    assert rejected
    assert elapsed < 5.0


def test_10_vectorfield_recovery(report):
    t0 = time.perf_counter()
    V = parse_map("-z1 + 0.2*z1^2", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.4])
    Z = draw_samples(mu, 4000, "iid", seed=10)
    samples = flow_sample_set(V, 0.1, Z, 1e-10)
    est = estimate_pushforward([0.0], [0.0], 5, 8, samples)
    gen = estimate_generator(est, 0.1)
    sup = max(
        abs(reconstruct_field(gen, [0.0], 5, [z])[0] - (-z + 0.2 * z * z))
        for z in np.linspace(-0.3, 0.3, 61)
    )

    lin = parse_map("-z1", 1, 1)
    mu2 = MeasureSpec.uniform_box([0.0], [0.5])
    Z2 = draw_samples(mu2, 2000, "iid", seed=11)
    est2 = estimate_pushforward([0.0], [0.0], 3, 3, flow_sample_set(lin, 0.1, Z2, 1e-10))
    gen2 = estimate_generator(est2, 0.1)
    lin_dev = np.abs(gen2.A_hat - np.diag([0.0, -1.0, -2.0, -3.0])).max()
    elapsed = time.perf_counter() - t0
    ok = sup < 5e-3 and lin_dev < 2e-3 and elapsed < 60.0
    report(10, "vectorfield-recovery", ok, f"sup dev {sup:.2e}, generator dev {lin_dev:.2e}")
    assert sup < 5e-3
    assert lin_dev < 2e-3
    assert elapsed < 60.0


def test_11_projection_tail_closed_form(report):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        for p0 in (0.0, 0.7):
            p = np.full(d, p0)
            w = np.full(d, 0.45) + 1j * np.full(d, 0.15)
            u_all = feature_matrix_U(p, 40, w[None, :])[0]
            for n in range(7):
                head = jet_dimension(d, n)
                brute = float(np.sum(np.abs(u_all[head:]) ** 2))
                worst = max(worst, abs(projection_tail_sq(p, n, w) - brute))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(11, "projection-tail", ok, f"max dev {worst:.2e}")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_12_determinism(tmp_path, report):
    t0 = time.perf_counter()
    cfg = {
        "kind": "pushforward-convergence",
        "d": 1,
        "r": 1,
        "map": "0.3*z1 + 0.1*z1^2",
        "base_point": [0.0],
        "domain": {"kind": "box", "radii": [1.0]},
        "orders": {"m": 3, "n_sweep": [3, 4, 5, 6, 7, 8]},
        "sampling": {"scheme": "halton", "N": 4000, "support_radii": [0.5], "seed": 20260814},
    }
    bodies = []
    manifests = []
    for tag in ("first", "second"):
        cfg["output_dir"] = str(tmp_path / tag)
        result = run_experiment(cfg)
        bodies.append((tmp_path / tag / "pushforward_convergence.csv").read_bytes())
        manifests.append(json.loads((tmp_path / tag / "run_manifest.json").read_text()))
    identical = bodies[0] == bodies[1]
    same_summary = manifests[0]["summary"] == manifests[1]["summary"]
    elapsed = time.perf_counter() - t0
    ok = identical and same_summary
    report(12, "determinism", ok, f"{len(bodies[0])} csv bytes")
    assert identical
    assert same_summary
    assert elapsed < 60.0
