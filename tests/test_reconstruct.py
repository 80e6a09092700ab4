import math

import numpy as np
import pytest

from jetflow.errors import EstimatorIllPosedError, JetflowError
from jetflow.fock import SampleSet, basis_gradient_at_zero, feature_matrix_U
from jetflow.hankel import MeasureSpec
from jetflow.maps import Bin, Const, MapExpr, Var, eval_map, eval_map_batch, parse_map
from jetflow.multiindex import jet_dimension
from jetflow.pushforward import PushforwardEstimate, estimate_pushforward, oracle_pushforward
from jetflow.reconstruct import (
    lsq_equivalence_check,
    monomial_design,
    pipeline_and_lsq_coefficients,
    read_off,
    reconstruct_eval,
    truncated_lsq,
)
from jetflow.sampling import draw_samples


def samples_for(f, p, Z0):
    Z = np.asarray(p, dtype=np.float64) + Z0
    return SampleSet(Z=Z, W=eval_map_batch(f, Z))


def oracle_estimate(f, p, m, d=1):
    o = oracle_pushforward(f, np.asarray(p, dtype=np.float64), m)
    return PushforwardEstimate(
        C_hat=o.C, m=m, n=m, d=d, r=d,
        pinv_rcond=0.0, smallest_kept_sv=1.0, largest_sv=1.0,
    )


def test_identity_reconstruction_exact():
    f = parse_map("z1", 1, 1)
    Z0 = np.linspace(-0.5, 0.5, 10)[:, None]
    est = estimate_pushforward([0.0], [0.0], 2, 2, samples_for(f, [0.0], Z0))
    out = reconstruct_eval(est, [0.0], [0.0], 2, [0.3])
    assert abs(out[0] - 0.3) < 1e-12


def test_linear_reconstruction_from_oracle():
    f = parse_map("0.5*z1", 1, 1)
    est = oracle_estimate(f, [0.0], 3)
    out = reconstruct_eval(est, [0.0], [0.0], 3, [0.4])
    assert abs(out[0] - 0.2) < 1e-12


def test_exp_map_sup_error():
    f = parse_map("exp(z1)-1", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z0 = draw_samples(mu, 4000, "iid", seed=11)
    est = estimate_pushforward([0.0], [0.0], 6, 8, samples_for(f, [0.0], Z0))
    worst = 0.0
    for z in np.linspace(-0.3, 0.3, 61):
        out = reconstruct_eval(est, [0.0], [0.0], 6, [z])
        worst = max(worst, abs(out[0] - (math.exp(z) - 1)))
    assert worst < 5e-3


def test_two_dimensional_reconstruction():
    f = parse_map("0.4*z1 + 0.1*z2^2; 0.3*z2", 2, 2)
    mu = MeasureSpec.uniform_box([0.0, 0.0], [0.5, 0.5])
    Z0 = draw_samples(mu, 2000, "halton")
    est = estimate_pushforward([0.0, 0.0], [0.0, 0.0], 3, 6, samples_for(f, [0.0, 0.0], Z0))
    rng = np.random.default_rng(5)
    for z in rng.uniform(-0.3, 0.3, (15, 2)):
        out = reconstruct_eval(est, [0.0, 0.0], [0.0, 0.0], 3, z)
        assert np.abs(out - np.array(eval_map(f, z))).max() < 1e-8


def test_m_mismatch_rejected():
    f = parse_map("z1", 1, 1)
    est = oracle_estimate(f, [0.0], 2)
    with pytest.raises(ValueError):
        reconstruct_eval(est, [0.0], [0.0], 3, [0.1])


def test_error_decreases_with_m():
    f = parse_map("exp(z1)-1", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z0 = draw_samples(mu, 4000, "halton")
    grid = np.linspace(-0.3, 0.3, 61)
    errs = []
    for m in range(2, 7):
        est = estimate_pushforward([0.0], [0.0], m, m, samples_for(f, [0.0], Z0))
        worst = max(
            abs(reconstruct_eval(est, [0.0], [0.0], m, [z])[0] - (math.exp(z) - 1))
            for z in grid
        )
        errs.append(worst)
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.2 * a


def test_truncated_lsq_exact_class():
    X = np.array([[-1.0], [0.0], [1.0], [0.5]])
    Y = X[:, 0] ** 2
    assert np.allclose(truncated_lsq(X, Y, 2, 2), [0, 0, 1], atol=1e-10)
    assert np.allclose(truncated_lsq(X, Y, 1, 2), [0, 0], atol=1e-10)


def test_truncated_lsq_sin_taylor():
    X = np.linspace(-0.5, 0.5, 50)[:, None]
    Y = np.sin(X[:, 0])
    coef = truncated_lsq(X, Y, 5, 7)
    expect = [0, 1, 0, -1 / 6, 0, 1 / 120]
    assert np.abs(coef - np.array(expect)).max() < 1e-4


def test_truncated_lsq_rank_deficient():
    X = np.zeros((6, 1))
    with pytest.raises(EstimatorIllPosedError):
        truncated_lsq(X, np.zeros(6), 1, 2)


def test_truncated_lsq_few_points_warns():
    X = np.array([[0.0], [1.0]])
    with pytest.warns(UserWarning, match="underdetermined"):
        with pytest.raises(EstimatorIllPosedError):
            truncated_lsq(X, np.array([0.0, 1.0]), 1, 2)


def test_lsq_equivalence_simple():
    X = np.linspace(-0.7, 0.7, 10)[:, None]
    g = parse_map("z1^2", 1, 1)
    assert lsq_equivalence_check(g, X, 2, 2) < 1e-10


def test_lsq_equivalence_constant_map():
    X = np.linspace(-0.5, 0.5, 12)[:, None]
    g = parse_map("3.5", 1, 1)
    assert lsq_equivalence_check(g, X, 2, 3) < 1e-12


def test_lsq_equivalence_exp():
    X = np.linspace(-0.5, 0.5, 100)[:, None]
    g = parse_map("exp(z1)", 1, 1)
    assert lsq_equivalence_check(g, X, 3, 6) < 1e-9


def test_lsq_equivalence_2d_seeded():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        coef = rng.uniform(-1, 1, 3)
        if d == 1:
            src = f"{coef[0]:+.5f} {coef[1]:+.5f}*z1 {coef[2]:+.5f}*z1^2"
        else:
            src = f"{coef[0]:+.5f} {coef[1]:+.5f}*z1*z2 {coef[2]:+.5f}*z2^2"
        g = parse_map(src, d, 1)
        X = rng.uniform(-0.8, 0.8, (60, d))
        worst = max(worst, lsq_equivalence_check(g, X, 2, 4))
    assert worst < 1e-9


def test_pipeline_constant_restored():
    X = np.linspace(-0.5, 0.5, 30)[:, None]
    g = parse_map("2 + z1", 1, 1)
    mono, direct = pipeline_and_lsq_coefficients(g, X, 1, 3)
    assert mono[0] == pytest.approx(2.0, abs=1e-10)
    assert np.abs(mono - direct).max() < 1e-10


def _read_off_by_point(matrix, p, q, m, Z):
    """Reference: one feature row and one gradient vector per point and component."""
    out = np.empty((len(Z), len(q)), dtype=np.complex128)
    for k, z in enumerate(Z):
        u = feature_matrix_U(p, m, z[None, :])[0]
        for i in range(1, len(q) + 1):
            out[k, i - 1] = u @ matrix.conj().T @ np.conj(basis_gradient_at_zero(q, m, i))
    return out


@pytest.mark.parametrize("d,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_read_off_grid_matches_pointwise(d, r):
    rng = np.random.default_rng(10 * d + r)
    m = 3
    p = rng.uniform(-0.3, 0.3, d) + 1j * rng.uniform(-0.3, 0.3, d)
    q = rng.uniform(-0.3, 0.3, r) + 1j * rng.uniform(-0.3, 0.3, r)
    shape = (jet_dimension(r, m), jet_dimension(d, m))
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Z = rng.uniform(-0.5, 0.5, (25, d)) + 1j * rng.uniform(-0.5, 0.5, (25, d))
    out = read_off(matrix, p, q, m, Z)
    assert out.shape == (25, r)
    ref = _read_off_by_point(matrix, p, q, m, Z)
    assert np.abs(out - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_reconstruct_eval_point_and_grid():
    f = parse_map("0.4*z1 + 0.1*z2^2; 0.3*z2", 2, 2)
    est = oracle_estimate(f, [0.0, 0.0], 3, d=2)
    grid = np.random.default_rng(6).uniform(-0.3, 0.3, (7, 2))
    out = reconstruct_eval(est, [0.0, 0.0], [0.0, 0.0], 3, grid)
    assert out.shape == (7, 2)
    for k, z in enumerate(grid):
        single = reconstruct_eval(est, [0.0, 0.0], [0.0, 0.0], 3, z)
        assert single.shape == (2,)
        assert np.abs(single - out[k]).max() < 1e-15
        assert np.abs(single - eval_map(f, z)).max() < 1e-12


def test_monomial_design_graded_columns():
    # graded order for d=2, n=2: 1, x, y, x^2, xy, y^2
    P = monomial_design([[2, 3], [-1, 0.5]], 2)
    assert P.dtype == np.float64
    assert np.array_equal(P, [[1, 2, 3, 4, 6, 9], [1, -1, 0.5, 1, -0.5, 0.25]])
    assert np.array_equal(monomial_design([2.0], 3), [[1, 2, 4, 8]])


def test_truncated_lsq_no_points_is_underdetermined():
    with pytest.warns(UserWarning, match="underdetermined"):
        with pytest.raises(EstimatorIllPosedError, match="numerical rank 0 < 3"):
            truncated_lsq(np.empty((0, 1)), [], 1, 2)


def test_truncated_lsq_non_finite_value():
    X = np.linspace(-0.5, 0.5, 10)[:, None]
    Y = X[:, 0] ** 2
    Y[3] = np.nan
    with pytest.raises(EstimatorIllPosedError, match="non-finite"):
        truncated_lsq(X, Y, 1, 2)


@pytest.mark.parametrize("fit", [
    lambda X: monomial_design(X, 2),
    lambda X: truncated_lsq(X, X[:, 0].real ** 2, 2, 2),
    lambda X: pipeline_and_lsq_coefficients(parse_map("z1^2", 1, 1), X, 2, 2),
], ids=["monomial_design", "truncated_lsq", "pipeline_and_lsq_coefficients"])
def test_complex_points_are_rejected(fit):
    # a cast to float64 would fit x^2 to the real parts of (1 + 0.5j) x, with a wrong coefficient
    X = (np.linspace(-0.5, 0.5, 20) * (1 + 0.5j))[:, None]
    with pytest.raises(ValueError, match="complex sample points are not supported"):
        fit(X)


_POINTS = np.linspace(-0.5, 0.5, 20)[:, None]


@pytest.mark.parametrize("call", [
    lambda: reconstruct_eval(oracle_estimate(parse_map("z1", 1, 1), [0.0], 2), [0.0], [0.0], 3, [0.1]),
    lambda: truncated_lsq(_POINTS, _POINTS[:, 0], 2, 1),
    lambda: truncated_lsq(_POINTS, _POINTS[:-1, 0], 1, 2),
    lambda: pipeline_and_lsq_coefficients(parse_map("z1; z1", 1, 2), _POINTS, 1, 2),
    lambda: pipeline_and_lsq_coefficients(parse_map("z1", 1, 1), np.hstack([_POINTS, _POINTS]), 1, 2),
    lambda: pipeline_and_lsq_coefficients(MapExpr(1, 1, (Bin("+", Var(1), Const(1j)),), "z1 + 1j"),
                                          _POINTS, 1, 2),
], ids=["order-mismatch", "orders", "value-count", "not-scalar", "point-shape", "complex-value-at-0"])
def test_argument_checks_raise_a_jetflow_error(call):
    # a JetflowError, so `jetflow run` turns it into a record, and a ValueError as before
    with pytest.raises(JetflowError):
        call()
