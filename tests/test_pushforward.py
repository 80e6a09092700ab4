import math
import tracemalloc

import numpy as np
import pytest

from jetflow.errors import EstimatorIllPosedError, NonPositiveDefiniteError
from jetflow.fock import SampleSet, basis_u, basis_v, feature_matrix_U, feature_matrix_V
from jetflow.hankel import MeasureSpec, moment_matrix
from jetflow.maps import compose_maps, eval_map_batch, parse_map
from jetflow.multiindex import graded_numbering, jet_dimension
from jetflow.pushforward import (
    _BLOCK_ROWS,
    _triangular_factor,
    estimate_pushforward,
    fold_pushforward,
    gamma_check,
    oracle_pushforward,
    rank_checked_lstsq,
    theorem_rate,
)
from jetflow.sampling import draw_samples, halton_points


def samples_for(f, p, Z0):
    Z = np.asarray(p, dtype=np.float64) + Z0
    return SampleSet(Z=Z, W=eval_map_batch(f, Z), provenance="test")


def image_point(f, p):
    return eval_map_batch(f, np.asarray(p, dtype=np.float64)[None, :])[0]


def random_poly_map(rng, d, deg=2, scale=0.4):
    terms = []
    table = graded_numbering(d, deg)
    comps = []
    for _ in range(d):
        parts = []
        for alpha in table.entries[1:]:
            c = rng.uniform(-scale, scale)
            mono = "*".join(f"z{k + 1}^{a}" for k, a in enumerate(alpha) if a)
            parts.append(f"{c:+.6f}*{mono}")
        comps.append("".join(parts))
    return parse_map(";".join(comps), d, d)


def test_identity_map_exact():
    f = parse_map("z1", 1, 1)
    Z0 = np.linspace(-0.5, 0.5, 10)[:, None]
    est = estimate_pushforward([0.0], [0.0], 2, 2, samples_for(f, [0.0], Z0))
    assert np.abs(est.C_hat - np.eye(3)).max() < 1e-9


def test_identity_2d_at_nonzero_point():
    f = parse_map("z1; z2", 2, 2)
    rng = np.random.default_rng(0)
    Z0 = rng.uniform(-0.5, 0.5, (60, 2))
    p = np.array([0.3, -0.2])
    est = estimate_pushforward(p, p, 2, 2, samples_for(f, p, Z0))
    assert np.abs(est.C_hat - np.eye(6)).max() < 1e-9


def test_linear_map_diagonal():
    f = parse_map("0.5*z1", 1, 1)
    rng = np.random.default_rng(1)
    Z0 = rng.uniform(-0.5, 0.5, (200, 1))
    est = estimate_pushforward([0.0], [0.0], 3, 3, samples_for(f, [0.0], Z0))
    assert np.abs(est.C_hat - np.diag([1, 0.5, 0.25, 0.125])).max() < 1e-6


def test_ill_posed_when_rank_deficient():
    f = parse_map("z1", 1, 1)
    Z0 = np.zeros((8, 1))
    with pytest.raises(EstimatorIllPosedError) as info:
        estimate_pushforward([0.0], [0.0], 2, 2, samples_for(f, [0.0], Z0))
    assert info.value.singular_values is not None


def test_underdetermined_warns_then_ill_posed():
    f = parse_map("z1", 1, 1)
    Z0 = np.linspace(-0.5, 0.5, 3)[:, None]
    with pytest.warns(UserWarning, match="underdetermined"):
        with pytest.raises(EstimatorIllPosedError):
            estimate_pushforward([0.0], [0.0], 2, 4, samples_for(f, [0.0], Z0))


def test_non_finite_samples_are_ill_posed():
    f = parse_map("z1", 1, 1)
    Z = np.linspace(-0.5, 0.5, 20)[:, None]
    W = eval_map_batch(f, Z)
    Z_nan, W_inf = Z.copy(), W.copy()
    Z_nan[4, 0] = np.nan
    W_inf[7, 0] = np.inf
    for samples in (SampleSet(Z=Z_nan, W=W, provenance="test"),
                    SampleSet(Z=Z, W=W_inf, provenance="test")):
        with np.errstate(invalid="ignore"):
            with pytest.raises(EstimatorIllPosedError, match="non-finite"):
                estimate_pushforward([0.0], [0.0], 2, 3, samples)


def test_no_rows_is_underdetermined():
    with pytest.warns(UserWarning, match="underdetermined"):
        with pytest.raises(EstimatorIllPosedError, match="numerical rank 0 < 3"):
            rank_checked_lstsq([], 3, "x")


def test_m_greater_than_n_rejected():
    f = parse_map("z1", 1, 1)
    Z0 = np.linspace(-0.5, 0.5, 10)[:, None]
    with pytest.raises(ValueError):
        estimate_pushforward([0.0], [0.0], 3, 2, samples_for(f, [0.0], Z0))


def test_oracle_identity_any_point():
    f = parse_map("z1; z2", 2, 2)
    for p in ([0.0, 0.0], [0.7, -0.4]):
        o = oracle_pushforward(f, np.array(p), 3)
        assert np.abs(o.C - np.eye(jet_dimension(2, 3))).max() < 1e-12


def test_oracle_linear_diagonal():
    f = parse_map("0.5*z1", 1, 1)
    o = oracle_pushforward(f, np.array([0.0]), 3)
    assert np.allclose(o.C, np.diag([1, 0.5, 0.25, 0.125]), atol=1e-13)
    assert o.jacobian[0, 0] == pytest.approx(0.5)


def test_oracle_quadratic_coupling():
    f = parse_map("z1 + z1^2", 1, 1)
    o = oracle_pushforward(f, np.array([0.0]), 2)
    expect = np.array([[1, 0, 0], [0, 1, math.sqrt(2)], [0, 0, 1]])
    assert np.abs(o.C - expect).max() < 1e-12


def test_oracle_block_triangular():
    rng = np.random.default_rng(2)
    f = random_poly_map(rng, 2)
    p = np.array([0.1, -0.2])
    o = oracle_pushforward(f, p, 4)
    table = graded_numbering(2, 4)
    for j, beta in enumerate(table.entries):
        for i, alpha in enumerate(table.entries):
            if sum(beta) > sum(alpha):
                assert abs(o.C[j, i]) < 1e-12


def test_oracle_eigenvalues_are_jacobian_products():
    f = parse_map("0.5*z1 + 0.1*z2 + 0.2*z1^2; 0.3*z2 - 0.1*z1*z2", 2, 2)
    o = oracle_pushforward(f, np.array([0.0, 0.0]), 3)
    table = graded_numbering(2, 3)
    expect = sorted(0.5 ** a[0] * 0.3 ** a[1] for a in table.entries)
    got = sorted(np.linalg.eigvals(o.C).real)
    assert np.allclose(got, expect, atol=1e-8)


def test_oracle_matches_estimator_for_entire_map():
    f = parse_map("exp(z1)-1", 1, 1)
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    Z0 = draw_samples(mu, 5000, "halton")
    est = estimate_pushforward([0.0], [0.0], 2, 8, samples_for(f, [0.0], Z0))
    o = oracle_pushforward(f, np.array([0.0]), 2)
    assert np.linalg.norm(o.C - est.C_hat) < 1e-4


def test_oracle_matches_estimator_shifted_base_point():
    f = parse_map("0.2*z1 + 0.3*z1^2", 1, 1)
    p = np.array([0.25])
    q = image_point(f, p)
    mu = MeasureSpec.uniform_box([0.0], [0.4])
    Z0 = draw_samples(mu, 4000, "halton")
    est = estimate_pushforward(p, q, 2, 8, samples_for(f, p, Z0))
    o = oracle_pushforward(f, p, 2)
    assert np.linalg.norm(o.C - est.C_hat) < 1e-6


def test_composition_functoriality():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        f = random_poly_map(rng, d)
        g = random_poly_map(rng, d)
        p = rng.uniform(-0.3, 0.3, d)
        q = image_point(f, p).real
        m = int(rng.integers(2, 5))
        Cf = oracle_pushforward(f, p, m).C
        Cg = oracle_pushforward(g, q, m).C
        Cgf = oracle_pushforward(compose_maps(g, f), p, m).C
        worst = max(worst, np.linalg.norm(Cgf - Cg @ Cf))
    assert worst < 1e-9


def test_gram_identity_at_origin():
    mu = MeasureSpec.uniform_box([0.0, 0.0], [0.6, 0.8])
    Z = draw_samples(mu, 400, "halton")
    n = 3
    U = feature_matrix_U([0.0, 0.0], n, Z)
    lhs = (U.conj().T @ U).real / len(Z)
    table = graded_numbering(2, n)
    F_inv = np.diag(1 / np.sqrt(np.array(table.factorials, dtype=np.float64)))
    D_hat = moment_matrix(MeasureSpec.empirical(Z), n)
    assert np.abs(lhs - F_inv @ D_hat @ F_inv).max() < 1e-12


def test_gamma_check_values():
    D = np.diag([1.0, 1 / 3])
    assert gamma_check(D, D) == pytest.approx(0.0, abs=1e-14)
    assert gamma_check(D, 2 * D) == pytest.approx(1.0)
    assert gamma_check(D, np.diag([1.0, 0.25])) == pytest.approx(0.25)


def test_gamma_check_requires_spd():
    with pytest.raises(NonPositiveDefiniteError):
        gamma_check(np.diag([1.0, -1.0]), np.eye(2))


def test_theorem_rate():
    assert theorem_rate(0, 0, 0.5, 1.0, 1.0) == pytest.approx(1.0)
    assert theorem_rate(2, 4, 0.5, 0.01, 0.5) == pytest.approx(1.25)
    assert theorem_rate(2, 4, 0.5, 0.01, 0.25) > theorem_rate(2, 4, 0.5, 0.01, 0.5)
    with pytest.raises(ValueError):
        theorem_rate(2, 4, 0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        theorem_rate(2, 4, 0.5, 0.01, 1.5)


def test_estimate_metadata():
    f = parse_map("z1", 1, 1)
    Z0 = np.linspace(-0.5, 0.5, 20)[:, None]
    est = estimate_pushforward([0.0], [0.0], 2, 3, samples_for(f, [0.0], Z0))
    assert est.C_hat.shape == (3, 3)
    assert est.C_hat.dtype == np.complex128  # real data is solved in float64
    assert est.m == 2 and est.n == 3
    assert est.smallest_kept_sv > est.pinv_rcond * est.largest_sv


def test_oracle_at_complex_base_point_matches_complex_sample_estimate():
    # Halton points on the complex box p + [-0.4, 0.4] + i[-0.4, 0.4]
    f = parse_map("0.3*z1 + 0.1*z1^2", 1, 1)
    p = np.array([0.1 + 0.2j])
    q = eval_map_batch(f, p[None, :])[0]
    H = halton_points(20_000, 2)
    Z = p + 0.4 * (2 * H[:, :1] - 1) + 0.4j * (2 * H[:, 1:] - 1)
    fold = fold_pushforward(p, q, 3, 9, SampleSet(Z=Z, W=eval_map_batch(f, Z), provenance="test"))
    C = oracle_pushforward(f, p, 3).C
    err6, err9 = (np.linalg.norm(fold.estimate(n).C_hat - C) for n in (6, 9))
    assert err6 < 1e-5 and err9 < 1e-10 and err9 < 1e-4 * err6


def _feature_residuals(f, p, m, z):
    """|v_{q,beta}(f(z)) - sum_alpha conj(C[beta, alpha]) u_{p,alpha}(z)| for each beta."""
    C = oracle_pushforward(f, p, m).C
    q, w = eval_map_batch(f, np.array([p, z], dtype=np.complex128))
    u = np.array([basis_u(p, alpha, z) for alpha in graded_numbering(f.d, m)])
    return np.array([abs(basis_v(q, beta, w) - np.conj(C[j]) @ u)
                     for j, beta in enumerate(graded_numbering(f.r, m))])


@pytest.mark.parametrize("src, d, r", [("0.3*z1 + 0.1*z1^2", 1, 1),
                                       ("sin(z1)*exp(0.5*z2) + 0.2*z2", 2, 1),
                                       ("z1 + 0.2*z2^2 - 0.1; 0.5*z2 - 0.3*z1*z2 + 0.2", 2, 2)])
@pytest.mark.parametrize("p", [[0.3, -0.3], [0.1 + 0.2j, -0.2 + 0.1j]])
def test_oracle_expands_target_features_in_source_features(src, d, r, p):
    # the order-m expansion of v_{q,beta} after f misses by O(eps^{m+1}) at z = p + eps*u
    f = parse_map(src, d, r)
    p = np.array(p[:d])
    u = np.array([0.6 + 0.3j, -0.5 + 0.55j][:d])
    res = [_feature_residuals(f, p, 3, p + eps * u).max() for eps in (0.1, 0.05, 0.025)]
    assert res[0] < 1e-4
    for coarse, fine in zip(res, res[1:]):
        assert 14 < coarse / fine < 18


def test_oracle_of_a_translation_is_closed_form():
    # f = z + b: C[beta, alpha] = e^{pb + b^2/2} sqrt(alpha!/beta!) b^(alpha-beta)/(alpha-beta)!
    p, b, m = 0.3, -0.4, 5
    C = oracle_pushforward(parse_map("z1 - 0.4", 1, 1), np.array([p]), m).C
    expect = np.zeros((m + 1, m + 1))
    for beta in range(m + 1):
        for alpha in range(beta, m + 1):
            expect[beta, alpha] = (math.exp(p * b + b * b / 2)
                                   * math.sqrt(math.factorial(alpha) / math.factorial(beta))
                                   * b ** (alpha - beta) / math.factorial(alpha - beta))
    assert np.abs(C - expect).max() < 1e-14


def test_oracle_accepts_complex_dtype_with_zero_imaginary_part():
    f = parse_map("z1^2 + 0.3*z1*z2; z2", 2, 2)
    real = oracle_pushforward(f, np.array([0.5, -0.2]), 3)
    cplx = oracle_pushforward(f, np.array([0.5 + 0j, -0.2 + 0j]), 3)
    assert np.array_equal(real.C, cplx.C)
    assert np.array_equal(real.jacobian, cplx.jacobian)


def test_blocked_estimate_matches_dense_lstsq():
    # three row blocks, the last of 3 rows
    rng = np.random.default_rng(4)
    f = random_poly_map(rng, 2)
    p = np.array([0.1, -0.2])
    q = image_point(f, p)
    samples = samples_for(f, p, rng.uniform(-0.5, 0.5, (2 * _BLOCK_ROWS + 3, 2)))
    m, n = 2, 4
    U = feature_matrix_U(p, n, samples.Z)
    V = feature_matrix_V(q, m, samples.W)
    X = np.linalg.lstsq(U, V, rcond=None)[0]
    ref = X.conj().T[:, :jet_dimension(2, m)]
    est = estimate_pushforward(p, q, m, n, samples)
    assert np.linalg.norm(est.C_hat - ref) <= 1e-12 * np.linalg.norm(ref)


def test_complex_blocked_estimate_matches_dense_lstsq():
    rng = np.random.default_rng(8)
    f = random_poly_map(rng, 2)
    N = 2 * _BLOCK_ROWS + 3
    Z = rng.uniform(-0.5, 0.5, (N, 2)) + 0.3j * rng.uniform(-0.5, 0.5, (N, 2))
    samples = SampleSet(Z=Z, W=eval_map_batch(f, Z), provenance="test")
    p, q, m, n = np.zeros(2), np.zeros(2), 2, 4
    U = feature_matrix_U(p, n, Z)
    V = feature_matrix_V(q, m, samples.W)
    ref = np.linalg.lstsq(U, V, rcond=None)[0].conj().T[:, :jet_dimension(2, m)]
    est = estimate_pushforward(p, q, m, n, samples)
    assert np.linalg.norm(est.C_hat - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("imag", [0.0, 0.3])
def test_factor_wider_than_a_panel(imag):
    # d = 2, n = 6, m = 3: 28 + 10 = 38 columns, over several panels and blocks
    rng = np.random.default_rng(9)
    f = parse_map("-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2", 2, 2)
    N = 2 * _BLOCK_ROWS + 3
    Z = rng.uniform(-0.4, 0.4, (N, 2))
    if imag:
        Z = Z + imag * 1j * rng.uniform(-0.4, 0.4, (N, 2))
    U = feature_matrix_U(np.zeros(2), 6, Z)
    A = np.hstack([U, feature_matrix_V(np.zeros(2), 3, eval_map_batch(f, Z))])
    assert A.shape == (N, 38) and A.dtype == (np.complex128 if imag else np.float64)
    rows, R = _triangular_factor((A[i:i + _BLOCK_ROWS] for i in range(0, N, _BLOCK_ROWS)), 28)
    assert rows == N and R.shape == (38, 38) and np.array_equal(R, np.triu(R))
    gram = A.conj().T @ A
    assert np.abs(R.conj().T @ R - gram).max() <= 1e-13 * np.abs(gram).max()
    s = np.linalg.svd(R[:28, :28], compute_uv=False)
    s_U = np.linalg.svd(U, compute_uv=False)
    assert np.abs(s - s_U).max() <= 1e-12 * s_U[0]


def test_complex_sample_points_match_oracle():
    # a polynomial map of degree 2 is fitted exactly once n >= 2m, at complex points too
    rng = np.random.default_rng(6)
    f = random_poly_map(rng, 2)
    Z = rng.uniform(-0.5, 0.5, (400, 2)) + 0.3j * rng.uniform(-0.5, 0.5, (400, 2))
    samples = SampleSet(Z=Z, W=eval_map_batch(f, Z), provenance="test")
    est = estimate_pushforward([0.0, 0.0], [0.0, 0.0], 2, 4, samples)
    o = oracle_pushforward(f, np.array([0.0, 0.0]), 2)
    assert np.abs(est.C_hat - o.C).max() < 1e-10


def test_estimate_memory_is_blocked():
    # the whole N x r_n feature matrix alone would take 200 000 * 28 * 8 B = 45 MB
    rng = np.random.default_rng(7)
    f = parse_map("-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2", 2, 2)
    samples = samples_for(f, [0.0, 0.0], rng.uniform(-0.4, 0.4, (200_000, 2)))
    tracemalloc.start()
    try:
        estimate_pushforward([0.0, 0.0], [0.0, 0.0], 3, 6, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# Largest |C_hat| entry difference seen between a fold's leading-block solve and a
# separate fit, over these two configs and four more (d = 1 up to n = 9, d = 2 up
# to n = 7, halton and iid): 2.9e-14, for entries of order 1
FOLD_C_TOL = 1e-12


@pytest.mark.parametrize("src, d, m, n, N, scheme", [
    ("exp(z1) - 1", 1, 2, 8, 2000, "halton"),
    ("-z1 + 0.2*z2^2; -2*z2 + 0.3*z1*z2", 2, 3, 6, 3000, "iid"),
])
def test_fold_matches_a_separate_fit_at_every_order(src, d, m, n, N, scheme):
    f = parse_map(src, d, d)
    p = np.zeros(d)
    samples = samples_for(f, p, draw_samples(MeasureSpec.uniform_box(p, [0.4] * d), N, scheme, 3))
    fold = fold_pushforward(p, p, m, n, samples)
    for k in range(m, n + 1):
        got, ref = fold.estimate(k), estimate_pushforward(p, p, m, k, samples)
        assert (got.m, got.n, got.d, got.r, got.pinv_rcond) == (ref.m, ref.n, ref.d, ref.r, ref.pinv_rcond)
        assert np.abs(got.C_hat - ref.C_hat).max() <= FOLD_C_TOL
        assert got.smallest_kept_sv == pytest.approx(ref.smallest_kept_sv, rel=1e-12, abs=0)
        assert got.largest_sv == pytest.approx(ref.largest_sv, rel=1e-12, abs=0)


def test_fold_estimate_rejects_orders_outside_m_to_n():
    f = parse_map("0.3*z1 + 0.1*z1^2", 1, 1)
    fold = fold_pushforward([0.0], [0.0], 3, 5, samples_for(f, [0.0], np.linspace(-0.5, 0.5, 40)[:, None]))
    for k in (2, 6):
        with pytest.raises(ValueError, match="orders 3..5"):
            fold.estimate(k)
