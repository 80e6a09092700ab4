import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jetflow import hankel
from jetflow.errors import PrecisionError
from jetflow.hankel import (
    BoxSpectrum,
    MeasureSpec,
    _blocks,
    decay_rate_check,
    hankel_spectrum_sweep,
    lebesgue_hankel,
    moment_matrix,
    rectangle_lower_bound,
    sample_complexity,
    sigma,
    smallest_eigenvalue,
)
from jetflow.multiindex import graded_numbering
from jetflow.sampling import draw_samples


def as_float(rows):
    return np.array([[float(x) for x in row] for row in rows])


def test_moment_matrix_uniform_1d():
    D = moment_matrix(MeasureSpec.uniform_box([0.0], [1.0]), 1)
    assert np.allclose(D, [[1, 0], [0, 1 / 3]])
    D = moment_matrix(MeasureSpec.uniform_box([0.0], [1.0]), 2)
    assert np.allclose(D, [[1, 0, 1 / 3], [0, 1 / 3, 0], [1 / 3, 0, 1 / 5]])


def test_moment_matrix_empirical_point_mass():
    D = moment_matrix(MeasureSpec.empirical(np.zeros((1, 1))), 1)
    assert np.allclose(D, [[1, 0], [0, 0]])


def test_moment_matrix_exact_mode():
    rows = moment_matrix(MeasureSpec.uniform_box([0.0], [1.0]), 2, exact=True)
    assert rows[0][0] == Fraction(1)
    assert rows[2][0] == Fraction(1, 3)
    assert rows[2][2] == Fraction(1, 5)
    assert np.allclose(as_float(rows), moment_matrix(MeasureSpec.uniform_box([0.0], [1.0]), 2))


def test_moment_matrix_2d_tensor():
    mu = MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0])
    D = moment_matrix(mu, 1)
    # basis {1, x, y}
    assert np.allclose(D, np.diag([1, 1 / 3, 1 / 3]))


def test_moment_matrix_empirical_2d_brute_force():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (50, 2))
    table = graded_numbering(2, 3)
    V = np.array([[np.prod(x ** np.array(alpha)) for alpha in table.entries] for x in X])
    D = moment_matrix(MeasureSpec.empirical(X), 3)
    assert np.abs(D - V.T @ V / 50).max() < 1e-14


def test_moments_match_qmc():
    mu = MeasureSpec.uniform_box([0.2, -0.1], [0.7, 1.3])
    exact = moment_matrix(mu, 2)
    Z = draw_samples(mu, 10**6, "halton")
    approx = moment_matrix(MeasureSpec.empirical(Z), 2)
    assert np.abs(exact - approx).max() < 1e-4


def test_smallest_eigenvalue_diag():
    spec = smallest_eigenvalue(np.diag([1.0, 1 / 3]), 128)
    assert float(spec.Lambda) == pytest.approx(1 / 3, rel=1e-12)
    assert spec.certified


def test_smallest_eigenvalue_3x3_uniform():
    D = moment_matrix(MeasureSpec.uniform_box([0.0], [1.0]), 2, exact=True)
    spec = smallest_eigenvalue(D, 256)
    # even block [[1,1/3],[1/3,1/5]]: (6/5 - sqrt(0.64 + 4/9))/2
    closed = (1.2 - math.sqrt(0.64 + 4 / 9)) / 2
    assert float(spec.Lambda) == pytest.approx(closed, rel=1e-12)
    assert float(spec.Lambda) == pytest.approx(0.07931668827288986, rel=1e-10)


def test_bisection_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.uniform(-1, 1, (6, 6))
        S = A @ A.T + 0.1 * np.eye(6)
        lam = float(smallest_eigenvalue(S, 128).Lambda)
        assert lam == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-10)


def test_two_precision_agreement():
    D = lebesgue_hankel(0.0, 1.0, 12)
    a = float(smallest_eigenvalue(D, 256).Lambda)
    b = float(smallest_eigenvalue(D, 512).Lambda)
    assert a < 1e-8
    assert a == pytest.approx(b, rel=1e-10)
    # at 64 bits the certified relative width is 2^-16
    c = smallest_eigenvalue(D, 64)
    assert c.certified
    assert abs(float(c.Lambda) - a) <= 2.0 ** -16 * a


@pytest.mark.parametrize("wrong_hint", [
    lambda eigs: eigs[0] * (1 + mpmath.mpf("1e-6")),
    lambda eigs: eigs[1],
], ids=["true-value-times-1+1e-6", "second-smallest"])
def test_wrong_hint_is_not_certified(monkeypatch, wrong_hint):
    true_eigsy = mpmath.eigsy

    def eigsy(A, eigvals_only=False):
        return [wrong_hint(sorted(true_eigsy(A, eigvals_only=True)))]

    monkeypatch.setattr(mpmath, "eigsy", eigsy)
    with pytest.raises(PrecisionError, match="retry with more bits"):
        smallest_eigenvalue(lebesgue_hankel(0.0, 1.0, 6), 256)


def test_zero_matrix_is_certified_zero():
    spec = smallest_eigenvalue(np.zeros((3, 3)), 128)
    assert spec.Lambda == 0
    assert spec.certified
    assert spec.n == 2


@pytest.mark.parametrize("D", [
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    # point mass at a dyadic point: the float moments are exact, so D is exactly rank one
    moment_matrix(MeasureSpec.empirical(np.tile([0.5, -0.25], (8, 1))), 2),
], ids=["diag-1-0", "ones", "point-mass"])
@pytest.mark.parametrize("bits", [64, 256])
def test_singular_psd_is_certified_zero(D, bits):
    spec = smallest_eigenvalue(D, bits)
    assert spec.Lambda == 0
    assert spec.certified


def test_negative_smallest_eigenvalue():
    spec = smallest_eigenvalue([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]], 64)
    assert float(spec.Lambda) == pytest.approx(-1.0, rel=2.0 ** -16)
    assert spec.certified


def test_exact_zero_pivot_raises(monkeypatch):
    # with the hint 1 at 64 bits the upper end is t_hi = 1 + 2^-17, so D - t_hi I has first pivot 0
    monkeypatch.setattr(mpmath, "eigsy", lambda A, eigvals_only=False: [mpmath.mpf(1)])
    D = [[1 + Fraction(1, 2 ** 17), Fraction(1, 2 ** 20)], [Fraction(1, 2 ** 20), Fraction(2)]]
    with pytest.raises(PrecisionError, match="zero pivot"):
        smallest_eigenvalue(D, 64)


def test_diagonal_splits_into_certified_one_by_one_blocks():
    D = [[1 + Fraction(1, 2 ** 17), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert _blocks(D) == [[0], [1]]
    spec = smallest_eigenvalue(D, 64)
    assert spec.Lambda == 1
    assert spec.certified


def whole_eigsy_min(rows, bits=256):
    with mpmath.workprec(bits):
        M = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in rows])
        return min(mpmath.eigsy(M, eigvals_only=True))


def test_dense_matrix_is_one_block():
    rows = moment_matrix(MeasureSpec.uniform_box([0.1], [0.5]), 5, exact=True)
    assert _blocks(rows) == [list(range(6))]
    assert smallest_eigenvalue(rows, 256).Lambda == whole_eigsy_min(rows)


def test_permuted_block_diagonal_matches_whole_matrix():
    rng = np.random.default_rng(11)
    sizes = [3, 4, 2, 1]
    size = sum(sizes)
    block_diag = [[Fraction(0)] * size for _ in range(size)]
    start = 0
    for k in sizes:
        B = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(k)]
             for _ in range(k)]
        for i in range(k):
            for j in range(k):
                block_diag[start + i][start + j] = (sum(B[i][t] * B[j][t] for t in range(k))
                                                    + Fraction(1, 1000) * (i == j))
        start += k
    perm = rng.permutation(size)
    rows = [[block_diag[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
    assert sorted(len(b) for b in _blocks(rows)) == sorted(sizes)
    spec = smallest_eigenvalue(rows, 256)
    assert spec.certified
    whole = whole_eigsy_min(rows)
    with mpmath.workprec(256):
        assert abs(spec.Lambda - whole) <= mpmath.mpf(10) ** -60 * abs(whole)


def test_centred_box_splits_into_parity_blocks():
    rows = moment_matrix(MeasureSpec.uniform_box([0.0, 0.0], [0.5, 0.5]), 4, exact=True)
    entries = graded_numbering(2, 4).entries
    blocks = _blocks(rows)
    assert len(blocks) == 4
    parities = [{(entries[i][0] % 2, entries[i][1] % 2) for i in block} for block in blocks]
    assert all(len(p) == 1 for p in parities)
    with mpmath.workprec(256):
        whole = whole_eigsy_min(rows)
        assert abs(smallest_eigenvalue(rows, 256).Lambda - whole) <= mpmath.mpf(10) ** -60 * whole


def test_negative_eigenvalue_in_one_block_is_certified():
    # blocks {0, 2}: [[1, 2], [2, 1]] with eigenvalue -1, and {1}: [3]
    D = [[Fraction(1), Fraction(0), Fraction(2)],
         [Fraction(0), Fraction(3), Fraction(0)],
         [Fraction(2), Fraction(0), Fraction(1)]]
    assert _blocks(D) == [[0, 2], [1]]
    spec = smallest_eigenvalue(D, 64)
    assert float(spec.Lambda) == pytest.approx(-1.0, rel=2.0 ** -16)
    assert spec.certified


def test_singular_psd_block_next_to_positive_definite_block_is_certified_zero():
    # blocks {0, 2}: [[1, 1], [1, 1]], singular PSD, and {1}: [2]
    D = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0]])
    spec = smallest_eigenvalue(D, 128)
    assert spec.Lambda == 0
    assert spec.certified


@pytest.mark.parametrize("D", [[], np.zeros((0, 0)), np.zeros((2, 3)), [[1.0, 0.0], [0.0]],
                               np.zeros(3), np.zeros((2, 2, 2))],
                         ids=["empty-list", "empty-array", "2x3", "ragged", "1-d", "3-d"])
def test_empty_or_non_square_matrix_rejected(D):
    with pytest.raises(ValueError, match="expected a nonempty square matrix"):
        smallest_eigenvalue(D, 64)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_non_finite_entry_rejected(bad, as_array):
    D = [[1.0, bad], [bad, 1.0]]
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        smallest_eigenvalue(np.array(D) if as_array else D, 64)


def test_numpy_integer_inputs_are_exact():
    rows = lebesgue_hankel(np.int64(0), np.int64(1), 3)
    assert all(type(x.numerator) is int and type(x.denominator) is int for row in rows for x in row)
    assert rows == lebesgue_hankel(0.0, 1.0, 3)
    # 5^41 overflows int64, so np.int64 arithmetic on [1, 5] would wrap around
    assert lebesgue_hankel(np.int64(3), np.int64(2), 20) == lebesgue_hankel(3.0, 2.0, 20)
    spec = smallest_eigenvalue(lebesgue_hankel(np.int64(0), np.int64(1), 3), 256)
    assert spec.Lambda == smallest_eigenvalue(lebesgue_hankel(0.0, 1.0, 3), 256).Lambda
    assert rectangle_lower_bound([0, 0], [1, 1], 4) == rectangle_lower_bound([0.0, 0.0], [1.0, 1.0], 4)
    D = np.array([[2, 1], [1, 2]], dtype=np.int64)
    assert float(smallest_eigenvalue(D, 64).Lambda) == pytest.approx(1.0, rel=2.0 ** -16)
    assert smallest_eigenvalue([[np.int64(2), np.int64(1)], [np.int64(1), np.int64(2)]], 64).certified


def test_object_array_of_fractions_matches_nested_lists():
    rows = moment_matrix(MeasureSpec.uniform_box([0.1, 0.0], [0.5, 0.5]), 2, exact=True)
    spec = smallest_eigenvalue(np.array(rows, dtype=object), 128)
    assert spec.certified and spec.Lambda == smallest_eigenvalue(rows, 128).Lambda


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([[1.0, 0.5], [0.2, 1.0]]), 128)


def test_float_asymmetry_below_any_tolerance_rejected():
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        smallest_eigenvalue(np.array([[1.0, 0.5 + 2.0 ** -52], [0.5, 1.0]]), 128)


def _alone(a, r, n):
    """The certified lambda_n of the interval's table at order n alone, from a spectrum of its own."""
    return BoxSpectrum(MeasureSpec.uniform_box([a], [r], normalized=False), n).smallest(n).Lambda


def test_sweep_equals_each_order_on_its_own():
    # a non-centred interval: each matrix is one dense block; the sweep certifies through the
    # leading blocks of its table and basis at n_max, which are each order's own
    specs = hankel_spectrum_sweep(0.3, 0.7, 12)
    assert [s.n for s in specs] == list(range(13))
    for n, spec in enumerate(specs):
        assert spec.Lambda == _alone(0.3, 0.7, n)


def _count_certificates(monkeypatch) -> list[int]:
    """Sizes of the box blocks that a BoxSpectrum certifies from now on."""
    sizes = []
    certify = hankel.BoxSpectrum._certified

    def counted(spectrum, block):
        sizes.append(len(block))
        return certify(spectrum, block)

    monkeypatch.setattr(hankel.BoxSpectrum, "_certified", counted)
    return sizes


def test_centred_sweep_certifies_each_distinct_block_once(monkeypatch):
    # at a = 0, n = 1..20 hold an even and an odd parity block and grow only one
    # of them: 41 blocks over the sweep, 21 of them distinct
    sizes = _count_certificates(monkeypatch)
    specs = hankel_spectrum_sweep(0.0, 1.0, 20)
    assert sizes == [1] + [n // 2 + 1 for n in range(1, 21)]
    sizes.clear()
    for n in (0, 1, 7, 20):
        assert specs[n].Lambda == _alone(0.0, 1.0, n)
    assert len(sizes) == 1 + 2 + 2 + 2


def test_off_centre_sweep_repeats_no_block(monkeypatch):
    # a dense table grows its one block with every n: one certificate per n
    sizes = _count_certificates(monkeypatch)
    hankel_spectrum_sweep(0.3, 0.7, 8)
    assert sizes == list(range(1, 10))


def test_interlacing_sweep():
    specs = hankel_spectrum_sweep(0.0, 1.0, 10, 256)
    lams = [float(s.Lambda) for s in specs]
    assert all(a > b > 0 for a, b in zip(lams, lams[1:]))


def test_lebesgue_hankel_values():
    rows = lebesgue_hankel(0.0, 1.0, 2)
    assert rows[0][0] == Fraction(2)
    assert rows[1][1] == Fraction(2, 3)
    assert rows[2][1] == Fraction(0)
    rows = lebesgue_hankel(0.5, 0.5, 1)
    # moments of Lebesgue on [0,1]
    assert rows[0][0] == Fraction(1)
    assert rows[1][0] == Fraction(1, 2)
    assert rows[1][1] == Fraction(1, 3)


def test_sigma_values():
    assert sigma(0.0, 1.0) == pytest.approx(1 + math.sqrt(2), rel=1e-12)
    assert sigma(2.0, 1.0) == pytest.approx(3 + 2 * math.sqrt(2), rel=1e-12)


def test_sigma_branches_agree_at_boundary():
    # |a| + a^2 = r^2 at a = 0.5, r = sqrt(3)/2
    a = 0.5
    r = math.sqrt(a + a * a)
    up = (abs(a) + 1) / r + math.sqrt(((abs(a) + 1) / r) ** 2 - 1)
    c = 1 / (r * r - a * a)
    low = math.sqrt(c + 1) + math.sqrt(c)
    assert up == pytest.approx(low, abs=1e-12)
    assert sigma(a, r) == pytest.approx(up, abs=1e-12)



def test_sigma_stays_finite_where_a_square_leaves_float64s_range():
    # r * r underflows to 0 below r = 1e-162, and q * q overflows above q = 1.3e154
    assert sigma(0.0, 1e-300) == pytest.approx(2e300, rel=1e-15)
    assert sigma(0.5, 1e-200) == pytest.approx(3e200, rel=1e-15)
    assert sigma(1e-300, 1e-300) == pytest.approx(2e300, rel=1e-15)
    assert sigma(1e200, 1.0) == pytest.approx(2e200, rel=1e-15)

def test_decay_rate_approaches_log_sigma():
    rates = dict(decay_rate_check(0.0, 1.0, 20, 256))
    target = math.log(sigma(0.0, 1.0))
    assert abs(rates[20] - target) < abs(rates[5] - target)
    assert rates[20] < target


def test_decay_increment_matches_log_sigma():
    # successive-difference rate kills the algebraic prefactor
    specs = hankel_spectrum_sweep(0.0, 1.0, 20, 256)
    lo = math.log(float(specs[-2].Lambda))
    hi = math.log(float(specs[-1].Lambda))
    assert -(hi - lo) / 2 == pytest.approx(math.log(1 + math.sqrt(2)), abs=0.02)


def test_rectangle_lower_bound_1d_is_lambda():
    bound = rectangle_lower_bound([0.0], [1.0], 3, 256)
    lam = float(smallest_eigenvalue(lebesgue_hankel(0.0, 1.0, 3), 256).Lambda)
    assert bound == pytest.approx(lam, rel=1e-12)


def test_rectangle_lower_bound_2d():
    for n in range(4):
        bound = rectangle_lower_bound([0.0, 0.0], [1.0, 1.0], n, 256)
        mu = MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0], normalized=False)
        lam = float(smallest_eigenvalue(moment_matrix(mu, n, exact=True), 256).Lambda)
        assert lam >= bound * (1 - 1e-12)


def test_rectangle_bound_mass_case():
    assert rectangle_lower_bound([0.3], [0.7], 0, 128) == pytest.approx(1.4)
    assert rectangle_lower_bound([0.0, 0.0], [1.0, 0.5], 0, 128) == pytest.approx(2.0)


def test_sample_complexity_example():
    assert sample_complexity(1, 1, 1 / 3, 1.0, 0.1) == 432


@pytest.mark.parametrize("lam", [1e-160, 1e-200, mpmath.mpf("9.18e-728")],
                         ids=["float-squares-overflow", "float-squares-underflow", "certified-mpf"])
def test_sample_complexity_takes_a_tiny_lambda(lam):
    # 16 log(20) / lambda^2 for n = d = 1, L_mu = 1, delta = 0.1: about 4.8e321, 4.8e401 and 5.7e1456
    count = sample_complexity(1, 1, lam, 1.0, 0.1)
    with mpmath.workprec(200):
        ref = 16 * mpmath.log(20) / mpmath.mpf(lam) ** 2
        assert isinstance(count, int) and abs(count - ref) <= ref * mpmath.mpf("1e-15")


def test_sample_complexity_monotone_in_delta():
    vals = [sample_complexity(2, 1, 0.1, 1.2, d) for d in (0.01, 0.1, 0.5, 0.9)]
    assert vals == sorted(vals, reverse=True)


def test_sample_complexity_L_doubling():
    base = sample_complexity(1, 1, 0.5, 1.0, 0.1)
    doubled = sample_complexity(1, 1, 0.5, 2.0, 0.1)
    assert doubled == pytest.approx(16 * base, rel=2e-2)


def test_sample_complexity_validation():
    with pytest.raises(ValueError):
        sample_complexity(1, 1, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        sample_complexity(1, 1, 0.5, 1.0, 1.5)
    with pytest.raises(ValueError):
        sample_complexity(1, 1, 0.5, 0.5, 0.1)


def test_gamma_event_frequency():
    from jetflow.pushforward import gamma_check

    mu = MeasureSpec.uniform_box([0.0], [1.0])
    exact = {n: moment_matrix(mu, n) for n in range(1, 5)}
    hits = 0
    for seed in range(100):
        Z = draw_samples(mu, 20000, "iid", seed=seed)
        emp = MeasureSpec.empirical(Z)
        if all(gamma_check(exact[n], moment_matrix(emp, n)) <= 0.5 for n in range(1, 5)):
            hits += 1
    assert hits >= 90
