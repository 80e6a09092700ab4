import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jetflow.errors import PrecisionError
from jetflow.hankel import (
    MeasureSpec,
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


def test_exact_zero_pivot_raises():
    # at 64 bits the upper end is t_hi = 1 + 2^-17, so D - t_hi I has first pivot 0
    D = [[1 + Fraction(1, 2 ** 17), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(PrecisionError, match="zero pivot"):
        smallest_eigenvalue(D, 64)


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([[1.0, 0.5], [0.2, 1.0]]), 128)


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
