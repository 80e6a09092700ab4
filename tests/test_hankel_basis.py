"""The box's orthonormal basis table, the eigenvalue hint it gives, and hankel's argument checks."""

import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jetflow.errors import InputError, JetflowError, PrecisionError
from jetflow.experiments import demo_config, run_experiment
from jetflow.hankel import (
    MeasureSpec,
    _body_args,
    box_basis,
    decay_rate_check,
    hankel_spectrum_sweep,
    lebesgue_hankel,
    moment_matrix,
    rectangle_lower_bound,
    sample_complexity,
    sigma,
    smallest_eigenvalue,
)

CENTRED = (0.0, 0.0, 0.0)
OFF_CENTRE = (0.1, 0.2, 0.3)
RADII = (0.5, 0.7, 0.3)


@pytest.mark.parametrize("normalized", [True, False], ids=["mass-1", "weight-1"])
@pytest.mark.parametrize("center", [CENTRED, OFF_CENTRE], ids=["centred", "off-centre"])
@pytest.mark.parametrize("d, n_max", [(1, 4), (2, 3), (3, 2)])
def test_basis_orthonormalises_the_exact_moment_table(d, n_max, center, normalized):
    # B D B^T = I with B = diag(W)^(1/2) Q, checked without a square root: Q D Q^T = diag(1/W)
    mu = MeasureSpec.uniform_box(center[:d], RADII[:d], normalized=normalized)
    for n in range(n_max + 1):
        Q, W = box_basis(mu, n)
        D = moment_matrix(mu, n, exact=True)
        size = len(D)
        assert len(Q) == len(W) == size
        assert all(Q[i][j] == 0 for i in range(size) for j in range(i + 1, size))
        QD = [[sum(Q[i][k] * D[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
        QDQt = [[sum(QD[i][k] * Q[j][k] for k in range(size)) for j in range(size)] for i in range(size)]
        assert QDQt == [[1 / W[i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]


def test_basis_weights_are_the_legendre_norms():
    # p_k = sqrt(2k + 1) P_k is orthonormal for the uniform probability on [-1, 1]
    _, W = box_basis(MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0]), 2)
    assert W == [1, 3, 3, 5, 9, 5]
    _, W = box_basis(MeasureSpec.uniform_box([0.0, 0.0], [1.0, 0.5], normalized=False), 1)
    assert W == [Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)]


def test_leading_block_is_the_table_at_lower_order():
    mu = MeasureSpec.uniform_box(OFF_CENTRE[:2], RADII[:2])
    Q_max, W_max = box_basis(mu, 5)
    for n in range(6):
        Q, W = box_basis(mu, n)
        size = len(W)
        assert [row[:size] for row in Q_max[:size]] == Q and W_max[:size] == W


def _eigsy_and_basis(mu, n, bits):
    D = moment_matrix(mu, n, exact=True)
    return smallest_eigenvalue(D, bits), smallest_eigenvalue(D, bits, basis=box_basis(mu, n))


@pytest.mark.parametrize("center, radii, orders", [
    ([0.0], [0.5], range(3, 9)),  # the convergence-d1 table
    ([0.0, 0.0], [0.5, 0.5], [6]),
    ([0.1], [0.5], [8]),
], ids=["convergence-d1", "d2-centred", "off-centre"])
def test_basis_hint_gives_the_eigsy_value(center, radii, orders):
    mu = MeasureSpec.uniform_box(center, radii)
    for n in orders:
        ref, spec = _eigsy_and_basis(mu, n, 256)
        assert spec.certified and spec.n == ref.n
        assert float(spec.Lambda) == float(ref.Lambda)
        with mpmath.workprec(256):
            assert abs(spec.Lambda - ref.Lambda) <= mpmath.mpf("1e-28") * ref.Lambda


@pytest.mark.parametrize("wrong", ["another-radius", "W-doubled"])
def test_wrong_basis_is_not_certified(wrong):
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    D = moment_matrix(mu, 6, exact=True)
    if wrong == "another-radius":
        basis = box_basis(MeasureSpec.uniform_box([0.0], [0.6]), 6)
    else:
        Q, W = box_basis(mu, 6)
        basis = (Q, [2 * w for w in W])
    with pytest.raises(PrecisionError, match="retry with more bits"):
        smallest_eigenvalue(D, 256, basis=basis)


@pytest.mark.parametrize("bits", [64, 512, 1024])
@pytest.mark.parametrize("center, radii, n", [
    ([0.0], [0.5], 8),
    ([0.1, 0.2], [0.5, 0.5], 3),
    ([0.0], [0.5], 1),  # two 1 x 1 blocks: the hint is exact, and refining it stops at once
], ids=["convergence-d1", "d2-off-centre", "one-by-one-blocks"])
def test_basis_value_lies_in_the_eigsy_bracket(center, radii, n, bits):
    ref, spec = _eigsy_and_basis(MeasureSpec.uniform_box(center, radii), n, bits)
    assert spec.certified and spec.precision_bits == bits
    # both are certified to relative width 2^-(bits // 4) around their own value
    with mpmath.workprec(bits):
        assert abs(spec.Lambda - ref.Lambda) <= ref.Lambda * mpmath.mpf(2) ** -(bits // 4 + 1)


def test_basis_certifies_a_box_whose_coefficients_overflow_float64():
    # Q's entries reach 1e360 at radius 1e-30, n = 12; lambda is about 9.2e-728
    mu = MeasureSpec.uniform_box([0.0], [1e-30])
    D = moment_matrix(mu, 12, exact=True)
    spec = smallest_eigenvalue(D, 256, basis=box_basis(mu, 12))
    assert spec.certified
    with mpmath.workprec(256):
        assert 0 < spec.Lambda < min(mpmath.mpf(D[i][i].numerator) / D[i][i].denominator
                                     for i in range(len(D)))
        assert mpmath.mpf("9.17e-728") < spec.Lambda < mpmath.mpf("9.18e-728")


@pytest.mark.parametrize("radius, n", [(1e-30, 12), (1e-60, 8), (1e-100, 6), (1e-150, 4)])
def test_basis_of_a_weight_1_table_of_small_radius_stays_finite(radius, n):
    # W ~ 1/radius: the float64 B = W^(1/2) Q overflows unless its shift counts W as well as Q
    mu = MeasureSpec.uniform_box([0.0], [radius], normalized=False)
    D = moment_matrix(mu, n, exact=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = smallest_eigenvalue(D, 256, basis=box_basis(mu, n))
    assert spec.certified and spec.Lambda > 0


def test_no_box_table_is_hinted_by_eigsy(monkeypatch, tmp_path):
    def eigsy(*args, **kwargs):
        raise AssertionError("a box table was hinted by mpmath.eigsy")

    monkeypatch.setattr(mpmath, "eigsy", eigsy)
    assert len(hankel_spectrum_sweep(0.0, 1.0, 20)) == 21
    assert rectangle_lower_bound([0.0, 0.0], [1.0, 1.0], 4) > 0
    assert len(decay_rate_check(0.0, 1.0, 8)) == 9
    for kind in ("hankel-rates", "pushforward-convergence"):
        cfg = demo_config(kind)
        cfg["output_dir"] = str(tmp_path / kind)
        run_experiment(cfg)


def test_sweep_of_a_narrow_interval_certifies_every_order():
    # eigsy's 256-bit hint for this table is wrong from n = 14 on; the basis's is not
    specs = hankel_spectrum_sweep(0.0, 0.01, 20)
    assert [s.n for s in specs] == list(range(21)) and all(s.certified for s in specs)
    assert all(a.Lambda > b.Lambda > 0 for a, b in zip(specs, specs[1:]))
    with mpmath.workprec(512):
        ref = min(mpmath.eigsy(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                                              for row in lebesgue_hankel(0.0, 0.01, 20)]),
                               eigvals_only=True))
        assert abs(specs[20].Lambda - ref) <= mpmath.mpf("1e-12") * ref
    assert float(ref) == pytest.approx(2.8226315634480726e-94, rel=1e-12)


def test_basis_leading_block_serves_a_smaller_matrix():
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    basis = box_basis(mu, 8)
    for n in (0, 3, 8):
        D = moment_matrix(mu, n, exact=True)
        assert (smallest_eigenvalue(D, basis=basis).Lambda
                == smallest_eigenvalue(D, basis=box_basis(mu, n)).Lambda)


def test_memo_keeps_the_hint_sources_apart():
    mu = MeasureSpec.uniform_box([0.1], [0.5])
    D, basis = moment_matrix(mu, 6, exact=True), box_basis(mu, 6)
    alone = [smallest_eigenvalue(D).Lambda, smallest_eigenvalue(D, basis=basis).Lambda]
    memo = {}
    shared = [smallest_eigenvalue(D, memo=memo).Lambda,
              smallest_eigenvalue(D, memo=memo, basis=basis).Lambda]
    assert shared == alone and len(memo) == 2


def _call(fn, *args, **kwargs):
    return lambda: fn(*args, **kwargs)


ARGUMENT_CHECKS = {
    "ball-radius": _call(_body_args, [0.0], radius=0.0),
    "center-radii-lengths": _call(MeasureSpec.uniform_box, [0.0, 0.0], [1.0]),
    "box-radius": _call(MeasureSpec.uniform_box, [0.0], [0.0]),
    "empirical-shape": _call(MeasureSpec.empirical, np.zeros((0, 1))),
    "exact-empirical": _call(moment_matrix, MeasureSpec.empirical(np.zeros((2, 1))), 1, exact=True),
    "moment-kind": _call(moment_matrix, MeasureSpec(kind="ball", center=(0.0,)), 1),
    "precision-bits": _call(smallest_eigenvalue, [[1.0]], 8),
    "non-square": _call(smallest_eigenvalue, [[1.0, 0.0]]),
    "non-finite": _call(smallest_eigenvalue, [[float("nan")]]),
    "asymmetric": _call(smallest_eigenvalue, [[1.0, 0.5], [0.2, 1.0]]),
    "sigma-radius": _call(sigma, 0.0, 0.0),
    "delta": _call(sample_complexity, 1, 1, 0.5, 1.0, 1.5),
    "lambda": _call(sample_complexity, 1, 1, 0.0, 1.0, 0.1),
    "L-mu": _call(sample_complexity, 1, 1, 0.5, 0.5, 0.1),
    "basis-kind": _call(box_basis, MeasureSpec.empirical(np.zeros((2, 1))), 1),
    "basis-size": _call(smallest_eigenvalue, lebesgue_hankel(0.0, 1.0, 3),
                        basis=box_basis(MeasureSpec.uniform_box([0.0], [1.0]), 2)),
}


@pytest.mark.parametrize("check", list(ARGUMENT_CHECKS), ids=list(ARGUMENT_CHECKS))
def test_argument_checks_raise_a_jetflow_error(check):
    try:
        ARGUMENT_CHECKS[check]()
    except JetflowError as exc:
        assert isinstance(exc, InputError) and isinstance(exc, ValueError)
    else:
        pytest.fail("no error raised")
