import math

import numpy as np
import pytest

from jetflow.errors import SupportError
from jetflow.fock import (
    DomainSpec,
    SampleSet,
    basis_gradient_at_zero,
    basis_u,
    basis_v,
    feature_matrix_U,
    feature_matrix_V,
    measure_radii,
    minkowski,
    projection_tail_sq,
)
from jetflow.hankel import MeasureSpec
from jetflow.multiindex import graded_numbering

SQRT2 = math.sqrt(2.0)


def test_basis_u_values():
    assert basis_u([0.0], 2, [1.0]) == pytest.approx(1 / SQRT2)
    assert basis_u([0.0], 0, [3.7 + 2j]) == pytest.approx(1.0)
    assert basis_u([1.0], 1, [0.0]) == pytest.approx(-math.exp(-0.5))


def test_basis_u_2d():
    val = basis_u([0.0, 0.0], (1, 1), [0.5, 0.5])
    assert val == pytest.approx(0.25)


def test_basis_v_same_formula():
    z = [0.3 + 0.2j]
    assert basis_v([0.7], 3, z) == pytest.approx(basis_u([0.7], 3, z))


def test_feature_matrix_rows():
    U = feature_matrix_U([0.0], 1, np.array([[0.0]]))
    assert np.allclose(U, [[1, 0]])
    U = feature_matrix_U([0.0], 2, np.array([[1.0]]))
    assert np.allclose(U, [[1, 1, 1 / SQRT2]])
    U = feature_matrix_U([0.0], 1, np.array([[1j]]))
    assert np.allclose(U, [[1, 1j]])


def test_feature_matrix_matches_basis_u():
    rng = np.random.default_rng(0)
    p = np.array([0.4, -0.1])
    Z = rng.uniform(-1, 1, (7, 2)) + 1j * rng.uniform(-1, 1, (7, 2))
    table = graded_numbering(2, 3)
    U = feature_matrix_U(p, 3, Z)
    for i in range(7):
        for j, alpha in enumerate(table.entries):
            assert U[i, j] == pytest.approx(basis_u(p, alpha, Z[i]))


@pytest.mark.parametrize("make", [feature_matrix_U, feature_matrix_V])
def test_feature_matrix_dtype_follows_input(make):
    rng = np.random.default_rng(2)
    p = np.array([0.4, -0.1])
    Z = rng.uniform(-1, 1, (6, 2))
    real = make(p, 3, Z)
    assert real.dtype == np.float64
    for cp, cZ in ((p + 0j, Z), (p, Z + 0j)):
        cplx = make(cp, 3, cZ)
        assert cplx.dtype == np.complex128
        assert np.allclose(cplx, real, rtol=1e-15, atol=0)


def test_feature_matrix_V_mirrors_U():
    rng = np.random.default_rng(1)
    W = rng.uniform(-1, 1, (5, 1)) + 0j
    assert np.allclose(feature_matrix_V([0.2], 2, W), feature_matrix_U([0.2], 2, W))


def test_gaussian_orthonormality():
    # <u_j, u_k> over C with weight exp(-|z|^2)/pi, tensor Gauss-Hermite
    x, wx = np.polynomial.hermite.hermgauss(64)
    X, Y = np.meshgrid(x, x)
    WW = np.outer(wx, wx) / math.pi
    pts = (X + 1j * Y).ravel()[:, None]
    for p in (0.0, 0.7):
        U = feature_matrix_U([p], 5, pts)
        G = (U.conj().T * WW.ravel()) @ U
        assert np.abs(G - np.eye(6)).max() < 1e-6


def test_tail_values():
    assert projection_tail_sq([0.0], 1, [0.5]) == pytest.approx(
        math.exp(0.25) - 1 - 0.25, abs=1e-12
    )
    assert projection_tail_sq([0.0], 0, [0.0]) == pytest.approx(0.0, abs=1e-12)
    tail5 = sum(0.25**j / math.factorial(j) for j in range(6, 40))
    assert projection_tail_sq([0.0], 5, [0.5]) == pytest.approx(tail5, rel=1e-8)


def test_tail_matches_brute_force():
    for d in (1, 2):
        for p0 in (0.0, 0.7):
            p = np.full(d, p0)
            w = np.full(d, 0.4) + 1j * np.full(d, 0.1)
            table = graded_numbering(d, 36)
            u_all = feature_matrix_U(p, 36, w[None, :])[0]
            for n in range(7):
                head = graded_numbering(d, n)
                brute = np.sum(np.abs(u_all[len(head.entries) :]) ** 2)
                assert projection_tail_sq(p, n, w) == pytest.approx(brute, abs=1e-10)


def test_tail_nonnegative_and_decreasing():
    w = np.array([0.9 + 0.3j])
    vals = [projection_tail_sq([0.5], n, w) for n in range(10)]
    assert all(v >= 0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_gradient_at_zero_values():
    g = basis_gradient_at_zero([0.0], 2, 1)
    assert np.allclose(g, [0, 1, 0])
    g = basis_gradient_at_zero([0.0, 0.0], 1, 2)
    assert np.allclose(g, [0, 0, 1])
    g = basis_gradient_at_zero([1.0], 1, 1)
    assert np.allclose(g, [math.exp(-0.5), 0])


def test_gradient_matches_central_differences():
    h = 1e-5
    for q in ([0.0, 0.0], [0.6, -0.3]):
        q = np.array(q)
        table = graded_numbering(2, 3)
        for i in (1, 2):
            e = np.zeros(2)
            e[i - 1] = h
            grad = basis_gradient_at_zero(q, 3, i)
            for j, beta in enumerate(table.entries):
                fd = (basis_v(q, beta, e) - basis_v(q, beta, -e)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-6


def test_minkowski():
    box = DomainSpec.box([0.0, 0.0], [1.0, 1.0])
    assert minkowski(box, [0.5, -0.5]) == pytest.approx(0.5)
    ball = DomainSpec.ball([0.0, 0.0], 2.0)
    assert minkowski(ball, [0.6, 0.8]) == pytest.approx(0.5)
    wide = DomainSpec.box([0.0, 0.0], [1.0, 2.0])
    assert minkowski(wide, [0.5, 3.0]) == pytest.approx(1.5)


def test_minkowski_homogeneous():
    box = DomainSpec.box([0.0, 0.0], [1.0, 3.0])
    z = np.array([0.3, -1.1])
    assert minkowski(box, 2.5 * z) == pytest.approx(2.5 * minkowski(box, z))
    assert minkowski(box, [0.0, 0.0]) == 0.0


def test_measure_radii():
    dom = DomainSpec.box([0.0], [1.0])
    mu = MeasureSpec.uniform_box([0.0], [0.5])
    assert measure_radii(mu, dom) == pytest.approx((0.5, 1.0))

    dom = DomainSpec.ball([0.0, 0.0], 1.0)
    mu = MeasureSpec.uniform_ball([0.0, 0.0], 0.8)
    assert measure_radii(mu, dom) == pytest.approx((0.8, 1.0))

    dom = DomainSpec.box([0.0, 0.0], [1.0, 4.0])
    mu = MeasureSpec.uniform_box([0.0, 0.0], [0.5, 2.0])
    assert measure_radii(mu, dom) == pytest.approx((0.5, 2.0))


def test_measure_radii_rejects_escaping_support():
    dom = DomainSpec.box([0.0], [1.0])
    mu = MeasureSpec.uniform_box([0.5], [1.0])
    with pytest.raises(SupportError):
        measure_radii(mu, dom)


def test_sample_set_validation():
    Z = np.zeros((4, 1))
    with pytest.raises(ValueError):
        SampleSet(Z=Z, W=np.zeros((3, 1)), provenance="iid")
    s = SampleSet(Z=Z, W=np.ones((4, 2)), provenance="grid")
    assert len(s) == 4
    assert s.Z.dtype == np.complex128
