import gc
import warnings
import weakref

import numpy as np
import pytest

from jetflow.errors import BlowupError, MapSyntaxError
from jetflow.maps import (
    compose_maps,
    eval_map,
    eval_map_batch,
    jet_of_map,
    parse_map,
)


def test_parse_linear():
    f = parse_map("0.5*z1", 1, 1)
    assert f.d == 1 and f.r == 1
    assert eval_map(f, [2.0])[0] == pytest.approx(1.0)


def test_parse_two_components():
    f = parse_map("z1^2 + z2; z1*z2", 2, 2)
    assert f.r == 2
    out = eval_map(f, [2.0, 3.0])
    assert out[0] == pytest.approx(7.0)
    assert out[1] == pytest.approx(6.0)


def test_parse_exp():
    f = parse_map("exp(z1)-1", 1, 1)
    assert eval_map(f, [0.0])[0] == pytest.approx(0.0)
    assert eval_map(f, [1.0])[0] == pytest.approx(np.e - 1)


def test_unary_minus_and_whitespace():
    f = parse_map(" -z1 + 0.2*z1^2 ", 1, 1)
    assert eval_map(f, [1.0])[0] == pytest.approx(-0.8)


def test_scientific_literals():
    f = parse_map("1e-2 + 2.5E+1*z1", 1, 1)
    assert eval_map(f, [1.0])[0] == pytest.approx(25.01)


def test_syntax_error_reports_position():
    with pytest.raises(MapSyntaxError) as info:
        parse_map("z1 + * z1", 1, 1)
    assert info.value.position == 5


def test_variable_out_of_range():
    with pytest.raises(MapSyntaxError):
        parse_map("z3", 2, 1)


def test_component_count_mismatch():
    with pytest.raises(MapSyntaxError):
        parse_map("z1; z1", 1, 1)


def test_noninteger_exponent_rejected():
    with pytest.raises(MapSyntaxError):
        parse_map("z1^2.5", 1, 1)
    with pytest.raises(MapSyntaxError):
        parse_map("z1^z1", 1, 1)


def test_unknown_function_rejected():
    with pytest.raises(MapSyntaxError):
        parse_map("tan(z1)", 1, 1)


def test_eval_complex_point():
    f = parse_map("z1^2", 1, 1)
    assert eval_map(f, [1j])[0] == pytest.approx(-1.0)


def test_eval_division_by_zero():
    f = parse_map("1/z1", 1, 1)
    with pytest.raises(ZeroDivisionError):
        eval_map(f, [0.0])


def test_batch_matches_pointwise():
    f = parse_map("exp(z1)*sin(z2); z1/(1+z2)", 2, 2)
    rng = np.random.default_rng(0)
    Z = rng.uniform(-0.5, 0.5, (40, 2))
    batch = eval_map_batch(f, Z)
    for k in range(40):
        assert np.allclose(batch[k], eval_map(f, Z[k]), atol=1e-14)


def test_jet_linear():
    f = parse_map("0.5*z1", 1, 1)
    (j,) = jet_of_map(f, np.array([0.0]), 2)
    assert np.allclose(j.coeffs, [0, 0.5, 0])


def test_jet_exp_minus_one():
    f = parse_map("exp(z1)-1", 1, 1)
    (j,) = jet_of_map(f, np.array([0.0]), 3)
    assert np.allclose(j.coeffs, [0, 1, 0.5, 1 / 6])


def test_jet_2d_at_shifted_point():
    f = parse_map("z1^2+z2; z1*z2", 2, 2)
    j1, j2 = jet_of_map(f, np.array([1.0, 1.0]), 1)
    assert np.allclose(j1.coeffs, [2, 2, 1])
    assert np.allclose(j2.coeffs, [1, 1, 1])


def test_jet_pole_at_point():
    f = parse_map("1/z1", 1, 1)
    with pytest.raises(ZeroDivisionError):
        jet_of_map(f, np.array([0.0]), 2)


def test_polynomial_jet_reproduces_values():
    rng = np.random.default_rng(1)
    f = parse_map("0.3*z1 + 0.1*z1^2 - 0.05*z1^3", 1, 1)
    p = np.array([0.2])
    (j,) = jet_of_map(f, p, 3)
    for z in rng.uniform(-0.3, 0.7, 25):
        dz = z - p[0]
        val = sum(c * dz**k for k, c in enumerate(j.coeffs))
        assert abs(val - eval_map(f, [z])[0]) < 1e-10


def test_first_order_jet_matches_central_differences():
    f = parse_map("exp(z1)*cos(z2); sin(z1*z2)", 2, 2)
    p = np.array([0.3, -0.2])
    jets = jet_of_map(f, p, 1)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (np.array(eval_map(f, p + e)) - np.array(eval_map(f, p - e))) / (2 * h)
        for comp in range(2):
            assert abs(jets[comp].coeffs[1 + i] - fd[comp]) < 1e-6


def test_compose_maps():
    f = parse_map("z1 + z1^2", 1, 1)
    g = parse_map("0.5*z1", 1, 1)
    gf = compose_maps(g, f)
    for z in [0.1, -0.4, 0.25 + 0.1j]:
        expect = 0.5 * (z + z * z)
        assert eval_map(gf, [z])[0] == pytest.approx(expect)


def test_compose_maps_substitutes_inside_calls():
    outer = parse_map("exp(z1) - z1/2", 1, 1)
    inner = parse_map("sin(z1)", 1, 1)
    expect = parse_map("exp(sin(z1)) - sin(z1)/2", 1, 1)
    assert compose_maps(outer, inner).components == expect.components


# exp, sin, cos, '/' and '^3'; every term stays away from cancellation, so
# the real and complex paths differ only by their own roundings
_REAL_MAP = "cos(z1*z2) + sin(z1 + 2)*z1^3/(3 + exp(z2))"


def test_batch_real_input_stays_real():
    f = parse_map(_REAL_MAP, 2, 1)
    Z = np.random.default_rng(3).uniform(-0.5, 0.5, (2000, 2))
    real = eval_map_batch(f, Z)
    cplx = eval_map_batch(f, Z.astype(np.complex128))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.all(np.abs(real - cplx.real) <= 2 * np.spacing(np.abs(cplx.real)))


def test_batch_complex_input_matches_numpy_complex_arithmetic():
    f = parse_map(_REAL_MAP, 2, 1)
    rng = np.random.default_rng(4)
    Z = rng.uniform(-0.5, 0.5, (500, 2)) + 1j * rng.uniform(-0.5, 0.5, (500, 2))
    z1, z2 = Z[:, 0], Z[:, 1]
    ref = np.cos(z1 * z2) + np.sin(z1 + 2) * z1 ** 3 / (3 + np.exp(z2))
    out = eval_map_batch(f, Z)
    assert out.dtype == np.complex128
    assert np.array_equal(out[:, 0], ref)


def test_batch_constant_components_fill_their_columns():
    f = parse_map("2; z1 - z2; -exp(0.5)", 2, 3)
    Z = np.random.default_rng(5).uniform(-0.5, 0.5, (7, 2))
    for points in (Z, Z.astype(np.complex128)):
        out = eval_map_batch(f, points)
        assert out.shape == (7, 3) and out.dtype == points.dtype
        assert np.all(out[:, 0] == 2) and np.all(out[:, 2] == -np.exp(0.5))
        assert np.array_equal(out[:, 1], points[:, 0] - points[:, 1])


def test_batch_pole_is_inf_without_a_warning():
    f = parse_map("1/z1", 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = eval_map_batch(f, [[0.0], [2.0]])
    assert out[0, 0] == np.inf and out[1, 0] == 0.5


def test_batch_frees_its_points_without_the_cyclic_collector():
    # a flow evaluates once per right-hand side; points held by a reference
    # cycle would pile up between collections and raise its peak memory
    f = parse_map(_REAL_MAP + "; exp(z1)*z2 - z1/2", 2, 2)
    Z = np.random.default_rng(6).uniform(-0.5, 0.5, (10, 2))
    points = weakref.ref(Z)
    gc.disable()
    try:
        eval_map_batch(f, Z)
        del Z
        assert points() is None
    finally:
        gc.enable()


def test_overflow_at_a_point_raises_blowup_which_is_an_overflow_error():
    f = parse_map("exp(z1 + 1000)", 1, 1)
    for call in (lambda: eval_map(f, [0.0]), lambda: jet_of_map(f, [0.0], 3)):
        with pytest.raises(BlowupError) as info:
            call()
        assert isinstance(info.value, OverflowError)
