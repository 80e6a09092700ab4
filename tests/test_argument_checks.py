"""Every argument check outside hankel and sampling raises InputError, a JetflowError and a ValueError."""

import mpmath
import numpy as np
import pytest

from jetflow.errors import InputError, JetflowError
from jetflow.experiments import demo_config
from jetflow.fock import (
    DomainSpec,
    SampleSet,
    _array,
    basis_gradient_at_zero,
    basis_u,
    feature_matrix_U,
    measure_radii,
    minkowski,
)
from jetflow.hankel import MeasureSpec
from jetflow.jets import Jet, jet_add, jet_int_pow, variable_jet
from jetflow.maps import compose_maps, eval_map, eval_map_batch, jet_of_map, parse_map
from jetflow.multiindex import graded_numbering, graded_powers, jet_dimension
from jetflow.pushforward import (
    PushforwardEstimate,
    fold_pushforward,
    gamma_check,
    oracle_pushforward,
    theorem_rate,
)
from jetflow.reconstruct import monomial_design, pipeline_and_lsq_coefficients, read_off
from jetflow.vectorfield import flow_ensemble, flow_map

_F2 = parse_map("z1; z2", 2, 2)
_X = np.linspace(-0.5, 0.5, 8)[:, None]


def _call(fn, *args, **kwargs):
    return lambda: fn(*args, **kwargs)


def _fold_estimate(n):
    return fold_pushforward([0.0], [0.0], 1, 2, SampleSet(Z=_X, W=_X)).estimate(n)


def _variable(order):
    return variable_jet(graded_numbering(1, order), 1)


ARGUMENT_CHECKS = {
    "fock-sample-rows": _call(SampleSet, Z=np.zeros((3, 1)), W=np.zeros((2, 1))),
    "fock-point-length": _call(basis_u, [0.0, 0.0], (1, 0), [0.0]),
    "fock-points-width": _call(feature_matrix_U, [0.0, 0.0], 2, np.zeros((4, 3))),
    "fock-points-ndim": _call(feature_matrix_U, [0.0], 2, np.zeros((2, 2, 1))),
    "fock-multi-index": _call(basis_u, [0.0], (-1,), [0.0]),
    "fock-gradient-coordinate": _call(basis_gradient_at_zero, [0.0], 2, 2),
    "fock-measure-dimension": _call(measure_radii, MeasureSpec.uniform_box([0.0], [0.5]),
                                    DomainSpec.box([0.0, 0.0], [1.0, 1.0])),
    "fock-displacement-length": _call(minkowski, DomainSpec.box([0.0], [1.0]), [0.0, 0.0]),
    "maps-point": _call(eval_map, _F2, [0.0]),
    "maps-points": _call(eval_map_batch, _F2, np.zeros((3, 1))),
    "maps-base-point": _call(jet_of_map, _F2, [0.0, 0.0, 0.0], 2),
    "maps-compose": _call(compose_maps, parse_map("z1", 1, 1), _F2),
    "pushforward-estimate-shape": _call(PushforwardEstimate, C_hat=np.zeros((3, 3)), m=1, n=1, d=1,
                                        r=1, pinv_rcond=1e-12, smallest_kept_sv=1.0, largest_sv=1.0),
    "pushforward-fold-order": _call(_fold_estimate, 3),
    "pushforward-orders": _call(fold_pushforward, [0.0], [0.0], 2, 1, SampleSet(Z=_X, W=_X)),
    "pushforward-oracle-order": _call(oracle_pushforward, _F2, [0.0, 0.0], 0),
    "pushforward-oracle-base-point": _call(oracle_pushforward, _F2, [0.0], 2),
    "pushforward-gamma-shapes": _call(gamma_check, np.eye(2), np.eye(3)),
    "pushforward-rate-gamma": _call(theorem_rate, 1, 1, 0.5, 1.0, 0.0),
    "pushforward-rate-lambda": _call(theorem_rate, 1, 1, 0.5, 0.0, 0.5),
    # a certified Lambda_n below float64's range, whose float is 0
    "pushforward-rate-lambda-underflow": _call(theorem_rate, 3, 12, 0.5, mpmath.mpf("1e-400"), 0.5),
    "pushforward-rate-lambda-nan": _call(theorem_rate, 1, 1, 0.5, float("nan"), 0.5),
    "jets-coefficients": _call(Jet, graded_numbering(1, 2), [1.0]),
    "jets-variable": _call(variable_jet, graded_numbering(1, 2), 2),
    "jets-tables": _call(jet_add, _variable(2), _variable(3)),
    "jets-power": _call(jet_int_pow, _variable(2), -1),
    "multiindex-dimension": _call(jet_dimension, 0, 1),
    "multiindex-order": _call(jet_dimension, 1, -1),
    "multiindex-powers-shape": _call(graded_powers, np.zeros(3), 2),
    "reconstruct-complex-samples": _call(monomial_design, np.array([[0.5j]]), 2),
    "reconstruct-sample-width": _call(pipeline_and_lsq_coefficients, parse_map("z1", 1, 1),
                                      np.zeros((4, 2)), 1, 2),
    "reconstruct-base-point": _call(read_off, np.eye(2), [0.0], np.zeros((2, 2)), 1, [0.0]),
    "vectorfield-complex-start": _call(flow_ensemble, parse_map("-z1", 1, 1), 0.1, [[0.5j]]),
    "vectorfield-start-width": _call(flow_ensemble, parse_map("-z1", 1, 1), 0.1, np.zeros((2, 2))),
    "vectorfield-start-point": _call(flow_map, parse_map("-z1", 1, 1), 0.1, [0.0, 0.0]),
    "demo-config-kind": _call(demo_config, "no-such-kind"),
}


@pytest.mark.parametrize("check", list(ARGUMENT_CHECKS), ids=list(ARGUMENT_CHECKS))
def test_argument_checks_raise_an_input_error(check):
    try:
        ARGUMENT_CHECKS[check]()
    except JetflowError as exc:
        assert isinstance(exc, InputError) and isinstance(exc, ValueError)
    else:
        pytest.fail("no error raised")


@pytest.mark.parametrize("vector", [False, True])
def test_one_rule_for_an_arrays_dtype(vector):
    x = [0.5] if vector else [[0.5]]
    assert _array(np.array(x, dtype=np.int64), "points", vector=vector).dtype == np.float64
    assert _array(np.array(x, dtype=np.complex64), "points", vector=vector).dtype == np.complex128
    assert _array(np.array(x, dtype=complex), "points", vector=vector, dtype=np.float64).dtype == np.float64
    assert _array(x, "points", vector=vector, dtype=np.complex128).dtype == np.complex128
    real = np.array(x)
    assert _array(real, "points", vector=vector) is real  # a fitting array is not copied
    with pytest.raises(InputError, match="complex points are not supported"):
        _array(np.array(x) * 1j, "points", vector=vector, dtype=np.float64)
