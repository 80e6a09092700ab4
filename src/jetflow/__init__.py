"""Jet-space push-forward estimation and analytic recovery tools."""

from .errors import (
    BlowupError,
    ConfigError,
    EstimatorIllPosedError,
    InputError,
    JetflowError,
    MapSyntaxError,
    NonPositiveDefiniteError,
    PoleError,
    PrecisionError,
    QuadratureConvergenceError,
    SpectrumError,
    SupportError,
)
from .fock import (
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
from .hankel import (
    HankelSpectrum,
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
from .jets import (
    Jet,
    constant_jet,
    jet_add,
    jet_cos,
    jet_div,
    jet_exp,
    jet_int_pow,
    jet_mul,
    jet_sin,
    variable_jet,
)
from .maps import MapExpr, compose_maps, eval_map, eval_map_batch, jet_of_map, parse_map
from .multiindex import MultiIndexTable, graded_numbering, jet_dimension
from .pushforward import (
    OraclePushforward,
    PushforwardEstimate,
    PushforwardFold,
    estimate_pushforward,
    fold_pushforward,
    gamma_check,
    oracle_pushforward,
    theorem_rate,
)
from .reconstruct import (
    lsq_equivalence_check,
    monomial_design,
    pipeline_and_lsq_coefficients,
    reconstruct_eval,
    truncated_lsq,
)
from .sampling import draw_samples, halton_points
from .vectorfield import (
    GeneratorEstimate,
    bound_B,
    check_equilibrium,
    estimate_generator,
    flow_ensemble,
    flow_map,
    flow_sample_set,
    matrix_log,
    reconstruct_field,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
