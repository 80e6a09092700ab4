"""Jet-space push-forward estimation and analytic recovery tools.

The error types and `__version__` load with the package; every other public
name loads from its module on first access (PEP 562), so `import jetflow`
and a config's validation do not import numpy, scipy or mpmath.
"""

import importlib

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

__version__ = "0.1.0"

# public name -> the module that defines it
_LAZY = {
    **dict.fromkeys((
        "DomainSpec", "SampleSet", "basis_gradient_at_zero", "basis_u", "basis_v",
        "feature_matrix_U", "feature_matrix_V", "measure_radii", "minkowski",
        "projection_tail_sq"), "fock"),
    **dict.fromkeys(("MapExpr", "parse_map"), "grammar"),
    **dict.fromkeys((
        "HankelSpectrum", "MeasureSpec", "decay_rate_check", "hankel_spectrum_sweep",
        "lebesgue_hankel", "moment_matrix", "rectangle_lower_bound", "sample_complexity",
        "sigma", "smallest_eigenvalue"), "hankel"),
    **dict.fromkeys((
        "Jet", "constant_jet", "jet_add", "jet_cos", "jet_div", "jet_exp", "jet_int_pow",
        "jet_mul", "jet_sin", "variable_jet"), "jets"),
    **dict.fromkeys(("compose_maps", "eval_map", "eval_map_batch", "jet_of_map"), "maps"),
    **dict.fromkeys(("MultiIndexTable", "graded_numbering", "jet_dimension"), "multiindex"),
    **dict.fromkeys((
        "OraclePushforward", "PushforwardEstimate", "PushforwardFold", "estimate_pushforward",
        "fold_pushforward", "gamma_check", "oracle_pushforward", "theorem_rate"), "pushforward"),
    **dict.fromkeys((
        "lsq_equivalence_check", "monomial_design", "pipeline_and_lsq_coefficients",
        "reconstruct_eval", "truncated_lsq"), "reconstruct"),
    **dict.fromkeys(("draw_samples", "halton_points"), "sampling"),
    **dict.fromkeys((
        "GeneratorEstimate", "bound_B", "check_equilibrium", "estimate_generator",
        "flow_ensemble", "flow_map", "flow_sample_set", "matrix_log", "reconstruct_field"),
        "vectorfield"),
}

# the error types imported above, and every name of the table
__all__ = sorted([name for name, value in globals().items() if isinstance(value, type)] + list(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
