"""Exception types shared across the package."""

from __future__ import annotations


class JetflowError(Exception):
    """Base class for package-specific failures."""


class MapSyntaxError(JetflowError):
    """Raised when a map expression fails to parse or validate.

    Carries the character offset of the offending token in `position`.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EstimatorIllPosedError(JetflowError):
    """Feature matrix is rank deficient; carries the singular spectrum."""

    def __init__(self, message: str, singular_values):
        super().__init__(message)
        self.singular_values = singular_values


class NonPositiveDefiniteError(JetflowError):
    """A matrix that must be positive definite is not."""


class SpectrumError(JetflowError):
    """Matrix has an eigenvalue on the closed negative real axis."""


class QuadratureConvergenceError(JetflowError):
    """Quadrature failed to converge within the node budget."""


class BlowupError(JetflowError, OverflowError):
    """A value left float64's range: a flow before its final time, or a map or its jet at a point."""


class InputError(JetflowError, ValueError):
    """An argument outside the range a function accepts: a sample count, scheme, seed, dimension, time or shape."""


class PrecisionError(JetflowError):
    """Requested computation is not certifiable at this precision; retry with more bits."""


class SupportError(JetflowError):
    """Measure support is not contained in the reference body."""


class PoleError(JetflowError, ZeroDivisionError):
    """Division by a quantity that vanishes at the expansion point: the map has a pole there."""


class ConfigError(JetflowError):
    """Invalid experiment configuration; carries a list of (path, reason) issues."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{path}: {reason}" for path, reason in self.issues)
        super().__init__(f"invalid configuration: {lines}")
