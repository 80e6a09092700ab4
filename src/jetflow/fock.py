"""Gaussian-weighted entire feature system and its pointwise evaluations.

The features u_{p,alpha}(z) = e^{-|p|^2/2} (z-p)^alpha e^{<z,p>} / sqrt(alpha!)
form an orthonormal system for the Gaussian-weighted L^2 inner product; the
same formula on the target side is written basis_v.  Feature matrices stack
evaluations at sample points, one row per point, columns in graded order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, SupportError
from .hankel import MeasureSpec, _body_args
from .multiindex import graded_numbering, graded_powers


@dataclass(frozen=True)
class DomainSpec:
    """Reference body for the analyticity domain: a centered box or ball plus a center."""

    kind: str  # "box" | "ball"
    center: tuple[float, ...]
    radii: Optional[tuple[float, ...]] = None
    radius: Optional[float] = None

    @classmethod
    def box(cls, center, radii) -> "DomainSpec":
        c, r = _body_args(center, radii=radii)
        return cls(kind="box", center=c, radii=r)

    @classmethod
    def ball(cls, center, radius) -> "DomainSpec":
        c, r = _body_args(center, radius=radius)
        return cls(kind="ball", center=c, radius=r)

    @property
    def d(self) -> int:
        return len(self.center)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Paired sample points and their images, as read-only copies: float64 if real, else complex128."""

    Z: np.ndarray
    W: np.ndarray

    def __post_init__(self) -> None:
        Z, W = (_array(x, what).copy(order="K")
                for x, what in ((self.Z, "sample points"), (self.W, "image points")))
        if Z.shape[0] < 1 or W.shape[0] != Z.shape[0]:
            raise InputError(f"need matching nonempty samples, got {Z.shape} and {W.shape}")
        Z.flags.writeable = False
        W.flags.writeable = False
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "W", W)

    def __len__(self) -> int:
        return self.Z.shape[0]


def _array(x, what: str, d: Optional[int] = None, *, vector: bool = False, dtype=None) -> np.ndarray:
    """The one rule for array arguments: N rows of d values, or with vector=True one length-d vector.

    d=None takes any width, and another shape raises InputError.  dtype=None
    gives complex128 to a complex x and float64 to any other; np.float64
    drops a zero imaginary part and refuses a nonzero one.  A fitting x is not copied.
    """
    x = np.asarray(x)
    if dtype is None:
        dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    elif dtype is np.float64 and np.iscomplexobj(x):
        if np.any(x.imag != 0):
            raise InputError(f"complex {what} are not supported, got imaginary "
                             f"parts up to {np.abs(x.imag).max():.3g}")
        x = x.real
    x = x.astype(dtype, copy=False)
    x = np.atleast_1d(x) if vector else np.atleast_2d(x)
    if x.ndim != (1 if vector else 2) or d not in (None, x.shape[-1]):
        width = "d" if d is None else d
        raise InputError(f"{what} has shape {x.shape}, expected ({width},)" if vector
                         else f"{what} have shape {x.shape}, expected (N, {width})")
    return x


def _as_alpha(alpha, d: int) -> tuple[int, ...]:
    if np.isscalar(alpha):
        alpha = (int(alpha),)
    else:
        alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise InputError(f"bad multi-index {alpha} for dimension {d}")
    return alpha


def basis_u(p, alpha, z) -> complex:
    """Evaluate u_{p,alpha} at z."""
    p = _array(p, "base point", vector=True, dtype=np.complex128)
    z = _array(z, "point", len(p), vector=True, dtype=np.complex128)
    alpha = _as_alpha(alpha, len(p))
    fac = math.prod(math.factorial(a) for a in alpha)
    mono = np.prod((z - p) ** np.array(alpha))
    kernel = np.exp(np.dot(np.conj(p), z) - np.dot(np.conj(p), p).real / 2)
    return complex(mono * kernel / math.sqrt(fac))


def basis_v(q, beta, w) -> complex:
    """Target-side feature; same formula as basis_u with base point q."""
    return basis_u(q, beta, w)


def _feature_matrix(p, n: int, Z, what: str = "points") -> np.ndarray:
    """Rows u_{p,*}(z) at the rows z of Z, in the wider of p's and Z's dtypes under `_array`'s rule."""
    p = _array(p, "base point", vector=True)
    Z = _array(Z, what, p.shape[0])
    dtype = np.result_type(p, Z)
    p, Z = p.astype(dtype, copy=False), Z.astype(dtype, copy=False)
    table = graded_numbering(p.shape[0], n)
    kernel = np.exp(Z @ np.conj(p) - np.dot(np.conj(p), p).real / 2)
    out = graded_powers(Z - p[None, :], n)
    out *= kernel[:, None]
    out /= np.sqrt(np.array(table.factorials, dtype=np.float64))
    return out


def feature_matrix_U(p, n: int, Z) -> np.ndarray:
    """N x r_n matrix with rows u_{p,*}(z^i) in graded order.

    Real p and Z give a float64 matrix; a complex p or Z gives complex128.
    """
    return _feature_matrix(p, n, Z)


def feature_matrix_V(q, m: int, W) -> np.ndarray:
    """N x r_m matrix with rows v_{q,*}(w^i) at the image points, in feature_matrix_U's dtype rule."""
    return _feature_matrix(q, m, W, "image points")


def projection_tail_sq(p, n: int, w) -> float:
    """Squared norm of the degree->n tail of the point functional at w.

    Uses sum_alpha |u_{p,alpha}(w)|^2 = e^{2Re<w,p> - |p|^2 + |w-p|^2} minus the
    explicit partial sum through degree n.
    """
    p = _array(p, "base point", vector=True, dtype=np.complex128)
    w = _array(w, "point", len(p), vector=True, dtype=np.complex128)
    total = math.exp(
        2 * np.dot(np.conj(p), w).real
        - np.dot(np.conj(p), p).real
        + np.linalg.norm(w - p) ** 2
    )
    row = _feature_matrix(p, n, w[None, :])[0]
    partial = float(np.sum(np.abs(row) ** 2))
    return total - partial


def basis_gradient_at_zero(q, m: int, i: int) -> np.ndarray:
    """Vector of directional derivatives d/dz_i of the v_{q,beta} at the origin."""
    q = _array(q, "base point", vector=True, dtype=np.complex128)
    r = q.shape[0]
    if not 1 <= i <= r:
        raise InputError(f"coordinate {i} out of range 1..{r}")
    table = graded_numbering(r, m)
    mono = graded_powers(-q[None, :], m)[0]
    out = np.conj(q[i - 1]) * mono
    e_i = tuple(int(k == i - 1) for k in range(r))
    for j, beta in enumerate(table.entries):
        if beta[i - 1]:
            out[j] += beta[i - 1] * mono[table.position(np.subtract(beta, e_i))]
    pref = math.exp(-float(np.dot(np.conj(q), q).real) / 2)
    return pref * out / np.sqrt(np.array(table.factorials, dtype=np.float64))


def minkowski(domain: DomainSpec, z) -> float:
    """Gauge of the centered reference body at the displacement z."""
    z = _array(z, "displacement", domain.d, vector=True, dtype=np.complex128)
    mags = np.abs(z)
    if domain.kind == "box":
        return float(np.max(mags / np.array(domain.radii)))
    return float(np.linalg.norm(mags) / domain.radius)


def _support_extremes(measure: MeasureSpec) -> np.ndarray:
    """Per-coordinate maximal |x| over the support."""
    if measure.kind == "empirical":
        return np.max(np.abs(measure.points), axis=0)
    return np.abs(np.array(measure.center)) + np.array(measure.radii)


def measure_radii(measure: MeasureSpec, domain: DomainSpec) -> tuple[float, float]:
    """(R_mu, L_mu): gauge radius of the support and its coordinate bound (floored at 1)."""
    if measure.d != domain.d:
        raise InputError(f"measure dimension {measure.d} != domain dimension {domain.d}")
    if measure.kind == "empirical":
        R = max(minkowski(domain, x) for x in measure.points)
    else:
        R = minkowski(domain, _support_extremes(measure))
    if R > 1 + 1e-12:
        raise SupportError(f"support exceeds the reference body (gauge radius {R:.6g})")
    L = max(1.0, float(np.max(_support_extremes(measure))))
    return R, L
