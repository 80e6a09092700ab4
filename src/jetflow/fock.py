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

from .errors import SupportError
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
    """Paired sample points and their images."""

    Z: np.ndarray
    W: np.ndarray
    provenance: str
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        Z = np.atleast_2d(np.asarray(self.Z, dtype=np.complex128))
        W = np.atleast_2d(np.asarray(self.W, dtype=np.complex128))
        if Z.shape[0] < 1 or W.shape[0] != Z.shape[0]:
            raise ValueError(f"need matching nonempty samples, got {Z.shape} and {W.shape}")
        Z = Z.copy()
        W = W.copy()
        Z.flags.writeable = False
        W.flags.writeable = False
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "W", W)

    def __len__(self) -> int:
        return self.Z.shape[0]


def _as_point(x, d: Optional[int] = None, dtype=np.complex128) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=dtype))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if d is not None and v.shape != (d,):
        raise ValueError(f"expected a vector of length {d}, got {v.shape}")
    return v


def _as_alpha(alpha, d: int) -> tuple[int, ...]:
    if np.isscalar(alpha):
        alpha = (int(alpha),)
    else:
        alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for dimension {d}")
    return alpha


def basis_u(p, alpha, z) -> complex:
    """Evaluate u_{p,alpha} at z."""
    p = _as_point(p)
    z = _as_point(z, len(p))
    alpha = _as_alpha(alpha, len(p))
    fac = math.prod(math.factorial(a) for a in alpha)
    mono = np.prod((z - p) ** np.array(alpha))
    kernel = np.exp(np.dot(np.conj(p), z) - np.dot(np.conj(p), p).real / 2)
    return complex(mono * kernel / math.sqrt(fac))


def basis_v(q, beta, w) -> complex:
    """Target-side feature; same formula as basis_u with base point q."""
    return basis_u(q, beta, w)


def _feature_matrix(p: np.ndarray, n: int, Z: np.ndarray) -> np.ndarray:
    table = graded_numbering(p.shape[0], n)
    kernel = np.exp(Z @ np.conj(p) - np.dot(np.conj(p), p).real / 2)
    out = graded_powers(Z - p[None, :], n)
    out *= kernel[:, None]
    out /= np.sqrt(np.array(table.factorials, dtype=np.float64))
    return out


def _feature_args(base, points, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Base point and (N, d) points, in float64 when both are real and in complex128 otherwise."""
    dtype = np.complex128 if np.iscomplexobj(base) or np.iscomplexobj(points) else np.float64
    base = _as_point(base, dtype=dtype)
    points = np.atleast_2d(np.asarray(points, dtype=dtype))
    if points.shape[1] != base.shape[0]:
        raise ValueError(f"{what} have shape {points.shape}, expected (N, {base.shape[0]})")
    return base, points


def feature_matrix_U(p, n: int, Z) -> np.ndarray:
    """N x r_n matrix with rows u_{p,*}(z^i) in graded order.

    Real p and Z give a float64 matrix; a complex p or Z gives complex128.
    """
    p, Z = _feature_args(p, Z, "points")
    return _feature_matrix(p, n, Z)


def feature_matrix_V(q, m: int, W) -> np.ndarray:
    """N x r_m matrix with rows v_{q,*}(w^i) at the image points, in feature_matrix_U's dtype rule."""
    q, W = _feature_args(q, W, "image points")
    return _feature_matrix(q, m, W)


def projection_tail_sq(p, n: int, w) -> float:
    """Squared norm of the degree->n tail of the point functional at w.

    Uses sum_alpha |u_{p,alpha}(w)|^2 = e^{2Re<w,p> - |p|^2 + |w-p|^2} minus the
    explicit partial sum through degree n.
    """
    p = _as_point(p)
    w = _as_point(w, len(p))
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
    q = _as_point(q)
    r = q.shape[0]
    if not 1 <= i <= r:
        raise ValueError(f"coordinate {i} out of range 1..{r}")
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
    z = _as_point(z, domain.d)
    mags = np.abs(z)
    if domain.kind == "box":
        return float(np.max(mags / np.array(domain.radii)))
    return float(np.linalg.norm(mags) / domain.radius)


def _support_extremes(measure: MeasureSpec) -> np.ndarray:
    """Per-coordinate maximal |x| over the support."""
    if measure.kind == "empirical":
        return np.max(np.abs(measure.points), axis=0)
    c = np.abs(np.array(measure.center))
    if measure.kind == "uniform_box":
        return c + np.array(measure.radii)
    return c + measure.radius


def measure_radii(measure: MeasureSpec, domain: DomainSpec) -> tuple[float, float]:
    """(R_mu, L_mu): gauge radius of the support and its coordinate bound (floored at 1)."""
    if measure.d != domain.d:
        raise ValueError(f"measure dimension {measure.d} != domain dimension {domain.d}")
    if measure.kind == "empirical":
        R = max(minkowski(domain, x) for x in measure.points)
    elif measure.kind == "uniform_box":
        corner = _support_extremes(measure)
        R = minkowski(domain, corner)
    else:  # uniform_ball
        c = np.array(measure.center)
        if domain.kind == "box":
            R = float(np.max((np.abs(c) + measure.radius) / np.array(domain.radii)))
        else:
            R = float((np.linalg.norm(c) + measure.radius) / domain.radius)
    if R > 1 + 1e-12:
        raise SupportError(f"support exceeds the reference body (gauge radius {R:.6g})")
    L = max(1.0, float(np.max(_support_extremes(measure))))
    return R, L
