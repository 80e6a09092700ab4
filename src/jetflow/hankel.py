"""Moment matrices and their smallest eigenvalues at configurable precision.

Moments of product measures are assembled exactly (rational arithmetic on
request).  A smallest eigenvalue is the mpmath.eigsy value at a requested
mantissa width b, certified to relative width 2**(-b // 4) by two Sylvester
inertia counts in exact rational arithmetic, which stay exact far below the
double-precision underflow of the spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from .errors import PrecisionError
from .multiindex import graded_numbering, graded_powers, jet_dimension


def _body_args(center, radii=None, radius=None):
    """Coerce and check a box's (center, radii), or a ball's (center, radius) if radius is given."""
    c = tuple(float(x) for x in np.atleast_1d(center))
    if radius is not None:
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return c, float(radius)
    r = tuple(float(x) for x in np.atleast_1d(radii))
    if len(c) != len(r):
        raise ValueError("center and radii have different lengths")
    if any(x <= 0 for x in r):
        raise ValueError("box radii must be positive")
    return c, r


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A compactly supported measure: sample cloud, box, or ball."""

    kind: str  # "empirical" | "uniform_box" | "uniform_ball"
    points: Optional[np.ndarray] = None
    center: Optional[tuple[float, ...]] = None
    radii: Optional[tuple[float, ...]] = None
    radius: Optional[float] = None
    normalized: bool = True

    @classmethod
    def empirical(cls, points) -> "MeasureSpec":
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"expected a nonempty (N, d) point array, got shape {pts.shape}")
        pts.flags.writeable = False
        return cls(kind="empirical", points=pts)

    @classmethod
    def uniform_box(cls, center, radii, normalized: bool = True) -> "MeasureSpec":
        c, r = _body_args(center, radii=radii)
        return cls(kind="uniform_box", center=c, radii=r, normalized=normalized)

    @classmethod
    def uniform_ball(cls, center, radius, normalized: bool = True) -> "MeasureSpec":
        c, r = _body_args(center, radius=radius)
        return cls(kind="uniform_ball", center=c, radius=r, normalized=normalized)

    @property
    def d(self) -> int:
        if self.kind == "empirical":
            return self.points.shape[1]
        return len(self.center)


def _interval_moments(c: Fraction, r: Fraction, max_power: int, normalized: bool) -> list[Fraction]:
    """Exact moments of the weight-1 (or normalized) measure on [c-r, c+r]."""
    hi, lo = c + r, c - r
    mass = 2 * r if normalized else Fraction(1)
    return [
        ((hi ** (k + 1)) - (lo ** (k + 1))) / ((k + 1) * mass)
        for k in range(max_power + 1)
    ]


def moment_matrix(measure: MeasureSpec, n: int, exact: bool = False):
    """Matrix of moments x^(alpha_i + alpha_j) over the graded numbering of order n.

    Returns a float array, or nested Fraction lists when exact=True (boxes only).
    """
    table = graded_numbering(measure.d, n)
    if measure.kind == "empirical":
        if exact:
            raise ValueError("exact moments are only available for uniform_box measures")
        V = graded_powers(measure.points, n)
        D = V.T @ V / V.shape[0]
        return (D + D.T) / 2
    if measure.kind == "uniform_box":
        per_axis = [
            _interval_moments(Fraction(c), Fraction(r), 2 * n, measure.normalized)
            for c, r in zip(measure.center, measure.radii)
        ]
        rows = []
        for alpha in table.entries:
            row = []
            for beta in table.entries:
                entry = Fraction(1)
                for k in range(measure.d):
                    entry *= per_axis[k][alpha[k] + beta[k]]
                row.append(entry)
            rows.append(row)
        if exact:
            return rows
        return np.array([[float(x) for x in row] for row in rows])
    raise ValueError(f"no closed-form moments for measure kind {measure.kind!r}")


def lebesgue_hankel(a: float, r: float, n: int) -> list[list[Fraction]]:
    """Exact (n+1)x(n+1) Hankel matrix of weight-1 moments on [a-r, a+r]."""
    if r <= 0:
        raise ValueError("interval radius must be positive")
    mom = _interval_moments(Fraction(a), Fraction(r), 2 * n, normalized=False)
    return [[mom[i + j] for j in range(n + 1)] for i in range(n + 1)]


@dataclass(frozen=True)
class HankelSpectrum:
    """Certified smallest eigenvalue of a moment matrix."""

    n: int
    Lambda: object  # mpmath.mpf
    precision_bits: int
    certified: bool


def _fraction(x) -> Fraction:
    """Exact value of a matrix entry: rationals as they are, floats through float()."""
    return Fraction(x) if isinstance(x, numbers.Rational) else Fraction(float(x))


def _dyadic(x) -> Fraction:
    """Exact value of an mpf (man_exp holds |x| = man * 2**exp)."""
    man, exp = x.man_exp
    return (-man if x < 0 else man) * Fraction(2) ** exp


def _inertia(rows: list[list[Fraction]], t: Fraction, split_zeros: bool = False) -> tuple[int, int]:
    """Eigenvalues of D below t and equal to t: the pivot signs of D - tI in exact LDL^T (Sylvester).

    A zero pivot raises PrecisionError, unless split_zeros is set and the rest
    of its column is zero too: then it splits off an exact eigenvalue t and is
    stepped over.
    """
    size = len(rows)
    a = [[rows[i][j] for j in range(i + 1)] for i in range(size)]
    for i in range(size):
        a[i][i] -= t
    neg = zero = 0
    for k in range(size):
        piv = a[k][k]
        col_k = {i: a[i][k] for i in range(k + 1, size)}
        if piv == 0:
            if not split_zeros or any(col_k.values()):
                raise PrecisionError(f"exact zero pivot in the inertia count at t = {float(t):.6e}; "
                                     "retry with more bits")
            zero += 1
            continue
        if piv < 0:
            neg += 1
        inv = 1 / piv
        for i in range(k + 1, size):
            f = col_k[i] * inv
            if f == 0:
                continue
            row_i = a[i]
            for j in range(k + 1, i + 1):
                row_i[j] -= f * col_k[j]
    return neg, zero


def _singular_psd(rows: list[list[Fraction]]) -> bool:
    """True when an exact count at t = 0 finds no negative and at least one zero eigenvalue."""
    try:
        neg, zero = _inertia(rows, Fraction(0), split_zeros=True)
    except PrecisionError:
        return False
    return neg == 0 and zero > 0


def smallest_eigenvalue(D, precision_bits: int = 256, order: Optional[int] = None) -> HankelSpectrum:
    """Certified smallest eigenvalue of a real symmetric matrix.

    The value is the smallest eigenvalue from mpmath.eigsy at `precision_bits`.
    The entries are converted to exact rationals (floats exactly), and two exact
    inertia counts at dyadic points t_lo < value < t_hi prove that no eigenvalue
    lies below t_lo and at least one lies below t_hi, with relative width
    (t_hi - t_lo)/|value| about 2**(-precision_bits // 4).  A relative width
    cannot bracket an exact 0, so when either count fails a third exact count
    at t = 0 certifies a singular positive semidefinite matrix, whose value is
    0.  Otherwise PrecisionError asks for more bits; nothing uncertified is
    returned.
    """
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")
    if isinstance(D, np.ndarray):
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {D.shape}")
        if not np.allclose(D, D.T, rtol=0.0, atol=1e-13 * max(1.0, float(np.abs(D).max()))):
            raise ValueError("matrix is not symmetric")
        D = (D + D.T) / 2
        size = D.shape[0]
        raw_rows = [[D[i, j] for j in range(size)] for i in range(size)]
    else:
        raw_rows = [list(row) for row in D]
        size = len(raw_rows)
        if any(len(row) != size for row in raw_rows):
            raise ValueError("expected a square matrix")
        for i in range(size):
            for j in range(i):
                if raw_rows[i][j] != raw_rows[j][i]:
                    raise ValueError("matrix is not symmetric")
    rows = [[_fraction(x) for x in row] for row in raw_rows]
    order = order if order is not None else size - 1
    with mpmath.workprec(precision_bits):
        M = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in rows])
        lam = min(mpmath.eigsy(M, eigvals_only=True))
    quarter = precision_bits // 4
    with mpmath.workprec(quarter + 8):  # short dyadic endpoints keep Fraction growth small
        w = mpmath.ldexp(abs(lam), -(quarter + 1))
        t_lo, t_hi = _dyadic(lam - w), _dyadic(lam + w)
    try:
        if _inertia(rows, t_lo)[0] != 0 or _inertia(rows, t_hi)[0] < 1:
            raise PrecisionError(
                f"eigenvalue hint {mpmath.nstr(lam, 8)} is not certified within relative width "
                f"2^-{quarter} at {precision_bits} bits; retry with more bits"
            )
    except PrecisionError:
        if not _singular_psd(rows):
            raise
        lam = mpmath.mpf(0)
    return HankelSpectrum(n=order, Lambda=lam, precision_bits=precision_bits, certified=True)


def hankel_spectrum_sweep(a: float, r: float, n_max: int, precision_bits: int = 256) -> list[HankelSpectrum]:
    """Certified smallest eigenvalues of the interval Hankel matrices for n = 0..n_max."""
    return [smallest_eigenvalue(lebesgue_hankel(a, r, n), precision_bits, order=n)
            for n in range(n_max + 1)]


def sigma(a: float, r: float) -> float:
    """Decay base of interval Hankel spectra; branch keyed on |a| + a^2 - r^2."""
    if r <= 0:
        raise ValueError("interval radius must be positive")
    t = abs(a) + a * a - r * r
    if t >= 0:
        q = (abs(a) + 1.0) / r
        return q + math.sqrt(q * q - 1.0)
    s = 1.0 / (r * r - a * a)
    return math.sqrt(s + 1.0) + math.sqrt(s)


def decay_rate_check(a: float, r: float, n_max: int, precision_bits: int = 256) -> list[tuple[int, float]]:
    """Observed decay rates -log(lambda_n)/(2n+2) for n = 0..n_max."""
    rates = []
    for spec in hankel_spectrum_sweep(a, r, n_max, precision_bits):
        with mpmath.workprec(precision_bits):
            rate = -mpmath.log(spec.Lambda) / (2 * spec.n + 2)
        rates.append((spec.n, float(rate)))
    return rates


def rectangle_lower_bound(p: Sequence[float], radii: Sequence[float], n: int,
                          precision_bits: int = 256) -> float:
    """Product of per-axis interval Hankel eigenvalues; a floor for the box spectrum."""
    p = list(np.atleast_1d(p))
    radii = list(np.atleast_1d(radii))
    if len(p) != len(radii):
        raise ValueError("center and radii have different lengths")
    with mpmath.workprec(precision_bits):
        prod = mpmath.mpf(1)
        for c, r in zip(p, radii):
            spec = smallest_eigenvalue(lebesgue_hankel(c, r, n), precision_bits, order=n)
            prod *= spec.Lambda
        return float(prod)


def sample_complexity(n: int, d: int, Lambda_n: float, L_mu: float, delta: float) -> int:
    """Sample count sufficient for the half-spectrum moment concentration event."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    lam = float(Lambda_n)
    if lam <= 0:
        raise ValueError(f"Lambda_n must be positive, got {Lambda_n}")
    if L_mu < 1:
        raise ValueError(f"L_mu must be at least 1, got {L_mu}")
    r_n = jet_dimension(d, n)
    value = (float(L_mu) ** (4 * n)) * (r_n ** 2) / (lam * lam) * 4.0 * math.log(2.0 / delta)
    return math.ceil(value)
