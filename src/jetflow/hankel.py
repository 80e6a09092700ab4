"""Moment matrices and their smallest eigenvalues at configurable precision.

Moments of product measures are assembled exactly (rational arithmetic on
request).  A smallest eigenvalue is the minimum over the diagonal blocks that
the exact zero pattern of the matrix splits it into (the parity classes of a
measure symmetric about its centre).  Each block's value is a hint at a
requested mantissa width b, certified to relative width 2**(-b // 4) by two
Sylvester inertia counts in exact rational arithmetic, which stay exact far
below the double-precision underflow of the spectrum.  A box table is hinted
by its box's orthonormal basis (box_basis: tensor Legendre coefficients,
exact): the basis's Rayleigh quotient 1/||B v||^2 at B's top right singular
vector v, a well-conditioned largest singular value.  Every box table in the
package takes that hint; a matrix given without a basis is hinted by
mpmath.eigsy, the general path.  The proof is the same for both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, PrecisionError
from .multiindex import graded_numbering, graded_powers, jet_dimension


def _body_args(center, radii=None, radius=None):
    """Coerce and check a box's (center, radii), or a ball's (center, radius) if radius is given."""
    c = tuple(float(x) for x in np.atleast_1d(center))
    if radius is not None:
        if radius <= 0:
            raise InputError("ball radius must be positive")
        return c, float(radius)
    r = tuple(float(x) for x in np.atleast_1d(radii))
    if len(c) != len(r):
        raise InputError("center and radii have different lengths")
    if any(x <= 0 for x in r):
        raise InputError("box radii must be positive")
    return c, r


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A compactly supported measure: a sample cloud, or the uniform measure on a box (exact moments)."""

    kind: str  # "empirical" | "uniform_box"
    points: Optional[np.ndarray] = None
    center: Optional[tuple[float, ...]] = None
    radii: Optional[tuple[float, ...]] = None
    normalized: bool = True

    @classmethod
    def empirical(cls, points) -> "MeasureSpec":
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError(f"expected a nonempty (N, d) point array, got shape {pts.shape}")
        pts.flags.writeable = False
        return cls(kind="empirical", points=pts)

    @classmethod
    def uniform_box(cls, center, radii, normalized: bool = True) -> "MeasureSpec":
        c, r = _body_args(center, radii=radii)
        return cls(kind="uniform_box", center=c, radii=r, normalized=normalized)

    @property
    def d(self) -> int:
        if self.kind == "empirical":
            return self.points.shape[1]
        return len(self.center)


def moment_matrix(measure: MeasureSpec, n: int, exact: bool = False):
    """Matrix of moments x^(alpha_i + alpha_j) over the graded numbering of order n.

    Returns a float array, or nested Fraction lists when exact=True (boxes only).
    """
    table = graded_numbering(measure.d, n)
    if measure.kind == "empirical":
        if exact:
            raise InputError("exact moments are only available for uniform_box measures")
        V = graded_powers(measure.points, n)
        D = V.T @ V / V.shape[0]
        return (D + D.T) / 2
    if measure.kind == "uniform_box":
        # per axis, the exact moments of the weight-1 (or normalized) measure on [c-r, c+r]
        per_axis = []
        for c, r in zip(map(Fraction, measure.center), map(Fraction, measure.radii)):
            mass = 2 * r if measure.normalized else 1
            per_axis.append([((c + r) ** (k + 1) - (c - r) ** (k + 1)) / ((k + 1) * mass)
                             for k in range(2 * n + 1)])
        rows = [[math.prod(mom[i + j] for mom, i, j in zip(per_axis, alpha, beta))
                 for beta in table.entries] for alpha in table.entries]
        if exact:
            return rows
        return np.array([[float(x) for x in row] for row in rows])
    raise InputError(f"no closed-form moments for measure kind {measure.kind!r}")


def box_basis(measure: MeasureSpec, n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact coefficient table (Q, W) of a box's orthonormal basis, over the graded numbering of order n.

    Row alpha of Q holds the monomial coefficients of the tensor Legendre
    polynomial prod_i P_{alpha_i}((x_i - c_i)/rho_i), whose monomials x^beta
    all have beta <= alpha, so Q is lower-triangular.  W[alpha] is
    prod_i (2 alpha_i + 1), divided by the box's volume prod_i 2 rho_i when the
    measure has weight 1 rather than mass 1.  Then B = diag(W)^(1/2) Q
    satisfies B D B^T = I exactly for D = moment_matrix(measure, n), and the
    leading r_k x r_k block of (Q, W) is the table at any order k <= n.
    """
    if measure.kind != "uniform_box":
        raise InputError(f"no closed-form orthonormal basis for measure kind {measure.kind!r}")
    table = graded_numbering(measure.d, n)
    # per axis, the monomial coefficients of P_0..P_n at (x - c)/r, by Bonnet's
    # recurrence (k + 1) P_{k+1} = (2k + 1) t P_k - k P_{k-1}
    per_axis = []
    for c, r in zip(map(Fraction, measure.center), map(Fraction, measure.radii)):
        polys = [[Fraction(1)], [-c / r, 1 / r]]
        for k in range(1, n):
            # t P_k = (x P_k - c P_k) / r
            tp = [(a - c * b) / r for a, b in zip([0] + polys[k], polys[k] + [0])]
            prev = polys[k - 1] + [0, 0]
            polys.append([((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip(tp, prev)])
        per_axis.append(polys)
    Q = [[math.prod(P[a][b] if b <= a else 0 for P, a, b in zip(per_axis, alpha, beta))
          for beta in table.entries] for alpha in table.entries]
    volume = 1 if measure.normalized else math.prod(2 * Fraction(r) for r in measure.radii)
    W = [Fraction(math.prod(2 * a + 1 for a in alpha)) / volume for alpha in table.entries]
    return Q, W


def lebesgue_hankel(a: float, r: float, n: int) -> list[list[Fraction]]:
    """Exact (n+1)x(n+1) Hankel matrix of weight-1 moments on [a-r, a+r]: the 1-D unnormalized box table."""
    return moment_matrix(MeasureSpec.uniform_box([a], [r], normalized=False), n, exact=True)


@dataclass(frozen=True)
class HankelSpectrum:
    """Certified smallest eigenvalue of a moment matrix of size n + 1."""

    n: int
    Lambda: object  # mpmath.mpf
    precision_bits: int
    certified: bool


def _fraction(x) -> Fraction:
    """Exact value of a matrix entry with plain-int terms: rationals as they are, floats through float()."""
    if isinstance(x, numbers.Rational):  # np.int64 too, whose Fraction would keep np.int64 terms
        return Fraction(int(x.numerator), int(x.denominator))
    return Fraction(float(x))


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


def _blocks(rows: list[list[Fraction]]) -> list[list[int]]:
    """Index sets, each ascending, of the connected components of the exact nonzero pattern of rows."""
    unseen = set(range(len(rows)))
    blocks = []
    while unseen:
        first = min(unseen)
        unseen.remove(first)
        block, stack = [], [first]
        while stack:
            i = stack.pop()
            block.append(i)
            linked = [j for j in unseen if rows[i][j]]
            unseen.difference_update(linked)
            stack.extend(linked)
        blocks.append(sorted(block))
    return blocks


def _mpf(x: Fraction):
    """x as an mpf at the working precision."""
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator


def _ldexp(x: Fraction, k: int) -> float:
    """x * 2**k, correctly rounded, for a rational x whose own float may overflow."""
    num, den = x.numerator, x.denominator
    return (num << k) / den if k >= 0 else num / (den << -k)


def _basis_quotient(Q: list[list[Fraction]], W: list[Fraction], v: list[Fraction]) -> Fraction:
    """||v||^2 / ||B v||^2 for B = diag(W)^(1/2) Q, exactly: 1 / the Rayleigh quotient of B^T B at v."""
    Bv2 = sum(w * sum(q * x for q, x in zip(row, v) if q) ** 2 for row, w in zip(Q, W))
    return sum(x * x for x in v) / Bv2


# the quotient at a float64 singular vector had 94 to 110 correct bits on box
# tables up to d = 3 and n = 20 (error quadratic in the vector's); 80 keeps a margin
_FLOAT64_QUOTIENT_BITS = 80


def _basis_hint(rows: list[list[Fraction]], Q: list[list[Fraction]], W: list[Fraction],
                precision_bits: int):
    """Smallest eigenvalue of rows = B^-1 B^-T, B = diag(W)^(1/2) Q, as 1/||B||_2^2: an mpf hint.

    The value is the exact quotient ||v||^2 / ||B v||^2 at v, the float64 top
    right singular vector of B, rounded to precision_bits; its error is
    quadratic in v's.  Where the certificate asks for more than that reaches,
    inverse iteration on rows, shifted by the hint, refines v in mpf.
    """
    import mpmath

    # row i of B is 2^h_i (W_i / 4^h_i)^(1/2) Q_i, whose square root lies in (0.7, 2); 2^-e B has
    # B's singular vectors, and e > 0 only where an entry of B would overflow float64
    h = [(w.numerator.bit_length() - w.denominator.bit_length()) // 2 for w in W]
    e = max(0, max(k + abs(q.numerator).bit_length() - q.denominator.bit_length()
                   for row, k in zip(Q, h) for q in row) - 1000)
    B = np.sqrt([_ldexp(w, -2 * k) for w, k in zip(W, h)])[:, None] * np.array(
        [[_ldexp(q, k - e) for q in row] for row, k in zip(Q, h)])
    v = [Fraction(x) for x in np.linalg.svd(B)[2][0]]
    lam = _basis_quotient(Q, W, v)
    with mpmath.workprec(precision_bits):
        if precision_bits // 4 > _FLOAT64_QUOTIENT_BITS:
            M = mpmath.matrix([[_mpf(x) for x in row] for row in rows])
            for _ in range(8):  # each step about squares v's error; two reach 1024 bits
                try:
                    y = mpmath.lu_solve(M - _mpf(lam) * mpmath.eye(len(rows)), [_mpf(x) for x in v])
                except ZeroDivisionError:  # the shift is an eigenvalue to working precision
                    break
                v = [_dyadic(x) for x in y]
                step, lam = lam, _basis_quotient(Q, W, v)
                if abs(step - lam) <= lam / 2 ** (precision_bits // 4 + 4):
                    break
        return _mpf(lam)


def _certified_smallest(rows: list[list[Fraction]], precision_bits: int, *basis):
    """Certified smallest eigenvalue (an mpf) of one exact symmetric block; see smallest_eigenvalue.

    The hint is, given the block's basis table Q, W, its _basis_hint, or else
    the block's mpmath.eigsy value; the proof is the same for both.
    """
    import mpmath

    if basis:
        lam = _basis_hint(rows, *basis, precision_bits)
    else:
        with mpmath.workprec(precision_bits):
            M = mpmath.matrix([[_mpf(x) for x in row] for row in rows])
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
    return lam


def smallest_eigenvalue(D, precision_bits: int = 256, *, memo: Optional[dict] = None,
                        basis: Optional[tuple] = None) -> HankelSpectrum:
    """Certified smallest eigenvalue of a real symmetric matrix of size n + 1.

    D is nested lists or any ndarray (an object array of Fractions, say), read
    through tolist().  It must be square, with finite entries, and exactly
    symmetric, floats included.  The entries are converted to exact rationals
    (floats exactly), and the indices are split into the connected components
    of the exact nonzero pattern: up to a permutation D is block-diagonal over
    them (2**d parity blocks for a box centred at 0, one block for a dense
    matrix), so its smallest eigenvalue is the minimum over the blocks.  Each
    block's value is a hint at `precision_bits`, and two exact inertia counts
    of the block at dyadic points t_lo < value < t_hi prove that no eigenvalue
    lies below t_lo and at least one lies below t_hi, with relative width
    (t_hi - t_lo)/|value| about 2**(-precision_bits // 4).  A relative width
    cannot bracket an exact 0, so when either count fails a third exact count
    at t = 0 certifies a singular positive semidefinite block, whose value is
    0.  Otherwise PrecisionError asks for more bits; every block is certified,
    and nothing uncertified is returned.

    The hint is the basis's exact Rayleigh quotient (see _basis_hint) when
    `basis` is given, and the block's smallest eigenvalue from mpmath.eigsy
    otherwise: the general path, for any symmetric matrix.  `basis` is
    box_basis(measure, k) for the box whose moments D holds, at any k whose
    table has at least D's rows (its leading block serves); every box table in
    the package is certified this way.  A basis of another measure gives a
    hint the counts reject, so it costs a PrecisionError, never a wrong value.

    `memo`, when given, maps (precision_bits, whether a basis gave the hint,
    a block's exact entries) to its certified value: a block already in it is
    not certified again, and each newly certified block is added.  A sweep over
    n passes one memo to all its calls, because the leading blocks of one table
    repeat whole exact blocks from one n to the next (on a box centred at 0,
    growing n grows only some parity blocks).  The key holds every entry, so
    equal keys mean equal blocks, and the value is the one a call without the
    memo returns.
    """
    if precision_bits < 16:
        raise InputError("precision_bits must be at least 16")
    raw_rows = D.tolist() if isinstance(D, np.ndarray) else list(D)
    size = len(raw_rows)
    # np.shape also rejects a row that is a scalar (a 1-D array) or holds lists (a 3-D one)
    if size == 0 or any(np.shape(row) != (size,) for row in raw_rows):
        raise InputError("expected a nonempty square matrix")
    if not all(isinstance(x, numbers.Rational) or math.isfinite(x) for row in raw_rows for x in row):
        raise InputError("matrix has non-finite entries")
    if any(raw_rows[i][j] != raw_rows[j][i] for i in range(size) for j in range(i)):
        raise InputError("matrix is not symmetric")
    if basis is not None and min(len(basis[0]), len(basis[1])) < size:
        raise InputError(f"basis table has fewer than the matrix's {size} rows")
    rows = [[_fraction(x) for x in row] for row in raw_rows]
    memo = {} if memo is None else memo
    values = []
    for block in _blocks(rows):
        block_rows = [[rows[i][j] for j in block] for i in block]
        # a block is square, so its entries in row order (as exact integer pairs) fix it
        key = (precision_bits, basis is not None,
               tuple((x.numerator, x.denominator) for row in block_rows for x in row))
        lam = memo.get(key)
        if lam is None:
            block_basis = () if basis is None else (
                [[basis[0][i][j] for j in block] for i in block], [basis[1][i] for i in block])
            lam = memo[key] = _certified_smallest(block_rows, precision_bits, *block_basis)
        values.append(lam)
    return HankelSpectrum(n=size - 1, Lambda=min(values), precision_bits=precision_bits, certified=True)


def hankel_spectrum_sweep(a: float, r: float, n_max: int, precision_bits: int = 256) -> list[HankelSpectrum]:
    """Certified smallest eigenvalues of the leading blocks, n = 0..n_max, of one interval Hankel table.

    One exact table and one basis at n_max serve every order through their
    leading blocks, and each block is hinted by the basis.
    The n calls share one memo, so each distinct exact block is certified
    once: at a = 0 the n_max + 1 tables hold 2 n_max + 1 parity blocks of
    which n_max + 1 are distinct, while an off-centre table is one dense
    block that grows with every n, so nothing repeats.
    """
    mu = MeasureSpec.uniform_box([a], [r], normalized=False)
    table, basis = moment_matrix(mu, n_max, exact=True), box_basis(mu, n_max)
    memo: dict = {}
    return [smallest_eigenvalue([row[:n + 1] for row in table[:n + 1]], precision_bits,
                                memo=memo, basis=basis)
            for n in range(n_max + 1)]


def sigma(a: float, r: float) -> float:
    """Decay base of interval Hankel spectra; branch keyed on the sign of |a| + a^2 - r^2.

    Where a square could leave float64's normal range (r outside [1e-150, 1e150],
    |a| or q above 1e150), the sign is read off (|a| + a^2 - r^2) / r and each
    root is taken of the two factors of its square, so no square under- or
    overflows; elsewhere the plain formula runs, bit for bit.
    """
    if r <= 0:
        raise InputError("interval radius must be positive")
    a = abs(a)
    squares = 1e-150 <= r <= 1e150 and a <= 1e150  # a * a and r * r are normal floats
    t = a + a * a - r * r if squares else (a / r) * (1.0 + a) - r
    if t >= 0:
        q = (a + 1.0) / r
        if q <= 1e150:
            return q + math.sqrt(q * q - 1.0)
        return q + math.sqrt(q - 1.0) * math.sqrt(q + 1.0)
    if squares:
        s = 1.0 / (r * r - a * a)
        return math.sqrt(s + 1.0) + math.sqrt(s)
    u = math.sqrt(r - a) * math.sqrt(r + a)  # sqrt(r^2 - a^2), and sigma = (1 + sqrt(1 + u^2)) / u
    return (1.0 + math.hypot(1.0, u)) / u


def decay_rate_check(a: float, r: float, n_max: int, precision_bits: int = 256) -> list[tuple[int, float]]:
    """Observed decay rates -log(lambda_n)/(2n+2) for n = 0..n_max."""
    import mpmath

    rates = []
    for spec in hankel_spectrum_sweep(a, r, n_max, precision_bits):
        with mpmath.workprec(precision_bits):
            rate = -mpmath.log(spec.Lambda) / (2 * spec.n + 2)
        rates.append((spec.n, float(rate)))
    return rates


def rectangle_lower_bound(p: Sequence[float], radii: Sequence[float], n: int,
                          precision_bits: int = 256) -> float:
    """Product of per-axis interval Hankel eigenvalues; a floor for the box spectrum."""
    import mpmath

    center, radii = _body_args(p, radii=radii)
    with mpmath.workprec(precision_bits):
        prod = mpmath.mpf(1)
        for c, r in zip(center, radii):
            mu = MeasureSpec.uniform_box([c], [r], normalized=False)
            prod *= smallest_eigenvalue(moment_matrix(mu, n, exact=True), precision_bits,
                                        basis=box_basis(mu, n)).Lambda
        return float(prod)


def sample_complexity(n: int, d: int, Lambda_n: float, L_mu: float, delta: float) -> int:
    """Sample count sufficient for the half-spectrum moment concentration event."""
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    lam = float(Lambda_n)
    if lam <= 0:
        raise InputError(f"Lambda_n must be positive, got {Lambda_n}")
    if L_mu < 1:
        raise InputError(f"L_mu must be at least 1, got {L_mu}")
    r_n = jet_dimension(d, n)
    value = (float(L_mu) ** (4 * n)) * (r_n ** 2) / (lam * lam) * 4.0 * math.log(2.0 / delta)
    return math.ceil(value)
