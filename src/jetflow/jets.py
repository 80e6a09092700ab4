"""Truncated multivariate power series (jets) over complex coefficients.

A jet holds the coefficients of a power series about some base point, indexed
by a shared graded multi-index table and truncated beyond the table's maximum
degree. Products use a precomputed index-pair map, so multiplication is a
single scatter-add.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, PoleError
from .multiindex import MultiIndexTable, graded_numbering


@lru_cache(maxsize=None)
def _product_plan(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples (i, j, k) with alpha_i + alpha_j = alpha_k, |alpha_k| <= n."""
    table = graded_numbering(d, n)
    degrees = table.degrees
    out_i, out_j, out_k = [], [], []
    for i, a in enumerate(table.entries):
        da = degrees[i]
        for j, b in enumerate(table.entries):
            if da + degrees[j] > n:
                break  # entries are degree-sorted
            out_i.append(i)
            out_j.append(j)
            out_k.append(table.position(tuple(x + y for x, y in zip(a, b))))
    return (np.asarray(out_i), np.asarray(out_j), np.asarray(out_k))


@dataclass(frozen=True, eq=False)
class Jet:
    """Coefficients of a truncated power series on a shared index table."""

    table: MultiIndexTable
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (len(self.table),):
            raise InputError(f"expected {len(self.table)} coefficients, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.table.max_degree

    def coefficient(self, alpha) -> complex:
        return complex(self.coeffs[self.table.position(alpha)])

    def __add__(self, other):
        if isinstance(other, Jet):
            return jet_add(self, other)
        return jet_add(self, constant_jet(self.table, other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.table, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.table, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return jet_div(self, other)
        return Jet(self.table, self.coeffs / complex(other))

    def __pow__(self, k):
        return jet_int_pow(self, k)


def constant_jet(table: MultiIndexTable, value: complex) -> Jet:
    c = np.zeros(len(table), dtype=np.complex128)
    c[0] = value
    return Jet(table, c)


def variable_jet(table: MultiIndexTable, i: int, base: complex = 0.0) -> Jet:
    """Jet of the coordinate function z_i (1-based) about a point with z_i = base."""
    if not 1 <= i <= table.d:
        raise InputError(f"variable index {i} out of range 1..{table.d}")
    c = np.zeros(len(table), dtype=np.complex128)
    c[0] = base
    if table.max_degree >= 1:
        c[i] = 1.0
    return Jet(table, c)


def _check_same_table(a: Jet, b: Jet) -> None:
    if a.table is not b.table and a.table != b.table:
        raise InputError("jets live on different index tables")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_same_table(a, b)
    return Jet(a.table, a.coeffs + b.coeffs)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the table's maximum degree."""
    _check_same_table(a, b)
    ii, jj, kk = _product_plan(a.table.d, a.table.max_degree)
    out = np.zeros(len(a.table), dtype=np.complex128)
    np.add.at(out, kk, a.coeffs[ii] * b.coeffs[jj])
    return Jet(a.table, out)


def jet_int_pow(a: Jet, k: int) -> Jet:
    """a**k for integer k >= 0 by repeated squaring."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise TypeError(f"exponent must be an integer, got {k!r}")
    if k < 0:
        raise InputError(f"exponent must be nonnegative, got {k}")
    result = constant_jet(a.table, 1.0)
    base = a
    while k:
        if k & 1:
            result = jet_mul(result, base)
        k >>= 1
        if k:
            base = jet_mul(base, base)
    return result


def jet_exp(a: Jet) -> Jet:
    """exp(a) = e^{a_0} * sum_k (a - a_0)^k / k!, truncated."""
    n = a.table.max_degree
    b = np.array(a.coeffs)
    a0 = complex(b[0])
    b[0] = 0.0
    nil = Jet(a.table, b)
    acc = constant_jet(a.table, 1.0)
    for k in range(n, 0, -1):
        acc = jet_mul(nil, acc) * (1.0 / k)
        acc += 1.0
    return acc * cmath.exp(a0)


def jet_div(a: Jet, b: Jet) -> Jet:
    """a / b; requires b to be nonzero at the expansion point."""
    _check_same_table(a, b)
    b0 = complex(b.coeffs[0])
    if b0 == 0:
        raise PoleError("division by a jet that vanishes at the expansion point")
    u = b * (1.0 / b0) - 1.0  # nilpotent part
    inv = constant_jet(a.table, 1.0)
    for _ in range(a.table.max_degree):
        inv = 1.0 - jet_mul(u, inv)
    return jet_mul(a, inv) * (1.0 / b0)


def jet_sin(a: Jet) -> Jet:
    e_plus = jet_exp(a * 1j)
    e_minus = jet_exp(a * -1j)
    return (e_plus - e_minus) * (-0.5j)


def jet_cos(a: Jet) -> Jet:
    e_plus = jet_exp(a * 1j)
    e_minus = jet_exp(a * -1j)
    return (e_plus + e_minus) * 0.5
