"""Graded numbering of multi-indices.

Multi-indices alpha in Z_{>=0}^d are enumerated degree by degree; inside a
degree block the order is lexicographic descending in the first coordinate.
Position 0 is the zero index and positions 1..d are the elementary vectors in
coordinate order, so the numbering for order n is a prefix of the numbering
for order n+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np


def jet_dimension(d: int, n: int) -> int:
    """Count of multi-indices with |alpha| <= n in d variables: C(n+d, d)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    return math.comb(n + d, d)


def _homogeneous(d: int, degree: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _homogeneous(d - 1, degree - first):
            yield (first,) + rest


@dataclass(frozen=True)
class MultiIndexTable:
    """Graded numbering of all multi-indices with |alpha| <= max_degree."""

    d: int
    max_degree: int
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {alpha: i for i, alpha in enumerate(self.entries)}

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(alpha) for alpha in self.entries)

    @cached_property
    def factorials(self) -> tuple[int, ...]:
        """alpha! = prod_k alpha_k! for each entry."""
        return tuple(math.prod(math.factorial(a) for a in alpha) for alpha in self.entries)

    @cached_property
    def parents(self) -> tuple[tuple[int, int], ...]:
        """(j, k) for each entry i >= 1: entry i = entry j + e_k, k its first nonzero coordinate."""
        out = []
        for alpha in self.entries[1:]:
            k = next(k for k, a in enumerate(alpha) if a)
            out.append((self.position(alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]), k))
        return tuple(out)

    def position(self, alpha: Sequence[int]) -> int:
        key = tuple(int(a) for a in alpha)
        try:
            return self._positions[key]
        except KeyError:
            raise KeyError(f"multi-index {key} not in table (d={self.d}, n={self.max_degree})") from None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.entries)


@lru_cache(maxsize=None)
def graded_numbering(d: int, n: int) -> MultiIndexTable:
    """Build (and cache) the graded numbering table for d variables, order n."""
    size = jet_dimension(d, n)  # validates arguments
    entries: list[tuple[int, ...]] = []
    for degree in range(n + 1):
        entries.extend(_homogeneous(d, degree))
    assert len(entries) == size
    return MultiIndexTable(d=d, max_degree=n, entries=tuple(entries))


def graded_powers(X, n: int) -> np.ndarray:
    """N x r_n matrix of the monomials x^alpha of the rows of X, in graded order and X's dtype.

    Column alpha is column (alpha - e_k) times x_k: one multiply per column, one array.
    X may be an object array of jets: the columns are then the jet powers (column
    0 holds the integer 1), as the push-forward oracle uses them.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, d) array, got shape {X.shape}")
    table = graded_numbering(X.shape[1], n)
    out = np.empty((X.shape[0], len(table)), dtype=X.dtype)
    out[:, 0] = 1
    for i, (j, k) in enumerate(table.parents, start=1):
        np.multiply(out[:, j], X[:, k], out=out[:, i])
    return out
