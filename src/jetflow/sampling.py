"""Deterministic and pseudorandom sample draws on boxes."""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InputError
from .grammar import _PRIMES, _SCHEMES
from .hankel import MeasureSpec


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    x = np.zeros(indices.shape[0])
    f = 1.0
    i = indices.copy()
    while i.any():
        f /= base
        x += f * (i % base)
        i //= base
    return x


def halton_points(N: int, d: int) -> np.ndarray:
    """First N Halton points in (0,1)^d, indices starting at 1."""
    if d > len(_PRIMES):
        raise InputError(f"halton supports up to {len(_PRIMES)} dimensions")
    indices = np.arange(1, N + 1)
    return np.column_stack([_radical_inverse(indices, _PRIMES[k]) for k in range(d)])


def _tensor_grid(center: np.ndarray, radii: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [[c] if per_axis == 1 else np.linspace(c - r, c + r, per_axis)
            for c, r in zip(center, radii)]
    return np.array(list(product(*axes)))


def _grid_side(N: int, d: int) -> int:
    """Smallest k with k**d >= N, checked in integers: 3125 ** (1/5) is 5.000000000000001."""
    k = round(N ** (1.0 / d))
    return k if k ** d >= N else k + 1


def _symmetric_subset(points: np.ndarray, N: int) -> np.ndarray:
    """N of the M rows of points, at indices symmetric under j -> M-1-j.

    Index k is the middle of the k-th of N equal strata of 0..M-1, rounded down
    in the lower half and mirrored into the upper half, so a point-symmetric
    list such as a tensor grid yields a point-symmetric sample.  N = M keeps every row.
    """
    M = points.shape[0]
    k = np.arange(N)
    j = (2 * k + 1) * M // (2 * N)
    j = np.where(2 * k < N - 1, j, M - 1 - j[::-1])
    return points[j]


def draw_samples(measure: MeasureSpec, N: int, scheme: str, seed: int | None = None) -> np.ndarray:
    """Draw N real points from the support of the measure.

    iid uses a seeded counter-based generator; grid and halton are
    deterministic and ignore the seed.  Arguments out of range (N < 1, an
    unknown scheme, an empirical measure, a negative iid seed, halton above
    20 dimensions) raise InputError, a JetflowError and a ValueError.
    """
    if N < 1:
        raise InputError(f"need at least one sample, got N={N}")
    if scheme not in _SCHEMES:
        raise InputError(f"unknown scheme {scheme!r}, expected one of {_SCHEMES}")
    if measure.kind == "empirical":
        raise InputError("cannot draw fresh samples from an empirical measure")
    if scheme == "iid" and isinstance(seed, (int, np.integer)) and seed < 0:
        raise InputError(f"iid seed must be nonnegative, got {seed}")
    d = measure.d
    center = np.array(measure.center, dtype=np.float64)
    radii = np.array(measure.radii, dtype=np.float64)
    if scheme == "iid":
        rng = np.random.default_rng(seed)
        return center + radii * rng.uniform(-1.0, 1.0, size=(N, d))
    if scheme == "halton":
        return center + radii * (2.0 * halton_points(N, d) - 1.0)
    return _symmetric_subset(_tensor_grid(center, radii, _grid_side(N, d)), N)
