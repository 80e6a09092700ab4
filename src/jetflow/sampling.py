"""Deterministic and pseudorandom sample draws on boxes and balls."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .hankel import MeasureSpec

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

_SCHEMES = ("iid", "grid", "halton")


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    x = np.zeros(indices.shape[0])
    f = 1.0
    i = indices.copy()
    while i.any():
        f /= base
        x += f * (i % base)
        i //= base
    return x


def _halton(indices: np.ndarray, d: int) -> np.ndarray:
    if d > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    return np.column_stack([_radical_inverse(indices, _PRIMES[k]) for k in range(d)])


def halton_points(N: int, d: int) -> np.ndarray:
    """First N Halton points in (0,1)^d, indices starting at 1."""
    return _halton(np.arange(1, N + 1), d)


def _grid_axes(center: np.ndarray, radii: np.ndarray, per_axis: int) -> list[np.ndarray]:
    axes = []
    for c, r in zip(center, radii):
        if per_axis == 1:
            axes.append(np.array([c]))
        else:
            axes.append(np.linspace(c - r, c + r, per_axis))
    return axes


def _tensor_grid(center: np.ndarray, radii: np.ndarray, per_axis: int) -> np.ndarray:
    axes = _grid_axes(center, radii, per_axis)
    return np.array(list(product(*axes)))


def _symmetric_subset(points: np.ndarray, N: int) -> np.ndarray:
    """N of the M rows of points, at indices symmetric under j -> M-1-j.

    Index k is the middle of the k-th of N equal strata of 0..M-1, rounded down
    in the lower half and mirrored into the upper half, so a point-symmetric
    list (a tensor grid, or its part inside a ball) yields a point-symmetric
    sample.  N = M keeps every row.
    """
    M = points.shape[0]
    k = np.arange(N)
    j = (2 * k + 1) * M // (2 * N)
    j = np.where(2 * k < N - 1, j, M - 1 - j[::-1])
    return points[j]


def _ball_mask(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.linalg.norm(points - center[None, :], axis=1) <= radius * (1 + 1e-12)


def draw_samples(measure: MeasureSpec, N: int, scheme: str, seed: int | None = None) -> np.ndarray:
    """Draw N real points from the support of the measure.

    iid uses a seeded counter-based generator; grid and halton are
    deterministic and ignore the seed.
    """
    if N < 1:
        raise ValueError(f"need at least one sample, got N={N}")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {_SCHEMES}")
    if measure.kind == "empirical":
        raise ValueError("cannot draw fresh samples from an empirical measure")
    d = measure.d
    center = np.array(measure.center, dtype=np.float64)

    if measure.kind == "uniform_box":
        radii = np.array(measure.radii, dtype=np.float64)
        if scheme == "iid":
            rng = np.random.default_rng(seed)
            return center + radii * rng.uniform(-1.0, 1.0, size=(N, d))
        if scheme == "halton":
            return center + radii * (2.0 * halton_points(N, d) - 1.0)
        per_axis = math.ceil(N ** (1.0 / d))
        return _symmetric_subset(_tensor_grid(center, radii, per_axis), N)

    radius = float(measure.radius)
    if scheme == "iid":
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal((N, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        scale = radius * rng.random(N) ** (1.0 / d)
        return center + direction * scale[:, None]
    if scheme == "halton":
        # deterministic rejection from the bounding box
        out = np.empty((0, d))
        block = max(N, 64)
        start = 1
        while out.shape[0] < N:
            u = _halton(np.arange(start, start + block), d)
            pts = center + radius * (2.0 * u - 1.0)
            out = np.vstack([out, pts[_ball_mask(pts, center, radius)]])
            start += block
        return out[:N]
    per_axis = math.ceil(N ** (1.0 / d))
    while True:
        grid = _tensor_grid(center, np.full(d, radius), per_axis)
        inside = grid[_ball_mask(grid, center, radius)]
        if inside.shape[0] >= N:
            return _symmetric_subset(inside, N)
        per_axis += 1
