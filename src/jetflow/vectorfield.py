"""Vector field recovery through flow-map push-forwards and a matrix logarithm.

The generator estimate divides the quadrature logarithm of the flow-map
push-forward by the flow time; the field itself is read off against the
derivative functionals at the origin, mirroring map reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45
from scipy.linalg import expm

from .errors import BlowupError, QuadratureConvergenceError, SpectrumError
from .fock import SampleSet, basis_gradient_at_zero  # noqa: F401  (perfbench/tracer.py wraps this name)
from .maps import MapExpr, eval_map, eval_map_batch
from .pushforward import PushforwardEstimate
from .reconstruct import read_off


def _field_rhs(V: MapExpr, d: int):
    def rhs(_t, y):
        points = y.reshape(-1, d)
        return eval_map_batch(V, points).reshape(-1)

    return rhs


def flow_ensemble(V: MapExpr, T: float, Z0, tol: float = 1e-10) -> np.ndarray:
    """Flow all rows of Z0 forward by time T with an embedded 4/5 adaptive step."""
    if V.r != V.d:
        raise ValueError(f"vector field must be square, got d={V.d}, r={V.r}")
    if T <= 0:
        raise ValueError(f"flow time must be positive, got {T}")
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    if Z0.shape[1] != V.d:
        raise ValueError(f"initial points have shape {Z0.shape}, expected (N, {V.d})")
    # stepping the solver directly keeps the current state only, not every accepted step
    solver = RK45(_field_rhs(V, V.d), 0.0, Z0.reshape(-1), float(T), rtol=tol, atol=tol)
    message = None
    while solver.status == "running":
        message = solver.step()
    if solver.status != "finished" or not np.isfinite(solver.y).all():
        raise BlowupError(f"flow left the resolvable range before t={T}: "
                          f"{message or 'non-finite state'}")
    return solver.y.reshape(Z0.shape)


def flow_map(V: MapExpr, T: float, z0, tol: float = 1e-10) -> np.ndarray:
    """Flow a single point forward by time T."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    return flow_ensemble(V, T, z0[None, :], tol)[0]


def flow_sample_set(V: MapExpr, T: float, Z, tol: float = 1e-10,
                    provenance: str = "flow", seed: int | None = None) -> SampleSet:
    """Pair sample points with their time-T flow images."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    return SampleSet(Z=Z, W=flow_ensemble(V, T, Z, tol), provenance=provenance, seed=seed)


def check_equilibrium(V: MapExpr, p, tol: float = 1e-12) -> None:
    """Require V(p) = 0 up to tol."""
    val = eval_map(V, p)
    worst = float(np.max(np.abs(val)))
    if worst >= tol:
        raise ValueError(f"base point is not an equilibrium: |V(p)| = {worst:.3e}")


def matrix_log(C: np.ndarray, quad_tol: float = 1e-12, max_nodes: int = 4096) -> np.ndarray:
    """Principal logarithm via the integral of (I + t(C - I))^{-1} against C - I.

    Gauss-Legendre nodes are doubled until the Frobenius change drops below
    quad_tol.  C must have no eigenvalue on the closed negative real axis.
    """
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    scale = max(1.0, float(np.abs(C).max()))
    eigs = np.linalg.eigvals(C)
    on_axis = (eigs.real <= 1e-12 * scale) & (np.abs(eigs.imag) <= 1e-12 * scale)
    if on_axis.any():
        bad = eigs[on_axis]
        raise SpectrumError(f"eigenvalue on the closed negative real axis: {bad[0]:.6g}")
    E = C - np.eye(C.shape[0], dtype=C.dtype)
    eye = np.eye(C.shape[0], dtype=C.dtype)
    prev = None
    nodes = 8
    while nodes <= max_nodes:
        x, w = np.polynomial.legendre.leggauss(nodes)
        ts = (x + 1.0) / 2.0
        wt = w / 2.0
        S = np.zeros_like(E, dtype=np.result_type(C.dtype, np.float64))
        for t, weight in zip(ts, wt):
            try:
                S += weight * np.linalg.solve(eye + t * E, eye)
            except np.linalg.LinAlgError as exc:
                raise SpectrumError(f"resolvent singular at quadrature node t={t:.6g}") from exc
        L = E @ S
        if prev is not None and np.linalg.norm(L - prev) < quad_tol:
            return L
        prev = L
        nodes *= 2
    raise QuadratureConvergenceError(
        f"logarithm quadrature did not settle below {quad_tol} within {max_nodes} nodes"
    )


def bound_B(C: np.ndarray, grid: int = 101) -> float:
    """sup over t in [0,1] of the operator norm of (I + t(C - I))^{-1}, on a grid."""
    if grid < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    C = np.asarray(C)
    E = C - np.eye(C.shape[0], dtype=C.dtype)
    eye = np.eye(C.shape[0])
    worst = 0.0
    for k in range(grid + 1):
        t = k / grid
        smin = np.linalg.svd(eye + t * E, compute_uv=False)[-1]
        if smin == 0.0:
            return math.inf
        worst = max(worst, 1.0 / smin)
    return worst


@dataclass(frozen=True)
class GeneratorEstimate:
    """Generator matrix recovered from a flow-map push-forward at time T."""

    A_hat: np.ndarray
    T: float
    log_residual: float


def estimate_generator(estimate: PushforwardEstimate, T: float,
                       quad_tol: float = 1e-12) -> GeneratorEstimate:
    """A_hat = log(C_hat)/T, with the exp-log residual recorded."""
    if T <= 0:
        raise ValueError(f"flow time must be positive, got {T}")
    C = estimate.C_hat
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"push-forward block must be square, got {C.shape}")
    L = matrix_log(C, quad_tol=quad_tol)
    residual = float(np.linalg.norm(expm(L) - C))
    return GeneratorEstimate(A_hat=L / T, T=float(T), log_residual=residual)


def reconstruct_field(gen: GeneratorEstimate, p, m: int, z) -> np.ndarray:
    """Evaluate the recovered vector field at a point z (length d) or a (P, d) grid ((P, d))."""
    return read_off(gen.A_hat, p, p, m, z)
