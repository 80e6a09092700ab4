"""Vector field recovery through flow-map push-forwards and a matrix logarithm.

The generator estimate divides the quadrature logarithm of the flow-map
push-forward by the flow time; the field itself is read off against the
derivative functionals at the origin, mirroring map reconstruction.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowupError, InputError, QuadratureConvergenceError, SpectrumError
# perfbench/tracer.py wraps basis_gradient_at_zero under this module's name
from .fock import SampleSet, _array, basis_gradient_at_zero  # noqa: F401
from .maps import MapExpr, eval_map, eval_map_batch
from .pushforward import PushforwardEstimate
from .reconstruct import read_off


def _field_rhs(V: MapExpr, d: int):
    def rhs(_t, y):
        points = y.reshape(-1, d)
        return eval_map_batch(V, points).reshape(-1)

    return rhs


def _flow_half(rhs, Z0: np.ndarray, T: float, tol: float, stop: threading.Event) -> Optional[np.ndarray]:
    """The rows of Z0 at time T under scipy's DOP853, stepped directly; BlowupError if the flow fails.

    Any raise sets `stop`, and a half that finds `stop` set before a step
    returns None: so the other half of an ensemble stops within one step.
    """
    from scipy.integrate import DOP853

    try:
        # a one-point half can meet 0 * inf in scipy's first-step guess; the check below reports it
        with np.errstate(invalid="ignore"):
            # stepping the solver directly keeps the current state only, not every accepted step
            solver = DOP853(rhs, 0.0, Z0.reshape(-1), T, rtol=tol, atol=tol)
        if not np.isfinite(solver.f).all():  # DOP853 would step forever on a non-finite first step
            raise BlowupError("vector field is not finite at the start points")
        message = None
        while solver.status == "running":
            if stop.is_set():
                return None
            message = solver.step()
        if solver.status != "finished" or not np.isfinite(solver.y).all():
            raise BlowupError(f"flow left the resolvable range before t={T}: "
                              f"{message or 'non-finite state'}")
    except BaseException:
        stop.set()
        raise
    return solver.y.reshape(Z0.shape)


def flow_ensemble(V: MapExpr, T: float, Z0, tol: float = 1e-10) -> np.ndarray:
    """Flow all rows of Z0 forward by time T with the adaptive DOP853 (8(5,3)) step.

    The rows are cut at N // 2, and each half is flowed by a DOP853 solver of
    its own, the first on the calling thread and the second on one worker
    thread that exits with the call.  So each half is bit for bit scipy's
    DOP853 on its flattened rows; a single point is one solver.  When one
    half raises, the other stops before its next step, and the raise
    propagates once both have stopped.
    """
    if V.r != V.d:
        raise InputError(f"vector field must be square, got d={V.d}, r={V.r}")
    if T <= 0:
        raise InputError(f"flow time must be positive, got {T}")
    Z0 = _array(Z0, "start points", V.d, dtype=np.float64)
    # scipy's submodules load here, not at import: `import jetflow` stays light for runs that never flow
    from concurrent.futures import ThreadPoolExecutor

    from ._blas import calling_thread

    rhs, T, cut = _field_rhs(V, V.d), float(T), Z0.shape[0] // 2
    stop = threading.Event()  # set by a raising half, so the other stops at its next step
    # the BLAS calls of both halves run on their own thread, so the state does
    # not depend on the BLAS thread count
    with calling_thread():
        if not cut:
            return _flow_half(rhs, Z0, T, tol, stop)
        # leaving the pool waits for its worker, so a raise of the first half
        # propagates only once the second has stopped
        with ThreadPoolExecutor(1) as pool:
            # the worker sees the caller's context, and with it numpy's error state
            second = pool.submit(contextvars.copy_context().run, _flow_half, rhs, Z0[cut:], T, tol, stop)
            first = _flow_half(rhs, Z0[:cut], T, tol, stop)
            # a raise of the second half stopped the first (None): its result() raises
            return np.concatenate([first, second.result()])


def flow_map(V: MapExpr, T: float, z0, tol: float = 1e-10) -> np.ndarray:
    """Flow a single point forward by time T."""
    return flow_ensemble(V, T, _array(z0, "start point", V.d, vector=True)[None, :], tol)[0]


def flow_sample_set(V: MapExpr, T: float, Z, tol: float = 1e-10) -> SampleSet:
    """Pair sample points with their time-T flow images."""
    Z = _array(Z, "start points", V.d, dtype=np.float64)
    return SampleSet(Z=Z, W=flow_ensemble(V, T, Z, tol))


def check_equilibrium(V: MapExpr, p, tol: float = 1e-12) -> None:
    """Require |V(p)| < tol, else InputError; a pole of V at p or a non-finite V(p) fails too."""
    try:
        val = eval_map(V, p)
    except ZeroDivisionError:
        raise InputError("base point is not an equilibrium: V has a pole there") from None
    worst = float(np.max(np.abs(val)))
    if not worst < tol:  # NaN fails too
        raise InputError(f"base point is not an equilibrium: |V(p)| = {worst:.3e}")


def matrix_log(C: np.ndarray, quad_tol: float = 1e-12, max_nodes: int = 4096) -> np.ndarray:
    """Principal logarithm via the integral of (I + t(C - I))^{-1} against C - I.

    Gauss-Legendre nodes are doubled until the Frobenius change drops below
    quad_tol.  C must have no eigenvalue on the closed negative real axis.
    """
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InputError(f"expected a square matrix, got shape {C.shape}")
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
        raise InputError(f"grid must be positive, got {grid}")
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
        raise InputError(f"flow time must be positive, got {T}")
    C = estimate.C_hat
    if C.shape[0] != C.shape[1]:
        raise InputError(f"push-forward block must be square, got {C.shape}")
    from scipy.linalg import expm

    L = matrix_log(C, quad_tol=quad_tol)
    residual = float(np.linalg.norm(expm(L) - C))
    return GeneratorEstimate(A_hat=L / T, T=float(T), log_residual=residual)


def reconstruct_field(gen: GeneratorEstimate, p, m: int, z) -> np.ndarray:
    """Evaluate the recovered vector field at a point z (length d) or a (P, d) grid ((P, d))."""
    return read_off(gen.A_hat, p, p, m, z)
