"""scipy's DOP853, with each trial step computed in two halves of the ensemble on two threads.

Every stage of an explicit Runge-Kutta step acts point by point; only the
step-size controller's two error norms couple the points.  So each half of
the points gets its 12 stages, its new state, its scale and its error terms
apart from the other, the first half on the calling thread and the second on
one worker thread, and the calling thread then takes the two norms over the
whole ensemble, as scipy does.  The controller is scipy's, line for line, and
each half does scipy's arithmetic on its own points, so the flow is bit for
bit the one that scipy's DOP853 gives.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Executor, wait

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

# The cut falls after a multiple of this many points: on a point boundary and
# on a multiple of 64 doubles for any d, so each row of a stage sum sits in
# the same place of a BLAS kernel's row blocks as in the whole vector.  A cut
# elsewhere changes bits: OpenBLAS's dgemv takes the last rows of a length
# that is no multiple of 4 on a path of their own.
_CUT_POINTS = 64


def cuts(N: int, d: int) -> list[int]:
    """Flat offsets that bound the halves of N points in d dimensions; one block below 128 points."""
    c = _CUT_POINTS * (N // (2 * _CUT_POINTS))
    return [0, c * d, N * d] if c else [0, N * d]


class HalvedDOP853(DOP853):
    """DOP853 over a flat ensemble of N points in d dimensions, whose halves step on two threads.

    `pool` runs the second half of each trial step on its worker.  The solver
    keeps no dense output: the previous state is dropped and scipy's stage
    storage holds the halves' stages and error terms.
    """

    def __init__(self, fun, y0, t_bound: float, tol: float, d: int, pool: Executor):
        super().__init__(fun, 0.0, y0, t_bound, rtol=tol, atol=tol)
        self._pool = pool
        bounds = cuts(self.n // d, d)
        rows = self.n_stages + 1
        # scipy's (16, n) stage storage, of which DOP853 steps in 13 rows, holds a
        # contiguous (13, c) stage block per half in its first 13 n doubles and
        # the scaled error terms in the next 2 n: nothing else is allocated for them
        store = self.K_extended.reshape(-1)
        self._halves = [(slice(lo, hi), store[rows * lo:rows * hi].reshape(rows, hi - lo))
                        for lo, hi in zip(bounds, bounds[1:])]
        self._err5, self._err3 = store[rows * self.n:].reshape(-1, self.n)[:2]

    def _half(self, part: slice, K: np.ndarray, t, y, h, y_new, f_new) -> None:
        """rk_step and the scaled E5 and E3 error terms on the points of one half."""
        y, y_new, f_new = y[part], y_new[part], f_new[part]
        err5, err3 = self._err5[part], self._err3[part]
        K[0] = self.f[part]
        # y_new holds each stage's argument until it takes its own value
        for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1):
            np.dot(K[:s].T, a[:s], out=y_new)
            y_new *= h
            y_new += y
            K[s] = self._fun(t + c * h, y_new)
        np.dot(K[:-1].T, self.B, out=y_new)
        y_new *= h
        y_new += y
        K[-1] = self._fun(t + h, y_new)
        # f_new holds the scale until it takes its own value
        scale = f_new
        np.abs(y, out=scale)
        np.maximum(scale, np.abs(y_new, out=err3), out=scale)
        scale *= self.rtol
        scale += self.atol
        np.divide(np.dot(K.T, self.E5, out=err5), scale, out=err5)
        np.divide(np.dot(K.T, self.E3, out=err3), scale, out=err3)
        f_new[...] = K[-1]

    def _trial(self, t, y, h):
        """y_new and f_new of one trial step, with its scaled error terms in _err5 and _err3."""
        y_new, f_new = np.empty_like(y), np.empty_like(y)
        (part, K), *rest = self._halves
        # the worker sees the caller's context, and with it numpy's error state
        later = [self._pool.submit(contextvars.copy_context().run, self._half,
                                   *half, t, y, h, y_new, f_new) for half in rest]
        try:
            self._half(part, K, t, y, h, y_new, f_new)
        finally:
            wait(later)  # neither half writes once this returns or raises
        for future in later:
            future.result()
        self.nfev += self.n_stages
        return y_new, f_new

    def _error_norm(self, h) -> float:
        # DOP853._estimate_error_norm, over the whole ensemble's scaled error terms
        err5_norm_2 = np.linalg.norm(self._err5)**2
        err3_norm_2 = np.linalg.norm(self._err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * self.n)

    def _step_impl(self):
        # RungeKutta._step_impl, with _trial and _error_norm for rk_step and the scaled norm
        t = self.t
        y = self.y

        max_step = self.max_step

        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)

        if self.h_abs > max_step:
            h_abs = max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = False
        step_rejected = False

        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            h = h_abs * self.direction
            t_new = t + h

            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound

            h = t_new - t
            h_abs = np.abs(h)

            y_new, f_new = self._trial(t, y, h)
            error_norm = self._error_norm(h)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)

                if step_rejected:
                    factor = min(1, factor)

                h_abs *= factor

                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

        self.h_previous = h
        self.y_old = None  # no dense output, so the previous state is not kept

        self.t = t_new
        self.y = y_new

        self.h_abs = h_abs
        self.f = f_new

        return True, None
