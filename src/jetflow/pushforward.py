"""Finite push-forward matrices: regression estimate and jet-space oracle.

The estimate is the leftmost block of V* (U*)^+ built from feature matrices at
sample pairs (z, f(z)).  It takes two steps.  `fold_pushforward` folds the
samples once at order n into the triangular factor R of [U_n | V_m], one
block of rows at a time, by LAPACK's recursive Householder QR (xGEQRT) in
panels of 8 columns.  `PushforwardFold.estimate` then solves at any order
m <= n' <= n from the leading block: the graded columns of U_n' are the first
r_n' of U_n, so R[:r_n', :r_n'] is the factor of U_n' and R[:r_n', r_n:]
its right-hand side.  The oracle computes the same matrix exactly as one jet
product about the base point p: each target feature composed with f, divided
by the source kernel e^{-|p|^2/2} e^{<z, p>}, read off in powers of z - p.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, EstimatorIllPosedError, InputError, NonPositiveDefiniteError
from .fock import SampleSet, _array, feature_matrix_U, feature_matrix_V
from .jets import jet_exp, variable_jet
from .maps import MapExpr, jet_of_map
from .multiindex import graded_numbering, graded_powers, jet_dimension


def default_rcond(N: int, r_n: int) -> float:
    """Relative singular-value cutoff for the feature pseudo-inverse."""
    return 1e-12 * max(N, r_n)


# Rows of [U | V] built and folded into the triangular factor at a time: the
# estimator holds one block and the factor, never all N rows.  Smaller blocks
# cost no time at r_n ~ 30, and the estimate runs on top of whatever heap the
# sample draw (a flow, say) left behind
_BLOCK_ROWS = 4096

# Column panel of the xGEQRT fold.  The fold runs on one thread (see
# `_triangular_factor`), where the width matters little: folding the flow-d2
# samples (N = 1e5, 38 columns) right after their flow, 2-core x86_64, median
# of 7: panel 4 0.043 s, 8 0.042 s, 16 0.045 s, 32 0.048 s (xGEQRF,
# np.linalg.qr, took 0.077 s in an earlier one-thread run).  8 was chosen
# when the fold ran on 2 threads, where panels of 16 or 32 took 0.14 s;
# re-measure it with _BLOCK_ROWS
_PANEL_COLS = 8


def _triangular_factor(blocks, r: int):
    """(N, R): the row count of the stacked row `blocks` and their R-only QR factor.

    A block is a tuple of 2-D column pieces with equal row counts that stand
    side by side (U and V, say).  Each block is written under the factor so far
    into one column-major work array owned here, which LAPACK's recursive
    Householder QR, xGEQRT (Elmroth and Gustavson 2000), refactors in place in
    panels of _PANEL_COLS columns (sequential TSQR): no stacked copy is made,
    and no array the caller passed is written to.  The blocks are built and
    folded on the calling thread (`_blas.calling_thread`), so R is the same
    at any BLAS thread count.  R is the min(N, columns) x columns upper
    triangle, or 0 x r when no block has a row.
    """
    # scipy.linalg loads here, not at import: `import jetflow` stays light for runs that never estimate
    from scipy.linalg import get_lapack_funcs

    from ._blas import calling_thread

    N, R = 0, np.empty((0, r))
    with calling_thread():
        for pieces in blocks:
            rows, k = pieces[0].shape[0], R.shape[0]
            if rows == 0:
                continue  # xGEQRT takes no empty matrix
            work = np.empty((k + rows, sum(x.shape[1] for x in pieces)),
                            dtype=np.result_type(R, *pieces), order="F")
            if k:
                work[:k] = R
            col = 0
            for x in pieces:
                work[k:, col:col + x.shape[1]] = x
                col += x.shape[1]
            N += rows
            geqrt, = get_lapack_funcs(("geqrt",), (work,))
            size = min(work.shape)
            a, _, _ = geqrt(min(_PANEL_COLS, size), work, overwrite_a=True)
            R = np.triu(a[:size])
    return N, R


def _leading_fit(N: int, R: np.ndarray, k: int, r: int, name: str):
    """Least-squares solution (X, s, rcond) on the first k of the r left columns, read from R.

    R is the R-only QR factor of N rows of [L | B], L having r columns.  The
    columns of a QR factor depend only on those before them, so T = R[:k, :k]
    is the factor of L's first k columns, R[:k, r:] their rotated right-hand
    side, and X = T^-1 R[:k, r:]; the singular values s of T are those of the
    leading k columns.  Warns when N < k; raises EstimatorIllPosedError when T
    or its right-hand side is not finite, or unless all k singular values
    exceed rcond * s[0] with rcond = default_rcond(N, k), so no rows at all is
    numerical rank 0.
    """
    if N < k:
        warnings.warn(f"only {N} samples for the {k} columns of the {name}; "
                      "the fit is underdetermined", stacklevel=3)
    T, rhs = R[:k, :k], R[:k, r:]
    if not (np.isfinite(T).all() and np.isfinite(rhs).all()):
        raise EstimatorIllPosedError(f"{name} has non-finite entries", np.full(k, np.nan))
    rcond = default_rcond(N, k)
    s = np.linalg.svd(T, compute_uv=False)
    kept = int(np.count_nonzero(s > rcond * s[:1]))
    if kept < k:
        raise EstimatorIllPosedError(f"{name} has numerical rank {kept} < {k}", s)
    from scipy.linalg import solve_triangular

    return solve_triangular(T, rhs), s, rcond


def rank_checked_lstsq(blocks, r: int, name: str):
    """Least-squares solution (X, s, rcond) of L X = R for an N x r matrix L of full column rank.

    `blocks` yields row blocks of [L | R], each a tuple of column pieces,
    folded by `_triangular_factor` (recursive Householder QR, xGEQRT,
    in panels of _PANEL_COLS = 8 columns, in a work array of its own)
    into [L | R] = Q [[T, T_R], [0, *]], and `_leading_fit` solves
    X = L^+ R = T^-1 T_R with its rank check on all r columns.
    """
    N, R = _triangular_factor(blocks, r)
    return _leading_fit(N, R, r, r, name)


@dataclass(frozen=True)
class PushforwardEstimate:
    """Regression estimate of the order-m push-forward from order-n features."""

    C_hat: np.ndarray  # r_m(target) x r_m(source)
    m: int
    n: int
    d: int
    r: int
    pinv_rcond: float
    smallest_kept_sv: float
    largest_sv: float

    def __post_init__(self) -> None:
        expected = (jet_dimension(self.r, self.m), jet_dimension(self.d, self.m))
        if self.C_hat.shape != expected:
            raise InputError(f"estimate has shape {self.C_hat.shape}, expected {expected}")


@dataclass(frozen=True, eq=False)
class PushforwardFold:
    """The triangular factor R of [U_n | V_m] over one sample set of N rows."""

    R: np.ndarray
    N: int
    m: int
    n: int
    d: int
    r: int

    def estimate(self, n: int) -> PushforwardEstimate:
        """The estimate from order-n features, m <= n <= self.n, solved from R's leading block."""
        if not self.m <= n <= self.n:
            raise InputError(f"fold holds orders {self.m}..{self.n}, got n={n}")
        X, s, rcond = _leading_fit(self.N, self.R, jet_dimension(self.d, n),
                                   jet_dimension(self.d, self.n), "feature matrix")
        # V* (U*)^+ = (U^+ V)^*, in complex128 whichever arithmetic ran
        return PushforwardEstimate(
            C_hat=X[:jet_dimension(self.d, self.m)].conj().T.astype(np.complex128),
            m=self.m,
            n=n,
            d=self.d,
            r=self.r,
            pinv_rcond=float(rcond),
            smallest_kept_sv=float(s[-1]),
            largest_sv=float(s[0]),
        )


def fold_pushforward(p, q, m: int, n: int, samples: SampleSet) -> PushforwardFold:
    """Fold paired samples once into the factor behind every estimate of order m..n.

    p is the source base point, q = f(p) the target one; m is the block order,
    n >= m the largest regression order.  The feature matrices U and V are
    built and factored _BLOCK_ROWS rows at a time, so memory is
    O(_BLOCK_ROWS * r_n) for any N; when p, q and all samples are real, every
    step runs in float64.
    """
    p, q = np.atleast_1d(p), np.atleast_1d(q)
    if not 1 <= m <= n:
        raise InputError(f"orders must satisfy 1 <= m <= n, got m={m}, n={n}")
    d, r = p.shape[0], q.shape[0]
    blocks = ((feature_matrix_U(p, n, samples.Z[i:i + _BLOCK_ROWS]),
               feature_matrix_V(q, m, samples.W[i:i + _BLOCK_ROWS]))
              for i in range(0, len(samples), _BLOCK_ROWS))
    N, R = _triangular_factor(blocks, jet_dimension(d, n))
    return PushforwardFold(R=R, N=N, m=m, n=n, d=d, r=r)


def estimate_pushforward(p, q, m: int, n: int, samples: SampleSet) -> PushforwardEstimate:
    """Least-squares push-forward estimate from paired samples: `fold_pushforward` solved at n."""
    return fold_pushforward(p, q, m, n, samples).estimate(n)


@dataclass(frozen=True)
class OraclePushforward:
    """Exact order-m push-forward matrix and the Jacobian of f at the base point."""

    C: np.ndarray  # r_m(target) x r_m(source)
    jacobian: np.ndarray  # r x d


def oracle_pushforward(f: MapExpr, p, m: int) -> OraclePushforward:
    """Exact push-forward block of order m computed from jets of f about p.

    With q = f(p) and <w, q> = sum_k w_k conj(q_k), entry (beta, alpha) is
    e^{(|q|^2 - |p|^2)/2} sqrt(alpha!/beta!) times the conjugate of the
    (z-p)^alpha coefficient of e^{<f-q, q> - <z-p, p>} (f-q)^beta: the
    target feature v_{q,beta} after f, with the source kernel divided out.
    """
    if m < 1:
        raise InputError(f"order must be at least 1, got {m}")
    p = _array(p, "base point", f.d, vector=True, dtype=np.complex128)
    table_E = graded_numbering(f.d, m)
    jets_f = jet_of_map(f, p, m)
    q = np.array([jf.coeffs[0] for jf in jets_f])
    jac = np.array([jf.coeffs[1:f.d + 1] for jf in jets_f])

    centered = [jf - q_k for jf, q_k in zip(jets_f, q)]
    kernel = jet_exp(sum(c * np.conj(q_k) for c, q_k in zip(centered, q))
                     - sum(variable_jet(table_E, k + 1) * np.conj(p_k) for k, p_k in enumerate(p)))
    powers = graded_powers(np.array([centered], dtype=object), m)[0]
    H = np.array([(kernel * g).coeffs for g in powers])

    fac_E = np.array(table_E.factorials, dtype=np.float64)
    fac_F = np.array(graded_numbering(f.r, m).factorials, dtype=np.float64)
    try:
        scale = math.exp((np.vdot(q, q).real - np.vdot(p, p).real) / 2)
    except OverflowError:
        raise BlowupError("the oracle's scale e^{(|q|^2 - |p|^2)/2} overflows") from None
    C = scale * np.sqrt(fac_E)[None, :] / np.sqrt(fac_F)[:, None] * np.conj(H)
    return OraclePushforward(C=C, jacobian=jac)


def gamma_check(D_mu: np.ndarray, D_hat: np.ndarray) -> float:
    """Operator-norm distance of the whitened empirical moment matrix from identity."""
    D_mu = np.asarray(D_mu, dtype=np.float64)
    D_hat = np.asarray(D_hat, dtype=np.float64)
    if D_mu.shape != D_hat.shape or D_mu.ndim != 2 or D_mu.shape[0] != D_mu.shape[1]:
        raise InputError(f"shape mismatch: {D_mu.shape} vs {D_hat.shape}")
    w, Q = np.linalg.eigh((D_mu + D_mu.T) / 2)
    if w.min() <= 0:
        raise NonPositiveDefiniteError(
            f"reference moment matrix has smallest eigenvalue {w.min():.3e}"
        )
    S = (Q * w ** -0.5) @ Q.T
    Mres = np.eye(D_mu.shape[0]) - S @ ((D_hat + D_hat.T) / 2) @ S
    Mres = (Mres + Mres.T) / 2
    return float(np.max(np.abs(np.linalg.eigvalsh(Mres))))


def theorem_rate(m: int, n: int, R_mu: float, Lambda_n: float, gamma: float) -> float:
    """Error-rate expression sqrt(m!/gamma) R_mu^n / sqrt(Lambda_n)."""
    if not 0 < gamma <= 1:
        raise InputError(f"gamma must be in (0, 1], got {gamma}")
    if not float(Lambda_n) >= sys.float_info.min:  # 0, NaN or below float64's normal range
        raise InputError(f"Lambda_n must be positive and in float64's normal range, got {Lambda_n}")
    return math.sqrt(math.factorial(m) / gamma) * R_mu ** n / math.sqrt(float(Lambda_n))
