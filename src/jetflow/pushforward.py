"""Finite push-forward matrices: regression estimate and jet-space oracle.

The estimate is the leftmost block of V* (U*)^+ built from feature matrices at
sample pairs (z, f(z)), solved from the triangular factor of [U | V], which is
accumulated one block of rows at a time.  The oracle computes the same matrix
exactly from jets of f at the base point, by pairing derivative functionals
against the target features composed with f.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import solve_triangular

from .errors import EstimatorIllPosedError, NonPositiveDefiniteError
from .fock import SampleSet, feature_matrix_U, feature_matrix_V
from .jets import constant_jet, jet_exp, jet_int_pow, jet_mul
from .maps import MapExpr, jet_of_map
from .multiindex import graded_numbering, graded_powers, jet_dimension


def default_rcond(N: int, r_n: int) -> float:
    """Relative singular-value cutoff for the feature pseudo-inverse."""
    return 1e-12 * max(N, r_n)


# Rows of [U | V] built and folded into the triangular factor at a time: the
# estimator holds one block and the factor, never all N rows
_BLOCK_ROWS = 16384


def rank_checked_lstsq(blocks, r: int, name: str, rcond: float | None = None):
    """Least-squares solution (X, s, rcond) of L X = R for an N x r matrix L of full column rank.

    `blocks` yields row blocks of [L | R].  Each one is folded into the
    triangular factor of [L | R] by R-only Householder QR (sequential TSQR):
    [L | R] = Q [[T, T_R], [0, *]], so X = L^+ R = T^-1 T_R, and the singular
    values s of the r x r block T are those of L.  Warns when N < r and raises
    EstimatorIllPosedError unless all r singular values exceed rcond * s[0]
    (rcond defaults to default_rcond(N, r)).
    """
    N, R = 0, None
    for block in blocks:
        N += block.shape[0]
        R = np.linalg.qr(block if R is None else np.vstack([R, block]), mode="r")
    if N < r:
        warnings.warn(f"only {N} samples for the {r} columns of the {name}; "
                      "the fit is underdetermined", stacklevel=3)
    if rcond is None:
        rcond = default_rcond(N, r)
    T = R[:r, :r]
    s = np.linalg.svd(T, compute_uv=False)
    kept = int(np.count_nonzero(s > rcond * s[0]))
    if kept < r:
        raise EstimatorIllPosedError(f"{name} has numerical rank {kept} < {r}", s)
    return solve_triangular(T, R[:r, r:]), s, rcond


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
            raise ValueError(f"estimate has shape {self.C_hat.shape}, expected {expected}")


def estimate_pushforward(p, q, m: int, n: int, samples: SampleSet,
                         rcond: float | None = None) -> PushforwardEstimate:
    """Least-squares push-forward estimate from paired samples.

    p is the source base point, q = f(p) the target one; m is the block order,
    n >= m the regression order.  The feature matrices U and V are built and
    factored _BLOCK_ROWS rows at a time, so memory is O(_BLOCK_ROWS * r_n) for
    any N; when p, q and all samples are real, every step runs in float64.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    q = np.atleast_1d(np.asarray(q, dtype=np.complex128))
    if not 1 <= m <= n:
        raise ValueError(f"orders must satisfy 1 <= m <= n, got m={m}, n={n}")
    d, r = p.shape[0], q.shape[0]
    Z, W = samples.Z, samples.W
    if not any(np.any(x.imag) for x in (p, q, Z, W)):
        p, q, Z, W = p.real, q.real, Z.real, W.real  # real data: the solve runs in float64
    blocks = (np.hstack([feature_matrix_U(p, n, Z[i:i + _BLOCK_ROWS]),
                         feature_matrix_V(q, m, W[i:i + _BLOCK_ROWS])])
              for i in range(0, len(samples), _BLOCK_ROWS))
    X, s, rcond = rank_checked_lstsq(blocks, jet_dimension(d, n), "feature matrix", rcond)
    # V* (U*)^+ = (U^+ V)^*, in complex128 whichever arithmetic ran
    return PushforwardEstimate(
        C_hat=X[:jet_dimension(d, m)].conj().T.astype(np.complex128),
        m=m,
        n=n,
        d=d,
        r=r,
        pinv_rcond=float(rcond),
        smallest_kept_sv=float(s[-1]),
        largest_sv=float(s[0]),
    )


@dataclass(frozen=True)
class OraclePushforward:
    """Exact order-m push-forward matrix and the Jacobian of f at the base point."""

    C: np.ndarray  # r_m(target) x r_m(source)
    jacobian: np.ndarray  # r x d


def oracle_pushforward(f: MapExpr, p, m: int) -> OraclePushforward:
    """Exact push-forward block of order m computed from jets of f about p."""
    if m < 1:
        raise ValueError(f"order must be at least 1, got {m}")
    p = np.atleast_1d(np.asarray(p))
    if np.any(np.imag(p) != 0):
        raise ValueError(f"complex base points are not supported yet, got {p}")
    p = np.real(p).astype(np.float64)
    if p.shape != (f.d,):
        raise ValueError(f"base point has shape {p.shape}, expected ({f.d},)")
    d, r = f.d, f.r
    table_E = graded_numbering(d, m)
    table_F = graded_numbering(r, m)
    jets_f = jet_of_map(f, p, m)
    q = np.array([jf.coeffs[0] for jf in jets_f])
    jac = np.array([[jets_f[k].coeffs[1 + i] for i in range(d)] for k in range(r)])

    # jets of the centered components and of e^{<f-q, q>}
    centered = [jf - q_k for jf, q_k in zip(jets_f, q)]
    expo = constant_jet(centered[0].table, 0.0)
    for k in range(r):
        expo += centered[k] * complex(np.conj(q[k]))
    kernel = jet_exp(expo)

    H = np.empty((len(table_F), len(table_E)), dtype=np.complex128)
    for j, beta in enumerate(table_F.entries):
        g = kernel
        for k, b in enumerate(beta):
            if b:
                g = jet_mul(g, jet_int_pow(centered[k], b))
        H[j] = g.coeffs

    # contraction with the derivative-functional coefficients of the source features
    M = np.zeros((len(table_E), len(table_E)))
    neg_p = graded_powers(-p[None, :], m)[0]
    pref = math.exp(-float(p @ p) / 2)
    for i, alpha in enumerate(table_E.entries):
        scale = pref / math.sqrt(table_E.factorials[i])
        for gamma in product(*(range(a + 1) for a in alpha)):
            t = table_E.position(gamma)
            binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            mono = neg_p[table_E.position(tuple(a - g for a, g in zip(alpha, gamma)))]
            M[i, t] = scale * binom * mono * table_E.factorials[t]

    fac_F = np.array(table_F.factorials, dtype=np.float64)
    row_scale = math.exp(float(np.vdot(q, q).real) / 2) / np.sqrt(fac_F)
    C = (row_scale[:, None] * np.conj(H)) @ M.T
    return OraclePushforward(C=C, jacobian=jac)


def gamma_check(D_mu: np.ndarray, D_hat: np.ndarray) -> float:
    """Operator-norm distance of the whitened empirical moment matrix from identity."""
    D_mu = np.asarray(D_mu, dtype=np.float64)
    D_hat = np.asarray(D_hat, dtype=np.float64)
    if D_mu.shape != D_hat.shape or D_mu.ndim != 2 or D_mu.shape[0] != D_mu.shape[1]:
        raise ValueError(f"shape mismatch: {D_mu.shape} vs {D_hat.shape}")
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
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if Lambda_n <= 0:
        raise ValueError(f"Lambda_n must be positive, got {Lambda_n}")
    return math.sqrt(math.factorial(m) / gamma) * R_mu ** n / math.sqrt(float(Lambda_n))
