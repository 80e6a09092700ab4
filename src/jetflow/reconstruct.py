"""Map reconstruction from a push-forward estimate, and its least-squares twin.

Component i of the reconstructed map is u_{p,m}(z) C^* (d/dz_i v_{q,m})(0)^*.
At p = 0 this coincides, monomial by monomial, with truncating a degree-n
least-squares polynomial fit to degree m (after restoring the constant term).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .fock import SampleSet, _array, basis_gradient_at_zero, feature_matrix_U
from .maps import MapExpr, eval_map, eval_map_batch
from .multiindex import graded_numbering, graded_powers, jet_dimension
from .pushforward import PushforwardEstimate, estimate_pushforward, rank_checked_lstsq


def read_off(matrix: np.ndarray, p, q, m: int, Z) -> np.ndarray:
    """Rows u_{p,m}(z) matrix^* (d/dz_i v_{q,m})(0)^*, i = 1..r, for every row z of Z.

    The gradient functionals are built once, so a whole (P, d) grid costs one
    feature build and one matrix product and gives a (P, r) array; a single
    point z gives a length-r vector.
    """
    q = _array(q, "target base point", vector=True, dtype=np.complex128)
    G = np.column_stack([basis_gradient_at_zero(q, m, i) for i in range(1, q.shape[0] + 1)])
    out = feature_matrix_U(p, m, Z) @ (matrix.conj().T @ G.conj())
    return out if np.ndim(Z) == 2 else out[0]


def reconstruct_eval(estimate: PushforwardEstimate, p, q, m: int, z) -> np.ndarray:
    """Evaluate the reconstructed map at a point z (length r) or a (P, d) grid ((P, r))."""
    if m != estimate.m:
        raise InputError(f"estimate was built at order {estimate.m}, not {m}")
    return read_off(estimate.C_hat, p, q, m, z)


def monomial_design(X, n: int) -> np.ndarray:
    """N x r_n matrix of plain monomials x^alpha in graded order."""
    return graded_powers(_array(X, "sample points", dtype=np.float64), n)


def truncated_lsq(X, Y, m: int, n: int) -> np.ndarray:
    """Degree-n least-squares polynomial fit, truncated to coefficients of degree <= m."""
    if not 1 <= m <= n:
        raise InputError(f"orders must satisfy 1 <= m <= n, got m={m}, n={n}")
    X = _array(X, "sample points", dtype=np.float64)
    Y = np.asarray(Y, dtype=np.complex128).ravel()
    if Y.shape[0] != X.shape[0]:
        raise InputError(f"{X.shape[0]} points but {Y.shape[0]} values")
    A = monomial_design(X, n)
    # one real solve for both parts of Y
    C, _, _ = rank_checked_lstsq([(A, Y.real[:, None], Y.imag[:, None])], A.shape[1],
                                 "monomial design matrix")
    coeff = C[:, 0] + 1j * C[:, 1]
    return coeff[: jet_dimension(X.shape[1], m)]


def pipeline_and_lsq_coefficients(g: MapExpr, X, m: int, n: int
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """Monomial coefficients of the feature pipeline at p=0 and of truncated LSQ.

    g must be scalar-valued; the pipeline runs on f = g - g(0) and the constant
    is restored before comparing against the direct polynomial fit of g.
    """
    if g.r != 1:
        raise InputError(f"expected a scalar-valued map, got r={g.r}")
    d = g.d
    X = _array(X, "sample points", d, dtype=np.float64)
    g0 = complex(eval_map(g, np.zeros(d))[0])
    if abs(g0.imag) > 1e-12:
        raise InputError(f"map value at 0 must be real, got {g0}")
    Yg = eval_map_batch(g, X)[:, 0]
    # centered samples feed the feature pipeline; the constant is restored below
    samples = SampleSet(Z=X, W=(Yg - g0.real)[:, None])
    est = estimate_pushforward(np.zeros(d), np.zeros(1), m, n, samples)
    grad = basis_gradient_at_zero(np.zeros(1), m, 1)
    pulled = est.C_hat.conj().T @ np.conj(grad)  # feature coefficients of the pipeline map
    table = graded_numbering(d, m)
    mono = pulled / np.sqrt(np.array(table.factorials, dtype=np.float64))
    mono[0] += g0
    direct = truncated_lsq(X, Yg, m, n)
    return mono, direct


def lsq_equivalence_check(g: MapExpr, X, m: int, n: int) -> float:
    """Max coefficient gap between the feature pipeline at p=0 and truncated LSQ."""
    mono, direct = pipeline_and_lsq_coefficients(g, X, m, n)
    return float(np.max(np.abs(mono - direct)))
