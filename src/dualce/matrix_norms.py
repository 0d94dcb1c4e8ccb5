"""Dual-valued matrix norms, trace, and determinant.

Unitarily invariant kinds (Ky Fan p-k, Ky Fan k, spectral, Schatten p,
nuclear) are dual vector norms of the dual singular values that a
Decomposition carries: the Ky Fan p-k norm is the dual vector p-norm of the
first k, the Schatten p-norm that of all of them, for 1 <= p <= inf, and the
Ky Fan k, spectral and nuclear norms are their p = 1 cases.  Each accepts a
DualMatrix, decomposed at the default tolerances, or a Decomposition, read
as it was built, so many norms of one matrix need one SVD.  Operator 1- and
infinity-norms are lexicographic maxima of dual column / row 1-norms.

Past the rank, for p > 1, the value is still the one-sided derivative,
which finite differences approach only as t^(p-1) (see ky_fan_pk_norm).

Every kind returns ||A_i|| eps (same real norm of the infinitesimal part)
when A_s is exactly zero.
"""

from __future__ import annotations

import numpy as np

from .core import DualMatrix, DualScalar, DualVector, check_integer, check_square
from .svd import Decomposition, decompose
from .vector_norms import dual_vector_norm


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(x * y))


def ky_fan_pk_norm(a: DualMatrix | Decomposition, k: int, p: float) -> DualScalar:
    """Dual-valued Ky Fan p-k norm, 1 <= p <= inf, 1 <= k <= min(m, n).

    The dual vector p-norm of the first k dual singular values.  For p > 1
    its infinitesimal part is
    [<U1 Sigma1^(p-1) V1^T, A_i> + sigma_k^(p-1) sum_{l<=t} lambda_l(M)]
    divided by ||A_s||_{(k,p)}^(p-1), where U2/V2 span the singular subspace
    of the block containing sigma_k, M = sym(U2^T A_i V2), and t counts the
    block positions at or before k.  With k past the rank, sigma_k = 0 and
    the block term vanishes: the singular values past the rank add O(t^p)
    to the real norm along A_s + t A_i, so the value is the one-sided
    derivative, and finite differences approach it only as t^(p-1).
    p = 1 is the Ky Fan k-norm; p = inf is the spectral norm for every k.
    """
    check_integer(k, "k", 1, min(a.shape))
    return dual_vector_norm(decompose(a).sigma[:k], p)


def ky_fan_norm(a: DualMatrix | Decomposition, k: int) -> DualScalar:
    """Dual-valued Ky Fan k-norm (sum of the k largest singular values).

    The Ky Fan p-k norm at p = 1.  With sigma_k > 0 the infinitesimal part
    is <U1 V1^T, A_i> + sum_{l<=t} lambda_l(sym(U2^T A_i V2)); past the rank
    the dual singular values are the leading singular values of
    N = U(:, r+1:m)^T A_i V(:, r+1:n), which accounts for the rank of A_s
    growing in the direction A_i.
    """
    return ky_fan_pk_norm(a, k, 1.0)


def spectral_norm(a: DualMatrix | Decomposition) -> DualScalar:
    """Dual-valued spectral norm, the Ky Fan 1-norm:
    sigma_1 + lambda_max(sym(U_r1^T A_i V_r1)) eps."""
    return ky_fan_pk_norm(a, 1, 1.0)


def schatten_norm(a: DualMatrix | Decomposition, p: float) -> DualScalar:
    """Dual-valued Schatten p-norm for 1 <= p <= inf.

    The dual vector p-norm of all dual singular values.  For p > 1 the
    infinitesimal part is <U_r Sigma_r^(p-1) V_r^T, A_i> normalized by
    ||A_s||_{S_p}^(p-1), with the compact factors of A_s; p = 1 is the
    nuclear norm, which adds the complement term ||U_c^T A_i V_c||_*, and
    p = inf the spectral norm.  Past the rank, see ky_fan_pk_norm.
    """
    return dual_vector_norm(decompose(a).sigma, p)


def nuclear_norm(a: DualMatrix | Decomposition) -> DualScalar:
    """Dual-valued nuclear norm, the Schatten 1-norm.

    The infinitesimal part <U_r V_r^T, A_i> + ||U_c^T A_i V_c||_* uses the
    orthogonal complements U_c, V_c of the compact factors from the full
    SVD; the complement term is how growth of rank in the direction A_i
    shows up.
    """
    return schatten_norm(a, 1.0)


def frobenius_norm(a: DualMatrix) -> DualScalar:
    """Dual-valued Frobenius norm, the dual 2-norm of the entries:
    ||A_s||_F + <A_s, A_i> / ||A_s||_F eps."""
    return dual_vector_norm(DualVector(a.s.ravel(), a.i.ravel()), 2.0)


def operator_one_norm(a: DualMatrix) -> DualScalar:
    """Max dual 1-norm over columns (lexicographic max of dual numbers)."""
    if a.shape[1] == 0:
        raise ValueError("operator norm of an empty matrix")
    return max(
        dual_vector_norm(DualVector(a.s[:, j], a.i[:, j]), 1.0)
        for j in range(a.shape[1])
    )


def operator_inf_norm(a: DualMatrix) -> DualScalar:
    """Max dual 1-norm over rows (lexicographic max of dual numbers)."""
    return operator_one_norm(a.T)


def dual_trace(a: DualMatrix) -> DualScalar:
    """tr(A_s) + tr(A_i) eps for square dual matrices."""
    check_square(a, "trace")
    return DualScalar(float(np.trace(a.s)), float(np.trace(a.i)))


def _adjugate(a_s: np.ndarray) -> np.ndarray:
    """adj(A) from one SVD A = U diag(s) V^T: det(U V^T) V diag(prod_{j != i}
    s_j) U^T, the products taken as prefix x suffix, so it stays exact in
    form where A is singular or ill-conditioned and det(A) inv(A) is not."""
    u, s, vt = np.linalg.svd(a_s)
    before = np.cumprod(np.concatenate([[1.0], s[:-1]]))
    after = np.cumprod(np.concatenate([[1.0], s[:0:-1]]))[::-1]
    return np.linalg.det(u @ vt) * (vt.T * (before * after)) @ u.T


def dual_det(a: DualMatrix) -> DualScalar:
    """Dual determinant det(A_s) + <adj(A_s)^T, A_i> eps."""
    check_square(a, "determinant")
    det_s = float(np.linalg.det(a.s))
    adj = _adjugate(a.s)
    return DualScalar(det_s, _inner(adj.T, a.i))
