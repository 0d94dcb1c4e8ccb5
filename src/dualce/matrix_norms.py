"""Dual-valued matrix norms, trace, and determinant.

Unitarily invariant kinds (Ky Fan p-k, Ky Fan k, spectral, Schatten p,
nuclear) are dual vector norms of the dual singular values that a
Decomposition carries: the Ky Fan p-k norm is the dual vector p-norm of the
first k, the Schatten p-norm that of all of them, and the Ky Fan k,
spectral and nuclear norms are their p = 1 cases.  Each accepts a
DualMatrix, decomposed at the default tolerances, or a Decomposition, read
as it was built, so many norms of one matrix need one SVD.  Operator 1- and
infinity-norms are lexicographic maxima of dual column / row 1-norms.

Every kind returns ||A_i|| eps (same real norm of the infinitesimal part)
when A_s is exactly zero.  Inputs with m < n are decomposed through their
transpose for the unitarily invariant kinds; operator norms keep their
row/column meaning and are never transposed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import DualMatrix, DualScalar, DualVector, check_integer, check_square
from .svd import Decomposition, decomposed
from .vector_norms import dual_vector_norm

ADJUGATE_COND_LIMIT = 1e8


class RankDeficiencyWarning(UserWarning):
    """A Ky Fan p-k norm was evaluated with sigma_k = 0 and 1 < p < inf.

    The dual singular values past the rank enter the dual vector p-norm
    with weight 0; the general subdifferential construction only covers
    this regime for p = 1, so the value is the natural limit rather than a
    proved formula.
    """


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(x * y))


def ky_fan_pk_norm(a: DualMatrix | Decomposition, k: int, p: float) -> DualScalar:
    """Dual-valued Ky Fan p-k norm, 1 <= p < inf, 1 <= k <= min(m, n).

    The dual vector p-norm of the first k dual singular values.  For p > 1
    its infinitesimal part is
    [<U1 Sigma1^(p-1) V1^T, A_i> + sigma_k^(p-1) sum_{l<=t} lambda_l(M)]
    divided by ||A_s||_{(k,p)}^(p-1), where U2/V2 span the singular subspace
    of the block containing sigma_k, M = sym(U2^T A_i V2), and t counts the
    block positions at or before k.  p = 1 is the Ky Fan k-norm.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"ky_fan_pk_norm requires 1 <= p < inf, got {p}")
    check_integer(k, "k", 1, min(a.shape))
    d = decomposed(a)
    if p > 1.0 and 0 < d.rank < k:
        warnings.warn(
            f"Ky Fan ({k},{p}) norm at sigma_{k} = 0: block term vanishes",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return dual_vector_norm(d.sigma[:k], p)


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
    """Dual-valued Schatten p-norm for 1 <= p < inf.

    The dual vector p-norm of all dual singular values.  For p > 1 the
    infinitesimal part is <U_r Sigma_r^(p-1) V_r^T, A_i> normalized by
    ||A_s||_{S_p}^(p-1), with the compact factors of A_s; p = 1 is the
    nuclear norm, which adds the complement term ||U_c^T A_i V_c||_*.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"schatten_norm requires 1 <= p < inf, got {p}")
    return dual_vector_norm(decomposed(a).sigma, p)


def nuclear_norm(a: DualMatrix | Decomposition) -> DualScalar:
    """Dual-valued nuclear norm, the Schatten 1-norm.

    The infinitesimal part <U_r V_r^T, A_i> + ||U_c^T A_i V_c||_* uses the
    orthogonal complements U_c, V_c of the compact factors from the full
    SVD; the complement term is how growth of rank in the direction A_i
    shows up.
    """
    return schatten_norm(a, 1.0)


def frobenius_norm(a: DualMatrix) -> DualScalar:
    """Dual-valued Frobenius norm: ||A_s||_F + <A_s, A_i> / ||A_s||_F eps."""
    if not a.s.any():
        return DualScalar(0.0, float(np.linalg.norm(a.i)))
    value = float(np.linalg.norm(a.s))
    return DualScalar(value, _inner(a.s, a.i) / value)


def operator_one_norm(a: DualMatrix) -> DualScalar:
    """Max dual 1-norm over columns (lexicographic max of dual numbers)."""
    best = None
    for j in range(a.shape[1]):
        cand = dual_vector_norm(DualVector(a.s[:, j], a.i[:, j]), 1.0)
        if best is None or cand > best:
            best = cand
    if best is None:
        raise ValueError("operator norm of an empty matrix")
    return best


def operator_inf_norm(a: DualMatrix) -> DualScalar:
    """Max dual 1-norm over rows (lexicographic max of dual numbers)."""
    return operator_one_norm(a.T)


def dual_trace(a: DualMatrix) -> DualScalar:
    """tr(A_s) + tr(A_i) eps for square dual matrices."""
    check_square(a, "trace")
    return DualScalar(float(np.trace(a.s)), float(np.trace(a.i)))


def _adjugate(a_s: np.ndarray) -> np.ndarray:
    n = a_s.shape[0]
    if n == 1:
        return np.ones((1, 1))
    cond = np.linalg.cond(a_s)
    if np.isfinite(cond) and cond <= ADJUGATE_COND_LIMIT:
        return np.linalg.det(a_s) * np.linalg.inv(a_s)
    # Singular or ill-conditioned, where adj is still well-defined but
    # det * inv is not: with A = U diag(s) V^T, adj(A) = det(U V^T) V
    # diag(prod_{j != i} s_j) U^T, the products taken as prefix x suffix.
    u, s, vt = np.linalg.svd(a_s)
    before = np.cumprod(np.concatenate([[1.0], s[:-1]]))
    after = np.cumprod(np.concatenate([[1.0], s[:0:-1]]))[::-1]
    return np.linalg.det(u @ vt) * (vt.T * (before * after)) @ u.T


def dual_det(a: DualMatrix) -> DualScalar:
    """Dual determinant det(A_s) + <adj(A_s)^T, A_i> eps."""
    check_square(a, "determinant")
    if a.shape[0] == 0:
        return DualScalar(1.0, 0.0)
    det_s = float(np.linalg.det(a.s))
    adj = _adjugate(a.s)
    return DualScalar(det_s, _inner(adj.T, a.i))
