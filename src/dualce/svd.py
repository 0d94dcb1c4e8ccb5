"""Compact dual singular value decomposition (CDSVD).

A dual matrix A = A_s + A_i eps is factored as U Sigma V^T with dual factors
built by first-order perturbation of the standard-part SVD.  Repeated
singular values are handled in blocks: within a block of equal sigma the
infinitesimal singular values are the descending eigenvalues of
sym(U_g^T A_i V_g), and the block's singular vector basis is rotated into
that eigenbasis.  Off-block first-order coupling fixes the rest of U_i, V_i.

The one SVD of the standard part, rotated block by block, is a
Decomposition; its blocks are the (start, stop) index ranges of the
repeated values.  It carries the dual singular values: with B = U^T A_i V,
B_jj on a 1 x 1 block, the descending eigenvalues above on a repeated
block, and past the rank the singular values of B's trailing corner, the
growth of rank in the direction A_i.  The dual SVD and every unitarily
invariant dual norm are read from it, so the tolerances are set only on
decompose: a DualMatrix passed to cdsvd or to a norm is decomposed at the
defaults.

Whether an exact CDSVD exists is reported through the residual (the norm of
the part of A_i that no first-order factor choice can reproduce), never as
an exception.

Sensitivity note: two singular values whose gap is slightly above
group_tol * sigma_1 are treated as distinct, and the coupling denominators
sigma_k**2 - sigma_j**2 then produce large rotations.  There is no canonical
normalization for that regime; pass decompose(a, group_tol=...) with a
wider group_tol to treat such pairs as one block instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DualMatrix, DualVector, check_real, skew, sym

RANK_TOL = 1e-12
GROUP_TOL = 1e-8


@dataclass(frozen=True)
class CdsvdResult:
    U: DualMatrix
    S: DualVector
    V: DualMatrix
    residual: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """SVD of a dual matrix's standard part and its dual singular values.

    matrix is the m x n dual matrix decomposed: u (m x m) and v (n x n)
    are full singular vector bases of A_s and s its min(m, n) singular
    values, descending.  rank counts s > RANK_TOL * s[0]; blocks holds the
    half-open (start, stop) ranges of the first rank values, grouped at the
    group_tol given to decompose, and each block of u and v is rotated
    into the eigenbasis of sym(B) on the block, descending, where
    B = U^T A_i V.  sigma holds the min(m, n) dual singular values:
    standard part s with exact zeros past the rank; infinitesimal part
    diag(B) up to the rank (the eigenvalues on a block), then the
    descending singular values of B[rank:, rank:].  No sign convention is
    applied: flipping a pair u_j, v_j together leaves sigma unchanged.
    """

    matrix: DualMatrix
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int
    blocks: tuple[tuple[int, int], ...]
    sigma: DualVector

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


def group_singular_values(
    s: np.ndarray, group_tol: float
) -> tuple[tuple[int, int], ...]:
    """Half-open (start, stop) blocks of s, chaining consecutive singular
    values whose gap is <= group_tol * s[0]."""
    group_tol = check_real(group_tol, "group_tol", 0.0)
    if len(s) == 0:
        return ()
    cuts = (np.flatnonzero(s[:-1] - s[1:] > group_tol * s[0]) + 1).tolist()
    edges = [0, *cuts, len(s)]
    return tuple(zip(edges[:-1], edges[1:]))


def _signfix_columns(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each left vector (the first, on a tie) made
    # positive, flipping the paired right vector too, so outputs are
    # reproducible across runs.
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    return np.where(flip, -u, u), np.where(flip, -v, v)


def decompose(
    a: DualMatrix | Decomposition, group_tol: float = GROUP_TOL
) -> Decomposition:
    """The one full SVD of A_s and the dual singular values; a
    Decomposition is returned as it was built, whatever group_tol."""
    if isinstance(a, Decomposition):
        return a
    u, s, vt = np.linalg.svd(a.s, full_matrices=True)
    v = vt.T
    n = s.size
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if n else 0
    blocks = group_singular_values(s[:rank], group_tol)
    b = u.T @ a.i @ v
    s_i = np.diagonal(b)[:rank].copy()
    # Rotate each repeated block into the eigenbasis of its symmetrized part
    # of B; its eigenvalues, descending, are the block's entries of sigma.
    for start, stop in blocks:
        if stop - start > 1:
            w, q = np.linalg.eigh(sym(b[start:stop, start:stop]))
            s_i[start:stop] = w[::-1]
            u[:, start:stop] = u[:, start:stop] @ q[:, ::-1]
            v[:, start:stop] = v[:, start:stop] @ q[:, ::-1]
    # Past the rank the dual singular values are those of B's trailing
    # corner.  schatten_norm, nuclear_norm and ky_fan_pk_norm with k > rank
    # read them; norm_sweep and cdsvd stop at the rank.
    corner = np.linalg.svd(b[rank:, rank:], compute_uv=False) if rank < n else []
    sigma = DualVector(
        np.concatenate([s[:rank], np.zeros(n - rank)]), np.concatenate([s_i, corner])
    )
    return Decomposition(a, u, s, v, rank, blocks, sigma)


def _coupling_generators(
    b: np.ndarray, s: np.ndarray, blocks: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Solve B = Omega_U Sigma + Sigma_i - Sigma Omega_V for the generators.

    Entries (j, k) in different blocks solve the 2 x 2 first-order system;
    inside a block only the skew part of B is determined; it is split
    evenly between the two generators, with the block mean of sigma as the
    in-block scale.
    """
    gid = np.repeat(np.arange(len(blocks)), [stop - start for start, stop in blocks])
    same = gid[:, None] == gid[None, :]
    sj, sk = s[:, None], s[None, :]
    denom = np.where(same, 1.0, sk**2 - sj**2)
    block_mean = np.array([np.mean(s[start:stop]) for start, stop in blocks])
    half_skew = skew(b) / (2.0 * block_mean[gid][:, None])
    omega_u = np.where(same, half_skew, (sk * b + sj * b.T) / denom)
    omega_v = np.where(same, -half_skew, (sj * b + sk * b.T) / denom)
    return omega_u, omega_v


def cdsvd(a: DualMatrix | Decomposition) -> CdsvdResult:
    """Compact dual SVD of a dual matrix.

    The rotated singular vectors and dual singular values up to the rank
    come from the decomposition; the columns are sign-fixed, the off-block
    entries of the rotation generators solve the first-order coupling
    equations, and complement components of A_i are folded into U_i, V_i
    where the compact spans allow.  A zero standard part yields empty
    factors and residual ||A_i||_F.
    """
    d = decompose(a)
    a_i = d.matrix.i
    m, n = a_i.shape
    r = d.rank
    sigma = d.sigma[:r]
    if r == 0:
        return CdsvdResult(
            DualMatrix(np.zeros((m, 0)), np.zeros((m, 0))),
            sigma,
            DualMatrix(np.zeros((n, 0)), np.zeros((n, 0))),
            float(np.linalg.norm(a_i)),
        )
    s, s_i = sigma.s, sigma.i
    u, v = _signfix_columns(d.u[:, :r], d.v[:, :r])

    # First-order coupling, with B taken in the sign-fixed basis.
    b = u.T @ a_i @ v
    omega_u, omega_v = _coupling_generators(b, s, d.blocks)

    # Components of A_i orthogonal to the compact column spans are folded
    # in where a first-order factor can carry them; what remains is the
    # genuinely unreconstructable corner.
    u_i = u @ omega_u + (a_i @ v - u @ b) / s[None, :]
    v_i = v @ omega_v + (a_i.T @ u - v @ b.T) / s[None, :]

    res_u, res_v = DualMatrix(u, u_i), DualMatrix(v, v_i)
    recon = res_u @ DualMatrix(np.diag(s), np.diag(s_i)) @ res_v.T
    residual = float(np.linalg.norm(a_i - recon.i))
    return CdsvdResult(res_u, sigma, res_v, residual)
