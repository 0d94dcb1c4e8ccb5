"""Shared generators and comparison helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dualce import (
    GROUP_TOL,
    RANK_TOL,
    DualMatrix,
    DualScalar,
    DualVector,
    dm_inverse,
    group_singular_values,
    skew,
    sym,
    validate_dtpm,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def assert_dual_close(value, s, i, tol_s=1e-10, tol_i=1e-8):
    __tracebackinfo__ = False
    assert abs(value.s - s) <= tol_s, f"standard part {value.s} != {s}"
    assert abs(value.i - i) <= tol_i, f"infinitesimal part {value.i} != {i}"


def random_dual_vector(rng, n, zero_prob=0.0):
    s = rng.standard_normal(n)
    if zero_prob:
        s[rng.random(n) < zero_prob] = 0.0
    return DualVector(s, rng.standard_normal(n))


def random_dual_matrix(rng, m, n, min_gap=0.0):
    """Random dense dual matrix; optionally resample until the standard
    part's singular values are pairwise separated by min_gap (keeps
    finite-difference oracles away from unintended near-crossings)."""
    while True:
        a = DualMatrix(rng.standard_normal((m, n)), rng.standard_normal((m, n)))
        if not min_gap:
            return a
        s = np.linalg.svd(a.s, compute_uv=False)
        if s[-1] > min_gap and np.all(np.diff(-s) > min_gap):
            return a


def dm_random_orthogonal(n, seed):
    """Random dual-orthogonal matrix, deterministic per seed.

    The standard part comes from a QR factorization with the sign convention
    diag(R) > 0; the infinitesimal part is Q K with K random skew-symmetric,
    which is exactly the first-order tangent space of the orthogonal group.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    k = skew(rng.standard_normal((n, n)))
    return DualMatrix(q, q @ k)


def matrix_with_sigmas(rng, m, n, sigmas):
    """Dual matrix whose standard part has the prescribed singular values."""
    sigmas = np.asarray(sigmas, dtype=float)
    r = len(sigmas)
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    s_part = u @ np.diag(sigmas) @ v.T
    return DualMatrix(s_part, rng.standard_normal((m, n)))


def real_kyfan_pk(m, k, p):
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sum(s[:k] ** p) ** (1.0 / p))


def reference_ky_fan(a, k, p):
    """Ky Fan p-k norm (p = 1: the Ky Fan k-norm) from its closed forms.

    Computed apart from the dual singular values, with the singular values
    grouped over all n at GROUP_TOL: the head sum_j (sigma_j / value)^(p-1)
    B_jj before sigma_k's block, plus sigma_k^(p-1) / value^(p-1) times the
    leading descending eigenvalues of sym(B) on that block.  At sigma_k = 0
    the block term is the leading singular values of B's trailing corner
    from the block start for p = 1, and vanishes (head up to the rank) for
    p > 1.
    """
    s_part, i_part = (a.s, a.i) if a.shape[0] >= a.shape[1] else (a.s.T, a.i.T)
    u, s, vt = np.linalg.svd(s_part)
    b = u.T @ i_part @ vt.T
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    start, stop = next(
        (lo, hi) for lo, hi in group_singular_values(s, GROUP_TOL) if lo < k <= hi
    )
    value = float(np.sum(s[:k] ** p) ** (1.0 / p))
    if k <= rank:
        lam = np.sort(np.linalg.eigvalsh(sym(b[start:stop, start:stop])))[::-1]
        tail = (s[k - 1] / value) ** (p - 1.0) * float(np.sum(lam[: k - start]))
    elif p == 1.0:
        tail = float(np.sum(np.linalg.svd(b[start:, start:], compute_uv=False)[: k - start]))
    else:
        start, tail = rank, 0.0
    head = float(np.sum((s[:start] / value) ** (p - 1.0) * np.diagonal(b)[:start]))
    return DualScalar(value, head + tail)


def random_tpm(rng, n):
    m = rng.uniform(0.1, 1.0, size=(n, n))
    return m / m.sum(axis=0, keepdims=True)


def random_dtpm(rng, n):
    """Dense random dual TPM: full support, so the sign mask is empty and
    any column-sum-zero infinitesimal part is admissible."""
    p_i = rng.standard_normal((n, n))
    p_i -= p_i.mean(axis=0, keepdims=True)
    return DualMatrix(random_tpm(rng, n), p_i)


def random_permutation_matrix(rng, n):
    perm = rng.permutation(n)
    m = np.zeros((n, n))
    m[perm, np.arange(n)] = 1.0
    return m


def permutation_with_drift(perm, off):
    """The DTPM perm + P_i eps: P_i is `off` (>= 0) off perm's support, and
    each column's hot entry absorbs the column sum."""
    rows, cols = np.nonzero(perm)
    p_i = np.array(off, dtype=float)
    p_i[rows, cols] = 0.0
    p_i[rows, cols] = -p_i.sum(axis=0)[cols]
    return DualMatrix(perm, p_i)


def inverse_is_dtpm(p):
    """Dynamical reversibility from its definition: the dual inverse of p
    exists and is a dual TPM.  The reference for is_dynamically_reversible,
    which decides it by the permutation characterization instead."""
    try:
        validate_dtpm(dm_inverse(p))
    except (np.linalg.LinAlgError, ValueError):
        return False
    return True


def fd_check(closed, estimate, tol=None):
    """Compare a closed-form infinitesimal part against an FdEstimate."""
    __tracebackinfo__ = False
    if tol is None:
        tol = max(1e-4, 1e-3 * abs(closed.i))
    gap = abs(closed.i - estimate.value)
    assert gap <= tol, (
        f"closed form {closed.i} vs finite difference {estimate.value} "
        f"(gap {gap:.3e} > {tol:.3e})"
    )


@pytest.fixture(scope="session")
def tiny_config():
    from dualce import PipelineConfig

    return PipelineConfig(far_weight=2, near_weight=2, bar=1, t=50, seed=7)
