"""Shared generators and comparison helpers for the test suite, and the
table of closed forms checked against the finite-difference oracle."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dualce import (
    GROUP_TOL,
    RANK_TOL,
    DualMatrix,
    DualScalar,
    DualVector,
    cdsvd,
    dm_inverse,
    dual_abs,
    dual_det,
    dual_effective_information,
    dual_log2,
    dual_pow,
    dual_root,
    dual_trace,
    dual_vector_norm,
    effective_information,
    fd_directional,
    frobenius_norm,
    group_singular_values,
    ky_fan_norm,
    ky_fan_pk_norm,
    nuclear_norm,
    operator_inf_norm,
    operator_one_norm,
    schatten_norm,
    skew,
    spectral_norm,
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


def fd_bound(closed_i):
    """The largest gap fd_check accepts between a closed form's
    infinitesimal part and the oracle."""
    return 1e-7 * max(1.0, abs(closed_i))


def fd_check(closed, estimate):
    """Compare a closed-form infinitesimal part against a converged
    FdEstimate; returns the gap."""
    __tracebackinfo__ = False
    assert estimate.converged, f"finite differences did not converge: {estimate.steps}"
    gap = abs(closed.i - estimate.value)
    assert gap <= fd_bound(closed.i), (
        f"closed form {closed.i} vs finite difference {estimate.value} "
        f"(gap {gap:.3e} > {fd_bound(closed.i):.3e})"
    )
    return gap


def one_sided_quotients(f, x, u, ts):
    """(f(x + t u) - f(x)) / t at each t: for the rate tests, whose
    expansion in t is not a power series and so is not extrapolated."""
    f0 = f(x)
    return np.array([(f(x + t * u) - f0) / t for t in ts])


def assert_bits_equal(a, b):
    """Equal as stored doubles, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def projection_gap(v, q, mask, b):
    """How far q is from the Euclidean projection of v onto the columnwise
    set {u: sum(u) = b, u_j >= 0 where mask_j}: the largest violation,
    relative to max(1, ||v||_inf), of feasibility and of the first-order
    conditions.

    The set is convex and the distance strictly convex, so q is the
    projection exactly when it is feasible and, in each column, v - q is
    one multiplier lam on every free row and every row with q_j > 0, and at
    most lam on the masked rows with q_j = 0.  lam is the midrange of v - q
    over the first kind of rows, which minimizes their largest deviation;
    a column without such rows is all masked with no positive entry, and a
    large enough lam holds.
    """
    r = v - q
    equal = ~mask | (q > 0.0)
    hi = np.max(r, axis=0, where=equal, initial=-np.inf)
    lo = np.min(r, axis=0, where=equal, initial=np.inf)
    some = equal.any(axis=0)
    lam = np.full(r.shape[1], np.inf)
    lam[some] = 0.5 * (hi[some] + lo[some])
    violations = np.concatenate([
        np.abs(q.sum(axis=0) - b),
        -q[mask],
        0.5 * (hi - lo),
        (r - lam)[mask & ~equal],
    ])
    return float(np.max(violations)) / max(1.0, float(np.max(np.abs(v))))


def projection_cases():
    """(v, mask) pairs: random, tie-heavy, all-free, all-masked, signed zeros."""
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(40):
        n, c = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        v = rng.standard_normal((n, c))
        mask = rng.random((n, c)) < rng.uniform(0.0, 1.0)
        cases.append((v, mask))
        cases.append((np.round(v, 1), mask))
        cases.append((np.round(2.0 * v) / 2.0, rng.random((n, c)) < 0.8))
    v = rng.standard_normal((9, 7))
    cases.append((v, np.zeros_like(v, dtype=bool)))
    cases.append((v, np.ones_like(v, dtype=bool)))
    for _ in range(30):
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=(6, 5), p=[0.4, 0.4, 0.1, 0.1])
        cases.append((zeros, rng.random((6, 5)) < 0.7))
        cases.append((zeros, np.ones_like(zeros, dtype=bool)))
    cases.append((np.array([[-0.0], [0.0], [-0.0]]), np.array([[False], [True], [True]])))
    # Exact ties, one column each, "m" marking a masked entry and "f" a free
    # one: masked breakpoints equal to the root (1, or 0 among the signed
    # zeros), tied maxima in all-masked columns, and signed-zero
    # breakpoints.  The arithmetic is exact, so the count cut must give the
    # reference's multiplier to the bit.
    for values, kinds in (
        ([1.0, 1.0, -2.0], "mfm"), ([1.0, 1.0], "fm"), ([3.0, -1.0, 1.0, 0.5], "ffmm"),
        ([0.0, 2.0, 1.0, -1.0], "fmmm"), ([1.0, 1.0, 1.0, -4.0, 1.0], "mfmmm"),
        ([2.0, 2.0, -1.0], "mmm"), ([1.0, 1.0, -5.0], "mmm"), ([-1.0, -1.0, -2.0], "mmm"),
        ([0.5, 0.5, 0.5], "mmm"), ([0.0, -0.0, -0.0], "mmm"), ([-0.0, 0.0], "mm"),
        ([-0.0, 0.0, -0.0], "fmm"), ([-0.0, 0.0, 0.0], "mfm"),
        ([1.0, 0.0, -1.0, -0.0], "fmfm"),
    ):
        mask = np.array([[kind == "m"] for kind in kinds])
        cases.append((np.array(values)[:, None], mask))
    return cases


@pytest.fixture(scope="session")
def tiny_config():
    from dualce import PipelineConfig

    return PipelineConfig(far_weight=2, near_weight=2, bar=1, t=50, seed=7)


# ---------------------------------------------------------------------------
# The oracle table: every closed-form infinitesimal part against
# fd_directional of its real counterpart, at each input of its family.


class FdRow(NamedTuple):
    id: str
    dual: Callable  # dual point -> DualScalar
    real: Callable  # standard part -> float
    inputs: Callable  # () -> list of dual points


def fd_results(row):
    """(closed form, FdEstimate) at each of row's inputs."""
    return [(row.dual(x), fd_directional(row.real, x.s, x.i)) for x in row.inputs()]


def _scalars(draw):
    """200 dual scalars: standard part draw(rng, trial), infinitesimal part
    normal with scale 2."""
    rng = np.random.default_rng(20260816)
    return [DualScalar(draw(rng, trial), rng.normal(scale=2.0)) for trial in range(200)]


def _positive_scalars():
    return _scalars(lambda rng, trial: rng.uniform(0.2, 3.0))


def _vectors(p):
    """60 random dual vectors of 1 to 8 entries, then 200 of 2 to 7 entries,
    every tenth with a zero entry at p = 1 and a tie at the max at p = inf;
    at p = 1 and inf a fixed case ends the list."""
    rng = np.random.default_rng(42)
    out = [random_dual_vector(rng, rng.integers(1, 9)) for _ in range(60)]
    rng = np.random.default_rng(20260816)
    for trial in range(200):
        x_s, x_i = rng.standard_normal((2, rng.integers(2, 8)))
        if trial % 10 == 0 and p == 1.0:
            x_s[rng.integers(x_s.size)] = 0.0
        elif trial % 10 == 0 and p == math.inf:
            j = int(np.argmax(np.abs(x_s)))
            x_s[(j + 1) % x_s.size] = x_s[j]
        out.append(DualVector(x_s, x_i))
    if p == 1.0:
        # sign picks up 1 - 2 from the nonzero entries, |-3| from the zero one
        out.append(DualVector([2.0, 0.0, -1.0], [1.0, -3.0, 2.0]))
    if p == math.inf:
        # tied indices: max(1 * 1, -1 * 5) = 1
        out.append(DualVector([2.0, -2.0], [1.0, 5.0]))
    return out


REPEATED_SIGMAS = ([2.0, 2.0, 1.0, 0.5], [3.0, 3.0, 3.0, 0.9], [2.0, 1.0, 1.0, 1.0])


def _matrices():
    """200 random dual matrices of five shapes, singular values 0.05 apart,
    and 42 of shape 6 x 4 with a repeated singular value."""
    rng = np.random.default_rng(17)
    shapes = [(6, 4), (5, 4), (6, 6), (4, 7), (8, 3)]
    out = [random_dual_matrix(rng, m, n, min_gap=0.05) for _ in range(40) for m, n in shapes]
    out += [matrix_with_sigmas(rng, 6, 4, s) for _ in range(14) for s in REPEATED_SIGMAS]
    return out


def _spectral_inputs():
    # a repeated top singular value of a rank-deficient matrix, and A_s = 0
    rng = np.random.default_rng(61)
    return _matrices() + [
        matrix_with_sigmas(rng, 6, 5, [2.0, 2.0, 1.0]),
        DualMatrix(np.zeros((4, 3)), rng.standard_normal((4, 3))),
    ]


def _triple_block():
    # a multiplicity-3 block straddling k = 1 to 4
    rng = np.random.default_rng(23)
    return [matrix_with_sigmas(rng, 7, 4, [2.0, 2.0, 2.0, 0.7]) for _ in range(10)]


def _square_matrices():
    rng = np.random.default_rng(67)
    out = [random_dual_matrix(rng, 4, 4) for _ in range(230)]
    # dual_det's one-SVD adjugate, on full-rank and on rank n - 1 standard parts
    for n, shift in ((9, 9.0), (12, 0.0)):
        a_s = rng.standard_normal((n, n)) + shift * np.eye(n)
        out.append(DualMatrix(a_s, rng.standard_normal((n, n))))
        a_s[:, -1] = a_s[:, :-1] @ rng.standard_normal(n - 1)
        out.append(DualMatrix(a_s, rng.standard_normal((n, n))))
    return out


def _sigma_inputs():
    # the last input's top three singular values form one block
    rng = np.random.default_rng(5)
    out = [random_dual_matrix(rng, 6, 4, min_gap=0.05) for _ in range(25)]
    return out + [matrix_with_sigmas(rng, 6, 6, [2.0, 2.0, 2.0, 0.5])]


# A DTPM standard part with zeros; each direction keeps its columns summing
# to 0.
EI_ZERO_SUPPORT = np.array([[0.5, 0.2, 0.3], [0.5, 0.8, 0.3], [0.0, 0.0, 0.4]])
# P_i is 0 where P_s is: zero support without drift
EI_NO_DRIFT = np.array([[0.1, -0.05, 0.1], [-0.1, 0.05, -0.1], [0.0, 0.0, 0.0]])


def _dtpms():
    rng = np.random.default_rng(5)
    out = [random_dtpm(rng, int(rng.integers(2, 9))) for _ in range(250)]
    return out + [validate_dtpm(DualMatrix(EI_ZERO_SUPPORT, EI_NO_DRIFT))]


# The matrix norms, each with its real counterpart.
MATRIX_NORMS = {
    "kyfan_pk": (lambda a: ky_fan_pk_norm(a, 3, 1.6), lambda m: real_kyfan_pk(m, 3, 1.6)),
    "kyfan_k": (lambda a: ky_fan_norm(a, 3), lambda m: real_kyfan_pk(m, 3, 1.0)),
    "spectral": (spectral_norm, lambda m: float(np.linalg.norm(m, 2))),
    "schatten": (lambda a: schatten_norm(a, 1.4), lambda m: real_kyfan_pk(m, min(m.shape), 1.4)),
    "nuclear": (nuclear_norm, lambda m: float(np.linalg.norm(m, "nuc"))),
    "frobenius": (frobenius_norm, lambda m: float(np.linalg.norm(m))),
    "operator_one": (operator_one_norm, lambda m: float(np.linalg.norm(m, 1))),
    "operator_inf": (operator_inf_norm, lambda m: float(np.linalg.norm(m, np.inf))),
}

FD_TABLE = [
    FdRow(
        "abs",
        dual_abs,
        abs,
        lambda: _scalars(lambda rng, trial: 0.0 if trial % 10 == 0 else rng.normal()),
    ),
    *(
        FdRow(f"pow_{q}", lambda x, q=q: dual_pow(x, q), lambda z, q=q: z**q, _positive_scalars)
        for q in (1.5, 2.0, 3.5)
    ),
    *(
        FdRow(
            f"root_{r}",
            lambda x, r=r: dual_root(x, r),
            lambda z, r=r: z ** (1.0 / r),
            _positive_scalars,
        )
        for r in (2, 3, 5)
    ),
    FdRow(
        "log2", dual_log2, np.log2, lambda: _scalars(lambda rng, trial: rng.uniform(0.1, 10.0))
    ),
    *(
        FdRow(
            f"vector_p{p}",
            lambda x, p=p: dual_vector_norm(x, p),
            lambda z, p=p: float(np.linalg.norm(z, p)),
            lambda p=p: _vectors(p),
        )
        for p in (1.0, 1.3, 1.7, 2.0, 3.5, math.inf)
    ),
    *(
        FdRow(name, dual, real, _spectral_inputs if name == "spectral" else _matrices)
        for name, (dual, real) in MATRIX_NORMS.items()
    ),
    *(
        FdRow(
            f"kyfan_block_k{k}_p{p}",
            lambda a, k=k, p=p: ky_fan_pk_norm(a, k, p),
            lambda m, k=k, p=p: real_kyfan_pk(m, k, p),
            _triple_block,
        )
        for k, p in ((1, 1.3), (2, 1.3), (3, 1.6), (4, 1.9), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0))
    ),
    FdRow("trace", dual_trace, lambda m: float(np.trace(m)), _square_matrices),
    FdRow("det", dual_det, lambda m: float(np.linalg.det(m)), _square_matrices),
    *(
        FdRow(
            f"sigma_{j + 1}",
            lambda a, j=j: cdsvd(a).S[j],
            lambda m, j=j: float(np.linalg.svd(m, compute_uv=False)[j]),
            _sigma_inputs,
        )
        for j in range(4)
    ),
    FdRow("effective_information", dual_effective_information, effective_information, _dtpms),
]
