"""Dual matrix norms, trace, determinant: closed forms, identities, axioms."""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from dualce import (
    DualMatrix,
    DualScalar,
    DualVector,
    RankDeficiencyWarning,
    cdsvd,
    coarse_grain,
    compare,
    decompose,
    delta_gamma,
    dual_abs,
    dual_det,
    dual_trace,
    dual_vector_norm,
    fd_directional,
    frobenius_norm,
    ky_fan_norm,
    ky_fan_pk_norm,
    norm_sweep,
    nuclear_norm,
    operator_inf_norm,
    operator_one_norm,
    schatten_norm,
    spectral_norm,
)
from tests.conftest import (
    assert_dual_close,
    dm_random_orthogonal,
    fd_check,
    matrix_with_sigmas,
    random_dtpm,
    random_dual_matrix,
    real_kyfan_pk,
    reference_ky_fan,
)


NORM_FUNCS = {
    "kyfan_pk": (
        lambda a: ky_fan_pk_norm(a, 3, 1.6),
        lambda m: real_kyfan_pk(m, 3, 1.6),
    ),
    "kyfan_k": (
        lambda a: ky_fan_norm(a, 3),
        lambda m: float(np.sum(np.linalg.svd(m, compute_uv=False)[:3])),
    ),
    "spectral": (
        spectral_norm,
        lambda m: float(np.linalg.norm(m, 2)),
    ),
    "schatten": (
        lambda a: schatten_norm(a, 1.4),
        lambda m: float(np.sum(np.linalg.svd(m, compute_uv=False) ** 1.4) ** (1 / 1.4)),
    ),
    "nuclear": (
        nuclear_norm,
        lambda m: float(np.sum(np.linalg.svd(m, compute_uv=False))),
    ),
    "frobenius": (
        frobenius_norm,
        lambda m: float(np.linalg.norm(m)),
    ),
    "operator_one": (
        operator_one_norm,
        lambda m: float(np.max(np.sum(np.abs(m), axis=0))),
    ),
    "operator_inf": (
        operator_inf_norm,
        lambda m: float(np.max(np.sum(np.abs(m), axis=1))),
    ),
}


@pytest.mark.parametrize("name", sorted(NORM_FUNCS))
def test_closed_forms_match_fd(name):
    dual_fn, real_fn = NORM_FUNCS[name]
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = random_dual_matrix(rng, 6, 4, min_gap=0.05)
        fd_check(dual_fn(a), fd_directional(real_fn, a.s, a.i))


@pytest.mark.parametrize("k,p", [(1, 1.3), (2, 1.3), (3, 1.6), (4, 1.9)])
def test_kyfan_pk_repeated_sigmas_match_fd(k, p):
    # multiplicity-3 block straddling every tested k
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = matrix_with_sigmas(rng, 7, 4, [2.0, 2.0, 2.0, 0.7])
        fd_check(
            ky_fan_pk_norm(a, k, p),
            fd_directional(lambda m: real_kyfan_pk(m, k, p), a.s, a.i),
        )
        fd_check(
            ky_fan_norm(a, k),
            fd_directional(
                lambda m: float(np.sum(np.linalg.svd(m, compute_uv=False)[:k])),
                a.s,
                a.i,
            ),
        )


class TestSpecializations:
    """The parametrized family collapses to the named norms at the edges."""

    def test_k_equals_rank_gives_schatten(self):
        rng = np.random.default_rng(29)
        for p in (1.2, 1.5, 1.9):
            a = random_dual_matrix(rng, 5, 4, min_gap=1e-6)
            full = ky_fan_pk_norm(a, 4, p)
            schat = schatten_norm(a, p)
            assert_dual_close(full, schat.s, schat.i, 1e-9, 1e-9)

    def test_k_one_p_one_gives_spectral(self):
        rng = np.random.default_rng(31)
        a = random_dual_matrix(rng, 5, 5, min_gap=1e-6)
        top = spectral_norm(a)
        kf = ky_fan_norm(a, 1)
        assert_dual_close(kf, top.s, top.i, 1e-10, 1e-10)

    def test_k_n_p_one_gives_nuclear(self):
        rng = np.random.default_rng(37)
        a = random_dual_matrix(rng, 4, 4, min_gap=1e-6)
        nuc = nuclear_norm(a)
        kf = ky_fan_norm(a, 4)
        assert_dual_close(kf, nuc.s, nuc.i, 1e-10, 1e-10)

    def test_schatten_two_gives_frobenius(self):
        rng = np.random.default_rng(41)
        a = random_dual_matrix(rng, 6, 3)
        fro = frobenius_norm(a)
        s2 = schatten_norm(a, 2.0)
        assert_dual_close(s2, fro.s, fro.i, 1e-9, 1e-9)
        assert fro.s == pytest.approx(np.linalg.norm(a.s))
        # <A_s, A_i> / ||A_s||_F
        assert fro.i == pytest.approx(
            float(np.sum(a.s * a.i)) / np.linalg.norm(a.s)
        )


# ky_fan_pk_norm is computed as the dual vector norm of the dual singular
# values, so the equivalence tests compare both sides with reference_ky_fan.


def test_kyfan_equals_vector_norm_of_dual_sigmas():
    rng = np.random.default_rng(43)
    for trial in range(20):
        a = random_dual_matrix(rng, 6, 5, min_gap=0.02)
        for k in (1, 2, 4):
            for p in (1.3, 1.8):
                ref = reference_ky_fan(a, k, p)
                rhs = dual_vector_norm(decompose(a).sigma[:k], p)
                assert_dual_close(rhs, ref.s, ref.i, 1e-8, 1e-8)
                assert_dual_close(ky_fan_pk_norm(a, k, p), ref.s, ref.i, 1e-8, 1e-8)


def test_kyfan_equivalence_on_repeated_sigmas():
    rng = np.random.default_rng(47)
    a = matrix_with_sigmas(rng, 6, 4, [3.0, 3.0, 1.0, 0.4])
    for k in (1, 2, 3):
        ref = reference_ky_fan(a, k, 1.6)
        rhs = dual_vector_norm(decompose(a).sigma[:k], 1.6)
        assert_dual_close(rhs, ref.s, ref.i, 1e-8, 1e-8)
        assert_dual_close(ky_fan_pk_norm(a, k, 1.6), ref.s, ref.i, 1e-8, 1e-8)


@pytest.mark.parametrize("sigmas", [[2.0, 1.0], [1.5, 1.5, 0.4]])
def test_kyfan_past_the_rank_matches_reference(sigmas):
    # sigma_k = 0 for k past the rank: the p = 1 corner term and the p > 1
    # vanishing block term
    rng = np.random.default_rng(53)
    a = matrix_with_sigmas(rng, 6, 5, sigmas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # p = 1 never warns, even past the rank
        ones = [ky_fan_norm(a, k) for k in range(1, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        for k, one in enumerate(ones, start=1):
            for p, norm in ((1.0, one), (1.6, ky_fan_pk_norm(a, k, 1.6))):
                ref = reference_ky_fan(a, k, p)
                assert_dual_close(norm, ref.s, ref.i, 1e-8, 1e-8)


def test_tiny_singular_value_is_counted_once():
    # sigma = [1, 0.5, 1e-10, 0, 0]: sigma_3 lies above RANK_TOL but within
    # GROUP_TOL * sigma_1 of the zeros, so it is in the rank and no block
    # may also count it as a zero
    rng = np.random.default_rng(97)
    a = matrix_with_sigmas(rng, 5, 5, [1.0, 0.5, 1e-10])
    assert decompose(a).rank == 3
    kf, nuc, s1 = ky_fan_norm(a, 5), nuclear_norm(a), schatten_norm(a, 1)
    for other in (nuc, s1):
        assert_dual_close(other, kf.s, kf.i, 1e-12, 1e-12)
    lhs = ky_fan_norm(a, 3)
    rhs = dual_vector_norm(decompose(a).sigma[:3], 1)
    assert_dual_close(lhs, rhs.s, rhs.i, 1e-12, 1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_dual_matrix(rng, 6, 4),
        lambda rng: random_dual_matrix(rng, 4, 6),
        lambda rng: matrix_with_sigmas(rng, 6, 5, [2.0, 2.0, 2.0, 0.5]),
        lambda rng: matrix_with_sigmas(rng, 5, 5, [1.5, 0.4]),
        lambda rng: DualMatrix(np.zeros((4, 3)), rng.standard_normal((4, 3))),
        lambda rng: random_dtpm(rng, 6),
    ],
    ids=["tall", "wide", "repeated", "rank_deficient", "zero_standard", "dtpm"],
)
def test_decomposition_input_matches_matrix_input(make):
    rng = np.random.default_rng(83)
    a = make(rng)
    d = decompose(a)
    assert d.shape == a.shape
    pairs = [(spectral_norm(a), spectral_norm(d)), (nuclear_norm(a), nuclear_norm(d))]
    pairs += [(schatten_norm(a, 1.4), schatten_norm(d, 1.4))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        for k in range(1, min(a.shape) + 1):
            pairs.append((ky_fan_norm(a, k), ky_fan_norm(d, k)))
            pairs.append((ky_fan_pk_norm(a, k, 1.6), ky_fan_pk_norm(d, k, 1.6)))
    for direct, shared in pairs:
        assert (shared.s, shared.i) == (direct.s, direct.i)
    with pytest.raises(ValueError):
        ky_fan_norm(d, min(a.shape) + 1)

    direct, shared = cdsvd(a), cdsvd(d)
    for x, y in ((direct.U, shared.U), (direct.S, shared.S), (direct.V, shared.V)):
        assert x.s.tobytes() == y.s.tobytes() and x.i.tobytes() == y.i.tobytes()
    assert shared.residual == direct.residual
    for k in range(1, d.rank + 1):
        direct, shared = decompose(a).sigma[:k], d.sigma[:k]
        assert (shared.s.tobytes(), shared.i.tobytes()) == (
            direct.s.tobytes(), direct.i.tobytes()
        )
    if a.shape[0] != a.shape[1]:
        # the vague-emergence degree, the sweep and coarse-graining are
        # defined for an n x n matrix only
        shape = re.escape(f"shape {a.shape}")
        for real, p in ((a.s, a), (d, d)):
            for call in (
                lambda: delta_gamma(real, 1, 1.3),
                lambda: norm_sweep(p, (1.0, 1.5)),
                lambda: coarse_grain(p, 1),
            ):
                with pytest.raises(ValueError, match=shape):
                    call()
        return
    for k in range(1, min(a.shape) + 1):
        assert delta_gamma(d, k, 1.3) == pytest.approx(
            delta_gamma(a.s, k, 1.3), rel=1e-12, abs=1e-14
        )
    shared, direct = norm_sweep(d, (1.0, 1.5)), norm_sweep(a, (1.0, 1.5))
    assert shared.p_list == direct.p_list
    for part in ("standard", "infinitesimal", "delta_gamma"):
        assert getattr(shared, part).tobytes() == getattr(direct, part).tobytes()
    if np.all(a.s > 0):  # a transition matrix: coarse-grain it
        for k in range(1, 4):
            direct, shared = coarse_grain(a, k), coarse_grain(d, k)
            assert shared.labels.tolist() == direct.labels.tolist()
            assert shared.upsilon.tobytes() == direct.upsilon.tobytes()


class TestUnitaryInvariance:
    KINDS = [
        lambda a: ky_fan_pk_norm(a, 2, 1.6),
        lambda a: ky_fan_norm(a, 2),
        spectral_norm,
        lambda a: schatten_norm(a, 1.4),
        nuclear_norm,
        frobenius_norm,
    ]

    def test_two_sided_rotation_preserves_both_parts(self):
        rng = np.random.default_rng(53)
        for trial in range(25):
            x = random_dual_matrix(rng, 5, 4, min_gap=1e-6)
            p = dm_random_orthogonal(5, 100 + trial)
            q = dm_random_orthogonal(4, 200 + trial)
            rotated = p @ x @ q
            for fn in self.KINDS:
                before, after = fn(x), fn(rotated)
                assert_dual_close(after, before.s, before.i, 1e-8, 1e-8)


class TestAxioms:
    KINDS = [
        lambda a: ky_fan_pk_norm(a, 2, 1.6),
        lambda a: ky_fan_norm(a, 2),
        spectral_norm,
        lambda a: schatten_norm(a, 1.4),
        nuclear_norm,
        frobenius_norm,
        operator_one_norm,
        operator_inf_norm,
    ]

    def test_nonnegative_homogeneous_triangle(self):
        rng = np.random.default_rng(59)
        zero = DualScalar(0.0, 0.0)
        for _ in range(60):
            a = random_dual_matrix(rng, 5, 4)
            b = random_dual_matrix(rng, 5, 4)
            c = DualScalar(rng.standard_normal(), rng.standard_normal())
            for fn in self.KINDS:
                na, nb = fn(a), fn(b)
                assert compare(na, zero) >= 0
                scaled = fn(c * a)
                expect = dual_abs(c) * na
                assert_dual_close(scaled, expect.s, expect.i, 1e-8, 1e-7)
                tri_l, tri_r = fn(a + b), na + nb
                slack = 1e-9 * max(1.0, tri_r.s)
                assert tri_l.s <= tri_r.s + slack
                if abs(tri_l.s - tri_r.s) <= slack:
                    assert tri_l.i <= tri_r.i + 1e-7


class TestTraceDet:
    def test_trace_linear_and_fd(self):
        rng = np.random.default_rng(61)
        a = random_dual_matrix(rng, 5, 5)
        t = dual_trace(a)
        assert t.s == pytest.approx(np.trace(a.s))
        assert t.i == pytest.approx(np.trace(a.i))
        with pytest.raises(ValueError):
            dual_trace(random_dual_matrix(rng, 3, 4))

    def test_det_closed_form(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            a = random_dual_matrix(rng, 4, 4)
            d = dual_det(a)
            assert d.s == pytest.approx(np.linalg.det(a.s), rel=1e-9)
            fd_check(
                d, fd_directional(lambda m: float(np.linalg.det(m)), a.s, a.i)
            )

    def test_det_of_near_identity(self):
        k = np.array([[0.0, 1.0], [-2.0, 3.0]])
        d = dual_det(DualMatrix(np.eye(2), k))
        assert_dual_close(d, 1.0, np.trace(k), 1e-12, 1e-12)

    def test_det_singular_standard_part(self):
        # adjugate form stays finite where 1/det would not
        a = DualMatrix(np.diag([1.0, 0.0]), np.eye(2))
        d = dual_det(a)
        assert d.s == 0.0
        assert d.i == pytest.approx(1.0)  # d/dt det(diag(1+t, t)) at 0

    def test_det_singular_takes_one_svd(self, monkeypatch):
        # adj(A_s) comes from one SVD: the cofactor expansion it replaced
        # made n^2 + 1 = 145 det calls here.
        rng = np.random.default_rng(71)
        n = 12
        a_s = rng.standard_normal((n, n))
        a_s[:, -1] = a_s[:, :-1] @ rng.standard_normal(n - 1)  # rank n - 1
        a = DualMatrix(a_s, rng.standard_normal((n, n)))
        det = np.linalg.det
        calls = []
        monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m) or det(m))
        d = dual_det(a)
        monkeypatch.undo()
        assert len(calls) <= 3
        fd_check(d, fd_directional(lambda m: float(np.linalg.det(m)), a.s, a.i))


def operator_norm_ratio_check(a, alpha, beta, trials=100, seed=0):
    """Check ||A x||_alpha <= ||A||_(alpha,beta) ||x||_beta on random duals.

    Only the implemented operator norms are accepted: (alpha, beta) = (1, 1)
    for the operator 1-norm and (inf, inf) for the operator infinity-norm.
    Returns the number of violating samples, and whether the attaining
    vector (standard-part maximizer, x_i = 0) achieves equality in both
    parts.
    """
    alpha, beta = float(alpha), float(beta)
    if (alpha, beta) == (1.0, 1.0):
        norm = operator_one_norm(a)
        work = a
    elif (alpha, beta) == (math.inf, math.inf):
        norm = operator_inf_norm(a)
        work = a.T  # rows of a are columns of a.T
    else:
        raise ValueError("only (1, 1) and (inf, inf) operator norms are implemented")

    rng = np.random.default_rng(seed)
    n = a.shape[1]
    violations = 0
    for _ in range(trials):
        x = DualVector(rng.standard_normal(n), rng.standard_normal(n))
        lhs = dual_vector_norm(a @ x, alpha)
        rhs = norm * dual_vector_norm(x, beta)
        # Tolerate roundoff at the scale of the bound itself.
        slack = 1e-10 * max(1.0, abs(rhs.s), abs(rhs.i))
        if lhs.s > rhs.s + slack or (
            abs(lhs.s - rhs.s) <= slack and lhs.i > rhs.i + slack
        ):
            violations += 1

    # Attaining vector.  For the column norm it is the basis vector of the
    # lexicographically maximal column; for the row norm, the sign pattern
    # of the maximal row (zeros filled from A_i so the infinitesimal part is
    # picked up too).
    cols = [
        dual_vector_norm(DualVector(work.s[:, j], work.i[:, j]), 1.0)
        for j in range(work.shape[1])
    ]
    j_star = max(range(len(cols)), key=lambda j: (cols[j].s, cols[j].i))
    if alpha == 1.0:
        x_s = np.zeros(n)
        x_s[j_star] = 1.0
    else:
        row_s = a.s[j_star, :]
        row_i = a.i[j_star, :]
        x_s = np.sign(row_s)
        fill = x_s == 0.0
        x_s[fill] = np.where(np.sign(row_i[fill]) == 0.0, 1.0, np.sign(row_i[fill]))
    witness = DualVector(x_s, np.zeros(n))
    attained = dual_vector_norm(a @ witness, alpha)
    bound = norm * dual_vector_norm(witness, beta)
    tol = 1e-10 * max(1.0, abs(bound.s), abs(bound.i))
    witness_attains = (
        abs(attained.s - bound.s) <= tol and abs(attained.i - bound.i) <= tol
    )
    return violations, witness_attains


class TestOperatorChecks:
    def test_ratio_check_no_violations(self):
        rng = np.random.default_rng(71)
        for alpha in (1.0, math.inf):
            a = random_dual_matrix(rng, 5, 5)
            violations, witness_attains = operator_norm_ratio_check(
                a, alpha, alpha, trials=100, seed=3
            )
            assert violations == 0
            assert witness_attains

    def test_rejects_unimplemented_pairs(self):
        rng = np.random.default_rng(73)
        a = random_dual_matrix(rng, 3, 3)
        with pytest.raises(ValueError):
            operator_norm_ratio_check(a, 2.0, 2.0)


def test_rank_deficiency_warning():
    rng = np.random.default_rng(79)
    a = matrix_with_sigmas(rng, 6, 5, [2.0, 1.0])  # rank 2, k past the rank
    with pytest.warns(RankDeficiencyWarning):
        ky_fan_pk_norm(a, 4, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ky_fan_pk_norm(a, 2, 1.5)  # inside the rank: no warning


def test_zero_standard_part_norms():
    a = DualMatrix(np.zeros((3, 3)), np.diag([3.0, 2.0, 1.0]))
    assert_dual_close(spectral_norm(a), 0.0, 3.0, 1e-12, 1e-12)
    assert_dual_close(nuclear_norm(a), 0.0, 6.0, 1e-12, 1e-12)
    assert_dual_close(ky_fan_pk_norm(a, 2, 1.5), 0.0, real_kyfan_pk(a.i, 2, 1.5),
                      1e-12, 1e-12)


def test_eigen_solves_only_on_repeated_blocks(monkeypatch):
    rng = np.random.default_rng(89)
    distinct = random_dual_matrix(rng, 6, 6, min_gap=0.05)
    # sigma_2 = sigma_3 = sigma_4 form the one repeated block
    repeated = matrix_with_sigmas(rng, 6, 6, [3.0, 2.0, 2.0, 2.0, 0.7, 0.3])
    calls = Counter()
    for name in ("svd", "eigh", "eigvalsh"):

        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    norm_sweep(distinct, (1.0, 1.3, 1.9))
    assert calls == {"svd": 1}
    calls.clear()
    norm_sweep(repeated, (1.0, 1.3, 1.9))
    assert calls == {"svd": 1, "eigh": 1}
    # with every block 1x1 the basis is the SVD's own, and the infinitesimal
    # dual singular values are the diagonal of U^T A_i V
    d = decompose(distinct)
    assert d.rank == 6
    b = d.u.T @ distinct.i @ d.v
    assert d.sigma.i.tobytes() == np.diagonal(b).tobytes()
