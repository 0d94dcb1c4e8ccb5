"""Dual matrix norms, trace, determinant: closed forms and identities (the
norm axioms and unitary invariance are checked in test_acceptance.py)."""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from dualce import (
    DualMatrix,
    DualVector,
    cdsvd,
    coarse_grain,
    decompose,
    delta_gamma,
    dual_det,
    dual_trace,
    dual_vector_norm,
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
    FD_TABLE,
    assert_dual_close,
    fd_bound,
    fd_check,
    fd_results,
    matrix_with_sigmas,
    one_sided_quotients,
    random_dtpm,
    random_dual_matrix,
    real_kyfan_pk,
    reference_ky_fan,
)


@pytest.mark.parametrize("row", FD_TABLE, ids=lambda row: row.id)
def test_closed_forms_match_fd(row):
    # Every row of the oracle table in conftest.py.
    visible = False
    for closed, est in fd_results(row):
        gap = fd_check(closed, est)
        # a 1e-6 relative error in the closed form must be able to fail the row
        visible |= gap + 1e-6 * abs(closed.i) > fd_bound(closed.i)
    assert visible, "no input would show a 1e-6 relative error"


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


@pytest.mark.parametrize("sigmas", [[2.0, 1.0], [1.5, 1.5, 0.4]])
def test_kyfan_past_the_rank_matches_reference(sigmas):
    # sigma_k = 0 for k past the rank: the p = 1 corner term and the p > 1
    # vanishing block term
    rng = np.random.default_rng(53)
    a = matrix_with_sigmas(rng, 6, 5, sigmas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no k or p warns, even past the rank
        for k in range(1, 6):
            for p, norm in ((1.0, ky_fan_norm(a, k)), (1.6, ky_fan_pk_norm(a, k, 1.6))):
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
        warnings.simplefilter("error")
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
        with pytest.raises(ValueError, match=shape):
            delta_gamma(a.s, 1, 1.3)
        for p in (a, d):
            for call in (
                lambda: norm_sweep(p, (1.0, 1.5)),
                lambda: coarse_grain(p, 1),
            ):
                with pytest.raises(ValueError, match=shape):
                    call()
        return
    shared, direct = norm_sweep(d, (1.0, 1.5)), norm_sweep(a, (1.0, 1.5))
    assert shared.p_list == direct.p_list
    for part in ("standard", "infinitesimal", "delta_gamma"):
        assert getattr(shared, part).tobytes() == getattr(direct, part).tobytes()
    if np.all(a.s > 0):  # a transition matrix: coarse-grain it
        for k in range(1, 4):
            direct, shared = coarse_grain(a, k), coarse_grain(d, k)
            assert shared.labels.tolist() == direct.labels.tolist()
            assert shared.upsilon.tobytes() == direct.upsilon.tobytes()


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

    def test_det_of_near_identity(self):
        k = np.array([[0.0, 1.0], [-2.0, 3.0]])
        d = dual_det(DualMatrix(np.eye(2), k))
        assert_dual_close(d, 1.0, np.trace(k), 1e-12, 1e-12)

    def test_det_of_empty_matrix(self):
        # the empty product: det = 1, and no entry to move it
        d = dual_det(DualMatrix(np.zeros((0, 0)), np.zeros((0, 0))))
        assert (d.s, d.i) == (1.0, 0.0)

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


@pytest.mark.parametrize("singular", [False, True], ids=["well-conditioned", "singular"])
def test_det_takes_one_svd_and_no_cond(singular, monkeypatch):
    # adj(A_s) comes from one SVD for every input; a condition-number
    # pre-pass would be a second SVD.
    rng = np.random.default_rng(73)
    n = 9
    a_s = rng.standard_normal((n, n)) + n * np.eye(n)
    if singular:
        a_s[:, -1] = a_s[:, :-1] @ rng.standard_normal(n - 1)
    a = DualMatrix(a_s, rng.standard_normal((n, n)))
    svd, calls = np.linalg.svd, {"svd": 0, "cond": 0}

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def no_cond(*args, **kwargs):
        calls["cond"] += 1
        raise AssertionError("dual_det took a condition number")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "cond", no_cond)
    d = dual_det(a)
    monkeypatch.undo()
    assert calls == {"svd": 1, "cond": 0}


def test_adjugate_matches_det_times_inverse():
    # Where A is well-conditioned, the one-SVD adjugate is det(A) inv(A).
    rng = np.random.default_rng(79)
    for n in (1, 2, 5, 30, 85):
        a_s = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        d = dual_det(DualMatrix(a_s, np.eye(n)))
        expected = np.linalg.det(a_s) * np.trace(np.linalg.inv(a_s))
        assert d.i == pytest.approx(expected, rel=1e-11)


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


@pytest.mark.parametrize("p", [1.5, 1.9])
def test_kyfan_past_the_rank_is_the_derivative(p):
    # Rank 2, k = 4: sigma_3 and sigma_4 of A_s + t A_i are O(t), so they add
    # O(t^p) to the real norm and the FD quotients approach the closed form
    # as t^(p-1).  Each decade of t must shrink the gap by 10^(p-1) to 0.1;
    # a value off by 1% of the past-rank sigma_i leaves a gap that stalls.
    # At p near 1 the rate is too slow to tell such an offset apart.
    a = matrix_with_sigmas(np.random.default_rng(79), 6, 5, [2.0, 1.0])
    assert decompose(a).rank == 2
    closed = ky_fan_pk_norm(a, 4, p).i
    ts = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    quotients = one_sided_quotients(lambda m: real_kyfan_pk(m, 4, p), a.s, a.i, ts)
    gaps = np.abs(quotients - closed)
    slopes = -np.diff(np.log10(gaps))
    assert np.all(np.abs(slopes - (p - 1.0)) <= 0.1), slopes


@pytest.mark.parametrize("p", [math.inf, 10**400], ids=["inf", "10**400"])
@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_dual_matrix(rng, 6, 4, min_gap=0.05),
        lambda rng: random_dual_matrix(rng, 4, 6, min_gap=0.05),
        lambda rng: matrix_with_sigmas(rng, 6, 5, [2.0, 2.0, 1.0]),
        lambda rng: DualMatrix(np.zeros((4, 3)), rng.standard_normal((4, 3))),
    ],
    ids=["tall", "wide", "repeated_top", "zero_standard"],
)
def test_p_inf_is_the_spectral_norm(make, p):
    # The dual inf-norm of the dual singular values, for every k; an int
    # past the float range reads as inf.
    rng = np.random.default_rng(61)
    a = make(rng)
    spectral = spectral_norm(a)
    norms = [schatten_norm(a, p)] + [ky_fan_pk_norm(a, k, p) for k in range(1, 4)]
    for norm in norms:
        assert (norm.s, norm.i) == (spectral.s, spectral.i)


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
