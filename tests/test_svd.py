"""Compact dual SVD: reconstruction, factor structure, dual singular values."""

import numpy as np
import pytest

from dualce import (
    DualMatrix,
    cdsvd,
    decompose,
    group_singular_values,
    sym,
)
from dualce.svd import _coupling_generators, _signfix_columns
from tests.conftest import (
    assert_bits_equal,
    matrix_with_sigmas,
    random_dual_matrix,
)


def reconstruction_error(a, res):
    """Max of both parts of A - U diag(S) V^T in dual arithmetic."""
    s_part = res.U.s @ np.diag(res.S.s) @ res.V.s.T
    i_part = (
        res.U.i @ np.diag(res.S.s) @ res.V.s.T
        + res.U.s @ np.diag(res.S.i) @ res.V.s.T
        + res.U.s @ np.diag(res.S.s) @ res.V.i.T
    )
    return max(
        float(np.max(np.abs(a.s - s_part))), float(np.max(np.abs(a.i - i_part)))
    )


def dual_orthonormal_columns(f, tol=1e-9):
    gram_s = f.s.T @ f.s
    return (
        np.allclose(gram_s, np.eye(gram_s.shape[0]), atol=tol)
        and np.max(np.abs(sym(f.s.T @ f.i))) <= tol
    )


class TestReconstruction:
    @pytest.mark.parametrize("shape", [(5, 5), (8, 6), (6, 8), (7, 3), (2, 2)])
    def test_random_full_rank(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(20):
            a = random_dual_matrix(rng, *shape, min_gap=1e-6)
            res = cdsvd(a)
            assert res.residual <= 1e-8
            assert reconstruction_error(a, res) <= 1e-8
            assert dual_orthonormal_columns(res.U)
            assert dual_orthonormal_columns(res.V)
            assert np.all(np.diff(res.S.s) <= 1e-12)  # descending

    def test_repeated_singular_values(self):
        # full column rank, so both parts must reconstruct exactly
        rng = np.random.default_rng(3)
        for mults in ([2.0, 2.0, 1.0], [3.0, 3.0, 3.0, 1.0], [5.0, 2.0, 2.0]):
            for trial in range(10):
                a = matrix_with_sigmas(rng, 7, len(mults), mults)
                res = cdsvd(a)
                assert res.residual <= 1e-8, f"sigmas {mults} trial {trial}"
                assert reconstruction_error(a, res) <= 1e-8

    def test_rank_deficient(self):
        rng = np.random.default_rng(4)
        a = matrix_with_sigmas(rng, 6, 5, [3.0, 1.0, 0.5])  # rank 3 of 5
        res = cdsvd(a)
        assert len(res.S) == 3
        # the compact factors cannot reproduce A_i outside their spans, so
        # only the standard part reconstructs; the residual reports the rest
        assert np.allclose(res.U.s @ np.diag(res.S.s) @ res.V.s.T, a.s, atol=1e-10)

    @pytest.mark.parametrize(
        "shape",
        [(3, 4), (0, 3), (3, 0), (0, 0), (2, 5), (5, 2)],
        ids=lambda shape: "%dx%d" % shape,
    )
    def test_zero_standard_part(self, shape):
        # rank 0: factors with no columns, and all of A_i left as residual
        m, n = shape
        rng = np.random.default_rng(m * 7 + n)
        a = DualMatrix(np.zeros(shape), rng.standard_normal(shape))
        res = cdsvd(a)
        assert len(res.S) == 0
        assert res.U.shape == (m, 0) and res.V.shape == (n, 0)
        assert res.residual == np.linalg.norm(a.i)

    def test_diagonal_is_exact(self):
        a = DualMatrix(np.diag([3.0, 1.0]), np.zeros((2, 2)))
        res = cdsvd(a)
        assert np.allclose(res.S.s, [3.0, 1.0])
        assert np.allclose(res.S.i, 0.0)
        assert np.allclose(np.abs(res.U.s), np.eye(2))


class TestDualSigmas:
    def test_repeated_block_sorted_descending(self):
        # each sigma_j(t) follows the j-th sorted eigenvalue: the sigma_j rows
        # of conftest.FD_TABLE check it by finite differences
        rng = np.random.default_rng(6)
        a = matrix_with_sigmas(rng, 6, 6, [2.0, 2.0, 2.0, 0.5])
        res = cdsvd(a)
        blk = decompose(a).blocks[0]
        assert blk == (0, 3)
        lam = res.S.i[blk[0] : blk[1]]
        assert np.all(np.diff(lam) <= 1e-12)  # eigenvalues sorted descending

    def test_block_eigen_structure(self):
        rng = np.random.default_rng(7)
        a = matrix_with_sigmas(rng, 5, 5, [1.5, 1.5, 0.3])
        res = cdsvd(a)
        u_b = res.U.s[:, :2]
        v_b = res.V.s[:, :2]
        m = sym(u_b.T @ a.i @ v_b)
        lam = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(np.sort(res.S.i[:2]), np.sort(lam), atol=1e-9)

    def test_dual_singular_values_slice(self):
        rng = np.random.default_rng(8)
        a = random_dual_matrix(rng, 5, 5, min_gap=1e-6)
        top2 = decompose(a).sigma[:2]
        full = cdsvd(a)
        assert np.allclose(top2.s, full.S.s[:2])
        assert np.allclose(top2.i, full.S.i[:2])


class TestGrouping:
    def test_engineered_spectrum(self):
        g = group_singular_values(np.array([4.0, 4.0, 2.0, 2.0, 2.0, 1.0]), 1e-8)
        assert g == ((0, 2), (2, 5), (5, 6))
        assert all(type(i) is int for block in g for i in block)

    def test_tolerance_is_relative(self):
        s = np.array([1.0, 1.0 - 5e-9, 0.5])
        assert group_singular_values(s, 1e-8) == ((0, 2), (2, 3))
        assert group_singular_values(s, 1e-10) == ((0, 1), (1, 2), (2, 3))

    def test_empty(self):
        assert group_singular_values(np.array([]), 1e-8) == ()

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True, "1e-8", None])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN threshold would merge every singular value into one block
        with pytest.raises(ValueError, match="group_tol"):
            group_singular_values(np.array([3.0, 2.0, 1.0]), tol)
        with pytest.raises(ValueError, match="group_tol"):
            group_singular_values(np.array([]), tol)


def test_decomposition_is_returned_as_built():
    # A Decomposition is not decomposed again, whatever group_tol is passed.
    rng = np.random.default_rng(11)
    d = decompose(matrix_with_sigmas(rng, 5, 5, [3.0, 2.0, 2.0, 1.0, 0.5]))
    assert decompose(d) is d
    assert decompose(d, group_tol=0.5) is d


def test_determinism():
    rng = np.random.default_rng(9)
    a = random_dual_matrix(rng, 6, 5)
    r1, r2 = cdsvd(a), cdsvd(a)
    assert np.array_equal(r1.U.s, r2.U.s)
    assert np.array_equal(r1.U.i, r2.U.i)
    assert np.array_equal(r1.S.i, r2.S.i)


def test_transpose_swaps_factors():
    # cdsvd(A^T) holds cdsvd(A)'s factors swapped, up to one sign per
    # singular pair: some diagonal D = +-1 with U_t = V D and V_t = U D.
    rng = np.random.default_rng(10)
    a = random_dual_matrix(rng, 4, 7, min_gap=1e-6)
    res_t = cdsvd(a.T)
    res = cdsvd(a)
    assert np.allclose(res_t.S.s, res.S.s)
    assert np.allclose(res_t.S.i, res.S.i)
    d = np.sign(np.sum(res_t.U.s * res.V.s, axis=0))
    assert np.all(np.abs(d) == 1.0)
    for got, expect in ((res_t.U, res.V), (res_t.V, res.U)):
        assert np.allclose(got.s, expect.s * d)
        assert np.allclose(got.i, expect.i * d)


@pytest.mark.parametrize(
    "shape", [(6, 3), (5, 5), (4, 7)], ids=["tall", "square", "wide"]
)
def test_sign_convention_every_shape(shape):
    # The largest-magnitude entry of each left singular vector is positive,
    # whatever the orientation of the matrix.
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = cdsvd(random_dual_matrix(rng, *shape)).U.s
        assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] > 0)


def signfix_by_columns(u, v):
    """Reference: the sign fix one column at a time."""
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        idx = int(np.argmax(np.abs(u[:, j])))
        if u[idx, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


class TestSignfix:
    def test_random_shapes_match_column_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m, n, r = rng.integers(1, 9, size=3)
            u = rng.standard_normal((m, r))
            v = rng.standard_normal((n, r))
            for got, expect in zip(_signfix_columns(u, v), signfix_by_columns(u, v)):
                assert_bits_equal(got, expect)

    def test_ties_and_negative_zero(self):
        # columns: |max| tied, negative first (flips); tied, positive first
        # (stays); -0.0 beside a positive maximum (stays -0.0); -0.0 beside
        # a negative maximum (flips to 0.0); all zeros, the first -0.0
        u = np.array(
            [[0.1, 0.2, -0.0, -0.0, -0.0],
             [-0.5, 0.5, 0.3, -0.3, 0.0],
             [0.5, -0.5, -0.1, 0.1, -0.0]]
        )
        v = np.arange(10.0).reshape(2, 5) - 4.0
        got_u, got_v = _signfix_columns(u, v)
        expect_u, expect_v = signfix_by_columns(u, v)
        assert_bits_equal(got_u, expect_u)
        assert_bits_equal(got_v, expect_v)
        assert np.array_equal(np.signbit(got_u[1]), [False, False, False, False, False])
        assert np.array_equal(np.signbit(got_u[0]), [True, False, True, False, True])


def coupling_generators_by_blocks(b, s, blocks):
    """Reference: the coupling generators filled one block pair at a time."""
    r = len(s)
    omega_u = np.zeros((r, r))
    omega_v = np.zeros((r, r))
    for gi, (ga, gb) in enumerate(blocks):
        for gj, (ha, hb) in enumerate(blocks):
            if gi == gj:
                blk = b[ga:gb, ha:hb]
                half_skew = 0.5 * (blk - blk.T) / (2.0 * float(np.mean(s[ga:gb])))
                omega_u[ga:gb, ha:hb] = half_skew
                omega_v[ga:gb, ha:hb] = -half_skew
            else:
                sj = s[ga:gb][:, None]
                sk = s[ha:hb][None, :]
                bjk = b[ga:gb, ha:hb]
                bkj = b[ha:hb, ga:gb].T
                denom = sk**2 - sj**2
                omega_u[ga:gb, ha:hb] = (sk * bjk + sj * bkj) / denom
                omega_v[ga:gb, ha:hb] = (sj * bjk + sk * bkj) / denom
    return omega_u, omega_v


@pytest.mark.parametrize(
    "sigmas",
    [[4.0, 3.0, 2.0, 1.0], [3.0, 3.0, 2.0, 2.0, 2.0, 0.5], [2.0, 2.0, 2.0, 2.0]],
)
def test_coupling_generators_match_block_loop(sigmas):
    rng = np.random.default_rng(11)
    s = np.array(sigmas)
    blocks = group_singular_values(s, 1e-8)
    b = rng.standard_normal((len(s), len(s)))
    got = _coupling_generators(b, s, blocks)
    expect = coupling_generators_by_blocks(b, s, blocks)
    assert np.array_equal(got[0], expect[0])
    assert np.array_equal(got[1], expect[1])
