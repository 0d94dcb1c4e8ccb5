"""Dual scalars, vectors, matrices: algebra, order, and factory helpers."""

import math
import operator
import re
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualce
from dualce import (
    CONDITION_LIMIT,
    DualMatrix,
    DualScalar,
    DualVector,
    DumbbellConfig,
    FitOptions,
    coarse_grain,
    delta_gamma,
    dm_inverse,
    dm_is_orthogonal,
    dual_abs,
    dual_det,
    dual_effective_information,
    dual_log2,
    dual_pow,
    dual_root,
    dual_trace,
    is_dynamically_reversible,
    kmeans,
    ky_fan_pk_norm,
    norm_sweep,
    quantize,
    schatten_norm,
    skew,
    sym,
)
from dualce.core import check_real
from dualce.pipeline import random_initial_states
from tests.conftest import assert_dual_close, dm_random_orthogonal, random_dtpm

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestDualScalar:
    def test_parts(self):
        a = DualScalar(2.0, -3.0)
        assert a.s == 2.0 and a.i == -3.0
        assert DualScalar(1.5).i == 0.0

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -float("inf"), True, "1.5", None,
         pytest.param(10**400, id="10**400")],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            DualScalar(bad)
        with pytest.raises(ValueError):
            DualScalar(0.0, bad)

    def test_immutable(self):
        a = DualScalar(1.0, 2.0)
        with pytest.raises(AttributeError):
            a.s = 5.0

    @given(finite, finite, finite, finite)
    def test_product_drops_eps_squared(self, a_s, a_i, b_s, b_i):
        prod = DualScalar(a_s, a_i) * DualScalar(b_s, b_i)
        assert prod.s == a_s * b_s
        assert prod.i == a_s * b_i + a_i * b_s

    @given(finite, finite, finite, finite)
    def test_add_sub_roundtrip(self, a_s, a_i, b_s, b_i):
        a, b = DualScalar(a_s, a_i), DualScalar(b_s, b_i)
        back = (a + b) - b
        assert back.s == pytest.approx(a_s, abs=1e-6)
        assert back.i == pytest.approx(a_i, abs=1e-6)

    def test_coerces_plain_numbers(self):
        a = DualScalar(2.0, 1.0)
        assert (a + 3).s == 5.0
        assert (3 + a).i == 1.0
        assert (2 * a) == DualScalar(4.0, 2.0)
        assert (a - 1) == DualScalar(1.0, 1.0)
        assert (1 - a) == DualScalar(-1.0, -1.0)
        assert -a == DualScalar(-2.0, -1.0)
        assert +a is a

    def test_refuses_bool_operand(self):
        # DualScalar(True) is refused, so a bool is no operand either: True
        # added as 1.0 and DualScalar(1.0) == True held.
        a = DualScalar(1.0)
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((a, True), (True, a)):
                with pytest.raises(TypeError):
                    op(left, right)
        m = DualMatrix(np.eye(2))
        for left, right in ((m, True), (True, m)):
            with pytest.raises(TypeError):
                left * right
        assert not a == True and a != False
        assert a == 1 and a == np.int64(1) and a == np.float32(1.0)

    def test_order_is_lexicographic(self):
        assert DualScalar(1, 5) < DualScalar(1, 7)
        assert DualScalar(2, -100) > DualScalar(1, 100)
        assert DualScalar(1, 1) <= DualScalar(1, 1)
        assert DualScalar(1, 7) == DualScalar(1, 7)
        assert DualScalar(2, 0) > DualScalar(1, 9)

    def test_hash_consistent_with_eq(self):
        assert hash(DualScalar(1, 2)) == hash(DualScalar(1.0, 2.0))
        assert DualScalar(3.0, 0.0) == 3.0
        # a dual number equal to a plain number hashes as that number
        for plain in (1.0, 1, np.float64(1.0)):
            assert DualScalar(1.0) == plain and hash(DualScalar(1.0)) == hash(plain)
            assert DualScalar(1.0) in {plain}
        assert DualScalar(1.0, -0.0) == DualScalar(1.0) == 1.0
        assert hash(DualScalar(1.0, -0.0)) == hash(DualScalar(1.0)) == hash(1.0)
        assert DualScalar(1.0, 2.0) != 1.0

    def test_abs(self):
        assert dual_abs(DualScalar(-2, 5)) == DualScalar(2, -5)
        assert dual_abs(DualScalar(2, 5)) == DualScalar(2, 5)
        # |0 + b eps| = |b| eps: the one-sided limit of |tb|/t.
        assert dual_abs(DualScalar(0, -3)) == DualScalar(0, 3)

    def test_pow_and_root(self):
        a = DualScalar(1.7, -0.4)
        assert dual_pow(a, 1.0) == a
        sq = dual_pow(a, 2.0)
        assert_dual_close(sq, a.s**2, 2 * a.s * a.i, 1e-12, 1e-12)
        back = dual_root(dual_pow(a, 2.3), 2.3)
        assert_dual_close(back, a.s, a.i, 1e-10, 1e-10)

    def test_pow_at_zero(self):
        # a_s**p + p a_s**(p-1) a_i eps at a_s = 0: a_i eps at p = 1, as
        # 0**0 = 1, and 0 at p > 1, the one-sided derivatives of (t a_i)**p.
        # With a_i < 0 the 0 is -0.0, which equals and hashes as 0.0.
        for a_i in (2.5, 0.0, -2.5):
            a = DualScalar(0.0, a_i)
            assert dual_pow(a, 1.0) == a
            for p in (1.5, 2.0, 7.0):
                out = dual_pow(a, p)
                assert out == DualScalar(0.0, 0.0) and hash(out) == hash(0.0)

    def test_pow_and_root_reject_bad_p(self):
        a = DualScalar(1.7, -0.4)
        for fn in (dual_pow, dual_root):
            for bad in (0.5, -1.0, math.nan, True, "1.5", None):
                with pytest.raises(ValueError, match="^p must be"):
                    fn(a, bad)
        # dual_root(a, inf) = 1 + 0 eps is the limit; dual_pow has none.
        for a_s in (0.0, 0.5, 2.0):
            with pytest.raises(ValueError, match=r"^p must be in \[1, inf\), got inf$"):
                dual_pow(DualScalar(a_s, -0.4), math.inf)

    def test_log2(self):
        v = dual_log2(DualScalar(2.0, 1.0))
        assert_dual_close(v, 1.0, 1.0 / (2.0 * math.log(2.0)), 1e-12, 1e-12)
        # zero conventions: first-order mass appears at eps order, 0 stays 0
        assert_dual_close(dual_log2(DualScalar(0.0, 4.0)), 0.0, 2.0, 0, 0)
        assert_dual_close(dual_log2(DualScalar(0.0, 0.0)), 0.0, 0.0, 0, 0)
        with pytest.raises(ValueError):
            dual_log2(DualScalar(-1.0, 1.0))
        with pytest.raises(ValueError):
            dual_log2(DualScalar(0.0, -1.0))


class TestDualVector:
    def test_construction(self):
        x = DualVector([1.0, 2.0])
        assert np.array_equal(x.i, [0.0, 0.0])
        with pytest.raises(ValueError):
            DualVector([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            DualVector([[1.0]])
        with pytest.raises(ValueError):
            DualVector([1.0, float("nan")])

    def test_indexing_and_len(self):
        x = DualVector([1.0, 2.0], [3.0, 4.0])
        assert len(x) == 2
        assert x[1] == DualScalar(2.0, 4.0)

    def test_slicing(self):
        x = DualVector([1.0, 2.0, 5.0], [3.0, 4.0, 6.0])
        head = x[:2]
        assert isinstance(head, DualVector)
        assert np.array_equal(head.s, [1.0, 2.0])
        assert np.array_equal(head.i, [3.0, 4.0])
        assert len(x[3:]) == 0

    def test_linear_ops(self):
        x = DualVector([1.0, 0.0], [0.0, 1.0])
        y = DualVector([2.0, 2.0], [1.0, -1.0])
        total = x + y
        assert np.array_equal(total.s, [3.0, 2.0])
        assert np.array_equal(total.i, [1.0, 0.0])
        diff = (x - y) + y
        assert np.allclose(diff.s, x.s) and np.allclose(diff.i, x.i)
        neg = -x
        assert np.array_equal(neg.i, [0.0, -1.0])

    def test_dual_scalar_scaling(self):
        x = DualVector([1.0, 2.0], [3.0, 4.0])
        c = DualScalar(2.0, 1.0)
        scaled = c * x
        assert np.array_equal(scaled.s, [2.0, 4.0])
        # c_s x_i + c_i x_s
        assert np.array_equal(scaled.i, [7.0, 10.0])
        assert np.array_equal((x * 2).s, [2.0, 4.0])

    def test_immutable_parts(self):
        x = DualVector([1.0, 2.0])
        with pytest.raises(ValueError):
            x.s[0] = 9.0


class TestDualMatrix:
    def test_construction_and_transpose(self):
        a = DualMatrix([[1.0, 2.0]], [[3.0, 4.0]])
        assert a.shape == (1, 2)
        assert a.T.shape == (2, 1)
        assert a.T.i[1, 0] == 4.0
        with pytest.raises(ValueError):
            DualMatrix([[1.0]], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            DualMatrix([1.0, 2.0])

    def test_matmul_product_rule(self):
        rng = np.random.default_rng(0)
        a = DualMatrix(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        b = DualMatrix(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        prod = a @ b
        assert np.allclose(prod.s, a.s @ b.s)
        assert np.allclose(prod.i, a.s @ b.i + a.i @ b.s)
        with pytest.raises(ValueError):
            b @ a.T

    def test_matvec(self):
        rng = np.random.default_rng(1)
        a = DualMatrix(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        x = DualVector(rng.standard_normal(4), rng.standard_normal(4))
        y = a @ x
        assert isinstance(y, DualVector)
        assert np.allclose(y.s, a.s @ x.s)
        assert np.allclose(y.i, a.s @ x.i + a.i @ x.s)
        with pytest.raises(ValueError):
            a @ DualVector([1.0, 2.0])

    def test_scaling_and_addition(self):
        a = DualMatrix([[1.0]], [[2.0]])
        b = DualMatrix([[3.0]], [[-2.0]])
        assert (a + b).i[0, 0] == 0.0
        assert (a - b).s[0, 0] == -2.0
        c = DualScalar(0.0, 1.0)
        assert (c * a).i[0, 0] == 1.0  # c_i a_s survives, c_s a_i = 0


@pytest.mark.parametrize(
    "cls, s, other",
    [(DualVector, [1.0, -2.0], DualMatrix([[1.0, 2.0]])),
     (DualMatrix, [[1.0, -2.0]], DualVector([1.0, 2.0]))],
    ids=["DualVector", "DualMatrix"],
)
def test_containers_share_algebra(cls, s, other):
    x = cls(s)
    with pytest.raises(AttributeError, match=cls.__name__):
        x.extra = 1.0
    assert np.array_equal(x.i, np.zeros_like(x.s))
    assert not x.i.flags.writeable
    neg = -x
    assert type(neg) is cls
    assert np.array_equal(neg.s, -np.asarray(s)) and np.array_equal(neg.i, x.i)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert repr(x).startswith(f"{cls.__name__}(s=array(")
    with pytest.raises(TypeError):
        DualScalar(1.0) < "a"
    assert DualScalar(1.0) != "a"
    assert DualScalar(1, 0) == 1


@pytest.mark.parametrize("cls, shape", [(DualVector, (4,)), (DualMatrix, (3, 4))],
                         ids=["DualVector", "DualMatrix"])
@pytest.mark.parametrize("writable", [True, False], ids=["writable", "read-only"])
def test_constructor_shares_no_memory(cls, shape, writable):
    # The public constructor copies both parts, even a read-only array that
    # its owner can make writable again.
    s = np.arange(12.0)[: math.prod(shape)].reshape(shape)
    i = -s
    for part in (s, i):
        part.setflags(write=writable)
    x = cls(s, i)
    for mine, theirs in ((x.s, s), (x.i, i)):
        assert not np.shares_memory(mine, theirs)
        assert not mine.flags.writeable
    s_before, i_before = s.copy(), i.copy()
    for part in (s, i):
        part.setflags(write=True)
        part += 1.0
    assert np.array_equal(x.s, s_before) and np.array_equal(x.i, i_before)


def test_owned_parts_are_checked_and_not_copied():
    s = np.arange(12.0).reshape(3, 4)
    i = -s
    x = DualMatrix._owned(s[:, 1:], i[:, :-1])
    assert np.shares_memory(x.s, s) and np.shares_memory(x.i, i)
    assert not x.s.flags.writeable and not x.i.flags.writeable
    with pytest.raises(ValueError, match="only finite"):
        DualMatrix._owned(np.array([[1.0, np.nan]]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        DualMatrix._owned(s, i[:, 1:])
    with pytest.raises(ValueError, match="two-dimensional"):
        DualMatrix._owned(s[0], i[0])


class TestSymSkew:
    def test_decomposition(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5))
        assert np.allclose(sym(m) + skew(m), m)
        assert np.allclose(sym(m), sym(m).T)
        assert np.allclose(skew(m), -skew(m).T)


class TestInverse:
    def test_inverse_law(self):
        rng = np.random.default_rng(3)
        a = DualMatrix(rng.standard_normal((4, 4)) + 4 * np.eye(4),
                       rng.standard_normal((4, 4)))
        inv = dm_inverse(a)
        prod = a @ inv
        assert np.allclose(prod.s, np.eye(4), atol=1e-12)
        assert np.allclose(prod.i, 0.0, atol=1e-12)
        assert np.allclose(inv.i, -inv.s @ a.i @ inv.s)

    def test_rejects_singular_and_ill_conditioned(self):
        singular = DualMatrix(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            dm_inverse(singular)
        near = DualMatrix(np.diag([1.0, 1.0 / (10 * CONDITION_LIMIT)]), np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            dm_inverse(near)
        with pytest.raises(ValueError):
            dm_inverse(DualMatrix(np.ones((2, 3)), np.zeros((2, 3))))


class TestOrthogonal:
    def test_random_orthogonal_is_dual_orthogonal(self):
        for seed in range(5):
            q = dm_random_orthogonal(6, seed)
            assert dm_is_orthogonal(q) is True
            assert np.allclose(q.s.T @ q.s, np.eye(6), atol=1e-12)
            assert np.allclose(sym(q.s.T @ q.i), 0.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a, b = dm_random_orthogonal(5, 11), dm_random_orthogonal(5, 11)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.i, b.i)
        c = dm_random_orthogonal(5, 12)
        assert not np.array_equal(a.s, c.s)

    def test_detects_non_orthogonal(self):
        q = dm_random_orthogonal(4, 0)
        assert dm_is_orthogonal(DualMatrix(q.s * 1.001, q.i)) is False
        assert dm_is_orthogonal(DualMatrix(q.s, q.i + 0.01 * np.eye(4))) is False
        assert dm_is_orthogonal(DualMatrix(np.ones((2, 3)), np.zeros((2, 3)))) is False


def test_import_needs_only_numpy():
    # The package ships no test helper: importing it pulls in none of the
    # test dependencies.
    code = (
        "import sys, dualce; "
        "print(sorted({'pytest', '_pytest', 'hypothesis', 'scipy'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(dualce.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


# Every function taking a class count k, called on a 4-state input of rank 4:
# each checks k with core.check_integer.
_P4 = random_dtpm(np.random.default_rng(21), 4)
K_SITES = {
    "ky_fan_pk_norm": lambda k: ky_fan_pk_norm(_P4, k, 1.5),
    "delta_gamma": lambda k: delta_gamma(_P4.s, k, 1.5),
    "kmeans": lambda k: kmeans(_P4.s.T, k, seed=0),
    "coarse_grain": lambda k: coarse_grain(_P4, k),
}


@pytest.mark.parametrize("site", sorted(K_SITES))
@pytest.mark.parametrize("k", [2.5, True, "2", 0, 5])
def test_k_check_names_k(site, k):
    # Unchecked, a float or string k reaches numpy as a slice bound or an
    # array shape (TypeError), and True passes for 1.
    with pytest.raises(ValueError, match="^k must be"):
        K_SITES[site](k)


@pytest.mark.parametrize("site", sorted(K_SITES))
def test_k_check_accepts_numpy_integer(site):
    K_SITES[site](np.int64(1))
    K_SITES[site](np.int64(4))


# Every other count argument, with the name its message starts with; each
# is checked with core.check_integer.
COUNT_SITES = {
    "kmeans max_iter": ("max_iter", lambda v: kmeans(_P4.s.T, 2, seed=0, max_iter=v)),
    "coarse_grain max_iter": ("max_iter", lambda v: coarse_grain(_P4, 2, max_iter=v)),
    "coarse_grain retries": ("retries", lambda v: coarse_grain(_P4, 2, retries=v)),
    "random_initial_states count": ("count", lambda v: random_initial_states(4, 0, v)),
    "FitOptions max_iter": ("FitOptions.max_iter", lambda v: FitOptions(max_iter=v)),
    "DumbbellConfig far_weight": ("far_weight", lambda v: DumbbellConfig(far_weight=v)),
    "DumbbellConfig near_weight": ("near_weight", lambda v: DumbbellConfig(near_weight=v)),
    "DumbbellConfig bar": ("bar", lambda v: DumbbellConfig(bar=v)),
    "DumbbellConfig seed": ("seed", lambda v: DumbbellConfig(seed=v)),
}


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_count_check_names_argument(site, value):
    # Unchecked, a float or string count reached range() (TypeError), and
    # True ran as 1.
    name, call = COUNT_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call(value)


# Every seed argument, each checked with core.check_integer(seed, "seed", 0).
SEED_SITES = {
    "kmeans": lambda v: kmeans(_P4.s.T, 2, seed=v),
    "coarse_grain": lambda v: coarse_grain(_P4, 2, seed=v),
    "random_initial_states": lambda v: random_initial_states(4, v, 2),
}


@pytest.mark.parametrize("site", sorted(SEED_SITES))
@pytest.mark.parametrize("value", [True, 2.5, "2", -1])
def test_seed_check_names_seed(site, value):
    # Unchecked, True ran as seed 1 (coarse_grain recorded kmeans_seed 1),
    # 2.5 and "2" raised numpy TypeErrors, and -1 a ValueError from numpy.
    with pytest.raises(ValueError, match="^seed must be"):
        SEED_SITES[site](value)


@pytest.mark.parametrize("site", sorted(SEED_SITES))
def test_seed_check_accepts_numpy_integer(site):
    SEED_SITES[site](np.uint32(7))


@pytest.mark.parametrize(
    "bounds, inside", [("[)", (0.0, 0.5)), ("[]", (0.0, 0.5, 1.0)), ("()", (0.5,))]
)
def test_check_real_bounds(bounds, inside):
    span = re.escape(f"x must be in {bounds[0]}0, 1{bounds[1]}")
    for value in (-0.5, 0.0, 0.5, 1.0, 1.5, math.nan):
        if value in inside:
            assert check_real(value, "x", 0.0, 1.0, bounds) == value
        else:
            with pytest.raises(ValueError, match=span):
                check_real(value, "x", 0.0, 1.0, bounds)


@pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None, np.array(0.5), 1j])
def test_check_real_rejects_non_reals(value):
    with pytest.raises(ValueError, match="^x must be a real number"):
        check_real(value, "x", 0.0)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(2), 2, 0.5])
def test_check_real_returns_a_float(value):
    out = check_real(value, "x", 0.0)
    assert type(out) is float and out == float(value)


# Each function that reads its argument's shape through core.check_square:
# (the name its message gives, call).
SQUARE_SITES = {
    "coarse_grain": lambda a: coarse_grain(a, 1),
    "determinant": dual_det,
    "dual inverse": dm_inverse,
    "dual_effective_information": dual_effective_information,
    "norm_sweep": lambda a: norm_sweep(a, (1.5,)),
    "reversibility": is_dynamically_reversible,
    "trace": dual_trace,
}


@pytest.mark.parametrize("name", sorted(SQUARE_SITES))
def test_shapeless_input_refused(name):
    # A DualVector has no shape; reading it raised AttributeError.
    message = f"^{name} needs a square matrix, got shape None$"
    with pytest.raises(ValueError, match=message):
        SQUARE_SITES[name](DualVector([0.5, 0.5], [0.1, -0.1]))


# Real-valued arguments checked with core.check_real that no other test
# range-checks: (argument name, call).
REAL_SITES = {
    "ky_fan_pk_norm p": ("p", lambda v: ky_fan_pk_norm(_P4, 2, v)),
    "schatten_norm p": ("p", lambda v: schatten_norm(_P4, v)),
    "quantize tol": ("tol", lambda v: quantize(_P4.s, v)),
}


_REFUSED = {"True": True, "1.5": "1.5", "None": None, "-1.0": -1.0, "inf": math.inf,
            "nan": math.nan, "10**400": 10**400}


# Both norms take p = inf, and an int past the float range as inf:
# test_matrix_norms.py::test_p_inf_is_the_spectral_norm.
@pytest.mark.parametrize(
    "site, value",
    [
        pytest.param(site, value, id=f"{label}-{site}")
        for label, value in _REFUSED.items()
        for site in sorted(REAL_SITES)
        if not (site.endswith("norm p") and label in ("inf", "10**400"))
    ],
)
def test_real_check_names_argument(site, value):
    # Unchecked, True ran as 1 and "1.5" as 1.5 in both norms, and a NaN
    # quantize tol zeroed nothing.  An int past the float range counts as
    # inf; float() of it raised OverflowError.
    name, call = REAL_SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("site", sorted(REAL_SITES))
@pytest.mark.parametrize("value", [np.float32(1.5), np.int64(2)])
def test_real_check_accepts_numpy_scalars(site, value):
    _, call = REAL_SITES[site]
    np.testing.assert_equal(call(value), call(float(value)))
