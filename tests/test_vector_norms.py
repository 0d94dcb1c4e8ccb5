"""Dual vector norms: closed forms against the FD oracle, plus axioms."""

import math

import numpy as np
import pytest

from dualce import (
    DualScalar,
    DualVector,
    compare,
    dual_abs,
    dual_vector_norm,
    dual_vector_norm_elementwise,
    fd_directional,
    quantize,
)
from tests.conftest import assert_dual_close, fd_check, random_dual_vector

P_VALUES = [1.0, 1.3, 2.0, 3.5, math.inf]


def norm_of(p):
    return lambda v: float(np.linalg.norm(v, 1 if p == 1.0 else p))


@pytest.mark.parametrize("p", P_VALUES)
def test_closed_form_matches_fd(p):
    rng = np.random.default_rng(42)
    for _ in range(60):
        x = random_dual_vector(rng, rng.integers(1, 9))
        closed = dual_vector_norm(x, p)
        fd_check(closed, fd_directional(norm_of(p), x.s, x.i))


def test_one_norm_zero_support():
    x = DualVector([2.0, 0.0, -1.0], [1.0, -3.0, 2.0])
    # sign picks up 1 - 2 from the nonzero entries, |-3| from the zero one.
    assert_dual_close(dual_vector_norm(x, 1.0), 3.0, 2.0, 1e-12, 1e-12)
    fd_check(
        dual_vector_norm(x, 1.0), fd_directional(norm_of(1.0), x.s, x.i)
    )


def test_inf_norm_tie():
    x = DualVector([2.0, -2.0], [1.0, 5.0])
    # tied indices: max(1*1, -1*5) = 1
    assert_dual_close(dual_vector_norm(x, math.inf), 2.0, 1.0, 1e-12, 1e-12)
    fd_check(
        dual_vector_norm(x, math.inf),
        fd_directional(norm_of(math.inf), x.s, x.i),
    )


@pytest.mark.parametrize("p", P_VALUES)
def test_zero_standard_part(p):
    x = DualVector([0.0, 0.0, 0.0], [3.0, -4.0, 0.0])
    v = dual_vector_norm(x, p)
    assert v.s == 0.0
    assert v.i == pytest.approx(norm_of(p)(x.i), abs=1e-12)


def test_rejects_bad_p():
    # NaN fails p < 1 as well as p >= 1; the check must still name p
    x = DualVector([1.0], [0.0])
    for norm in (dual_vector_norm, dual_vector_norm_elementwise):
        for bad in (0.5, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="p must satisfy 1 <= p <= inf"):
                norm(x, bad)


class TestAxioms:
    """Non-negativity, dual homogeneity, triangle, under the total order."""

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        zero = DualScalar(0.0, 0.0)
        for _ in range(200):
            x = random_dual_vector(rng, 5, zero_prob=0.2)
            for p in P_VALUES:
                assert compare(dual_vector_norm(x, p), zero) >= 0

    def test_dual_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = random_dual_vector(rng, 4)
            c = DualScalar(rng.standard_normal(), rng.standard_normal())
            for p in P_VALUES:
                lhs = dual_vector_norm(c * x, p)
                rhs = dual_abs(c) * dual_vector_norm(x, p)
                assert_dual_close(lhs, rhs.s, rhs.i, 1e-9, 1e-8)

    def test_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = random_dual_vector(rng, 6)
            y = random_dual_vector(rng, 6)
            for p in P_VALUES:
                lhs = dual_vector_norm(x + y, p)
                rhs = dual_vector_norm(x, p) + dual_vector_norm(y, p)
                # exact standard-part ties are how the infinitesimal parts
                # get compared; allow roundoff at the tie boundary
                slack = 1e-10 * max(1.0, rhs.s)
                assert lhs.s <= rhs.s + slack
                if abs(lhs.s - rhs.s) <= slack:
                    assert lhs.i <= rhs.i + 1e-8


class TestElementwise:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = random_dual_vector(rng, 5)
            for p in [1.0, 1.7, 3.0, math.inf]:
                a = dual_vector_norm(x, p)
                b = dual_vector_norm_elementwise(x, p)
                assert_dual_close(b, a.s, a.i, 1e-9, 1e-8)

    def test_rejects_negative_slope_at_zero_entry(self):
        # t -> (0 + t*(-1))^1.7 leaves the reals for t > 0: no dual value.
        x = DualVector([1.0, 0.0], [0.0, -1.0])
        with pytest.raises(ValueError):
            dual_vector_norm_elementwise(x, 1.7)
        # the zero-vector fallback stays usable
        z = DualVector([0.0, 0.0], [1.0, -1.0])
        assert dual_vector_norm_elementwise(z, 1.7).s == 0.0

    def test_empty_vector(self):
        assert dual_vector_norm_elementwise(DualVector([], []), 2.0).s == 0.0


def test_quantize():
    a = np.array([1e-14, -1e-14, 0.5, -0.5])
    out = quantize(a, 1e-13)
    assert np.array_equal(out, [0.0, 0.0, 0.5, -0.5])
