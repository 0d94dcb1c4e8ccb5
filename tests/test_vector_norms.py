"""Dual vector norms: closed forms (the norm axioms are checked in
test_acceptance.py, the FD oracle rows are in conftest.FD_TABLE)."""

import math

import numpy as np
import pytest

from dualce import (
    DualScalar,
    DualVector,
    dual_abs,
    dual_pow,
    dual_root,
    dual_vector_norm,
    quantize,
)
from dualce.core import check_real
from dualce.vector_norms import _real_norm
from tests.conftest import assert_dual_close, random_dual_vector

P_VALUES = [1.0, 1.3, 2.0, 3.5, math.inf]


def norm_of(p):
    return lambda v: float(np.linalg.norm(v, 1 if p == 1.0 else p))


def test_one_norm_zero_support():
    x = DualVector([2.0, 0.0, -1.0], [1.0, -3.0, 2.0])
    # sign picks up 1 - 2 from the nonzero entries, |-3| from the zero one.
    assert_dual_close(dual_vector_norm(x, 1.0), 3.0, 2.0, 1e-12, 1e-12)


def test_inf_norm_tie():
    x = DualVector([2.0, -2.0], [1.0, 5.0])
    # tied indices: max(1*1, -1*5) = 1
    assert_dual_close(dual_vector_norm(x, math.inf), 2.0, 1.0, 1e-12, 1e-12)


@pytest.mark.parametrize("p", P_VALUES)
def test_zero_standard_part(p):
    x = DualVector([0.0, 0.0, 0.0], [3.0, -4.0, 0.0])
    v = dual_vector_norm(x, p)
    assert v.s == 0.0
    assert v.i == pytest.approx(norm_of(p)(x.i), abs=1e-12)


@pytest.mark.parametrize("s, p", [(1e-200, 2.0), (0.5, 2000.0), (1e200, 2.0)])
def test_extreme_entries_stay_representable(s, p):
    # ||s + eps|| = s + eps at every p.  Unscaled, s^p underflowed to a zero
    # real norm for the first two, and the infinitesimal part divided by
    # it; for the third it overflowed the standard part.
    for sign in (1.0, -1.0):
        v = dual_vector_norm(DualVector([sign * s], [1.0]), p)
        assert (v.s, v.i) == (s, sign)


def dual_vector_norm_elementwise(x, p):
    """p-norm evaluated entirely in dual-scalar arithmetic: the reference
    for dual_vector_norm's closed form.

    Computes (sum_k |x_k|^p)^(1/p) (or the dual max of |x_k| for p = inf)
    with dual_abs/dual_pow/dual_root, and agrees with dual_vector_norm on
    the common domain.  For 1 < p < inf an entry with x_s^k = 0 and
    x_i^k < 0 is rejected: the one-sided limit defining its dual power
    leaves the domain of t**p, so no value is assigned.  A vector with
    x_s = 0 falls back to ||x_i||_p eps.
    """
    p = check_real(p, "p", 1.0, math.inf, "[]")
    if len(x) == 0:
        return DualScalar(0.0, 0.0)

    entries = [x[k] for k in range(len(x))]

    if p == 1.0:
        total = DualScalar(0.0, 0.0)
        for e in entries:
            total = total + dual_abs(e)
        return total

    if math.isinf(p):
        best = dual_abs(entries[0])
        for e in entries[1:]:
            cand = dual_abs(e)
            if cand > best:
                best = cand
        return best

    if not x.s.any():
        return DualScalar(0.0, _real_norm(x.i, p))
    bad = (x.s == 0.0) & (x.i < 0.0)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"entry {k} has zero standard part and negative infinitesimal "
            f"part; its dual {p}-th power is undefined"
        )
    total = DualScalar(0.0, 0.0)
    for e in entries:
        total = total + dual_pow(dual_abs(e), p)
    return dual_root(total, p)

def test_rejects_bad_p():
    # NaN fails p < 1 as well as p >= 1; the check must still name p
    x = DualVector([1.0], [0.0])
    for norm in (dual_vector_norm, dual_vector_norm_elementwise):
        for bad in (0.5, 0.0, -1.0, math.nan, True, "1.5", None):
            with pytest.raises(ValueError, match="^p must be"):
                norm(x, bad)


@pytest.mark.parametrize("p", [np.float32(1.5), np.int64(2), math.inf])
def test_accepts_real_p_of_any_kind(p):
    # a numpy scalar p gives the norm at the float it holds
    x = DualVector([3.0, -4.0, 0.0], [1.0, 2.0, -5.0])
    assert dual_vector_norm(x, p) == dual_vector_norm(x, float(p))


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
