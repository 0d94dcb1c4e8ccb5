"""Dual-valued vector p-norms, closed form and element-wise.

For x = x_s + x_i eps the norm is ||x_s|| + D_{x_i} ||x_s|| eps whenever
x_s != 0, with the directional derivative given by the subdifferential max;
at x_s = 0 the value degenerates to ||x_i|| eps.  Branch tests against zero
are exact by policy: thresholding here would silently move points across
subdifferential branches.  Use quantize() on noisy data first.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DualScalar, DualVector, dual_abs, dual_pow, dual_root


def quantize(a: np.ndarray, tol: float) -> np.ndarray:
    """Zero out entries with magnitude strictly below tol."""
    arr = np.asarray(a, dtype=float)
    return np.where(np.abs(arr) < tol, 0.0, arr)


def _real_norm(v: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.linalg.norm(v, ord=p))


def _check_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return p


def dual_vector_norm(x: DualVector, p: float) -> DualScalar:
    """Closed-form dual-valued p-norm of a dual vector, 1 <= p <= inf.

    Returns ||x_s||_p plus the directional derivative of the p-norm at x_s
    along x_i as the infinitesimal part:

    p = 1:       <sign(x_s), x_i> plus sum of |x_i^k| over the zero support
    1 < p < inf: <|x_s|^(p-2) . x_s, x_i> / ||x_s||_p^(p-1)
    p = inf:     max of sign(x_s^k) x_i^k over the indices attaining the max

    A vector with x_s = 0 returns ||x_i||_p eps.
    """
    p = _check_p(p)
    xs, xi = x.s, x.i
    if not xs.any():
        return DualScalar(0.0, _real_norm(xi, p))

    if p == 1.0:
        value = float(np.sum(np.abs(xs)))
        # np.sign is 0 on the zero support, so the inner product only sees
        # the nonzero entries; the zero support contributes |x_i^k|.
        deriv = float(np.sign(xs) @ xi + np.sum(np.abs(xi[xs == 0.0])))
        return DualScalar(value, deriv)

    if math.isinf(p):
        value = float(np.max(np.abs(xs)))
        tied = np.abs(xs) == value
        deriv = float(np.max(np.sign(xs[tied]) * xi[tied]))
        return DualScalar(value, deriv)

    value = _real_norm(xs, p)
    # Normalize before exponentiating: every ratio lies in [0, 1], so
    # |x_s|^(p-2) x_s / ||x_s||^(p-1) cannot overflow for extreme p or tiny
    # entries.  Zero entries contribute 0 (their coefficient vanishes for
    # p > 1).
    ratio = np.abs(xs) / value
    weights = np.sign(xs) * ratio ** (p - 1.0)
    deriv = float(weights @ xi)
    return DualScalar(value, deriv)


def dual_vector_norm_elementwise(x: DualVector, p: float) -> DualScalar:
    """p-norm evaluated entirely in dual-scalar arithmetic.

    Computes (sum_k |x_k|^p)^(1/p) (or the dual max of |x_k| for p = inf)
    with dual_abs/dual_pow/dual_root, and agrees with dual_vector_norm on
    the common domain.  For 1 < p < inf an entry with x_s^k = 0 and
    x_i^k < 0 is rejected: the one-sided limit defining its dual power
    leaves the domain of t**p, so no value is assigned.  A vector with
    x_s = 0 falls back to ||x_i||_p eps.
    """
    p = _check_p(p)
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
