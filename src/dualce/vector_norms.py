"""Dual-valued vector p-norms in closed form.

For x = x_s + x_i eps the norm is ||x_s|| + D_{x_i} ||x_s|| eps whenever
x_s != 0, with the directional derivative given by the subdifferential max;
at x_s = 0 the value degenerates to ||x_i|| eps.  Branch tests against zero
are exact by policy: thresholding here would silently move points across
subdifferential branches.  Use quantize() on noisy data first.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DualScalar, DualVector, check_real


def quantize(a: np.ndarray, tol: float) -> np.ndarray:
    """Zero out entries with magnitude strictly below tol, 0 <= tol < inf."""
    tol = check_real(tol, "tol", 0.0)
    arr = np.asarray(a, dtype=float)
    return np.where(np.abs(arr) < tol, 0.0, arr)


def _real_norm(v: np.ndarray, p: float) -> float:
    """||v||_p as m ||v / m||_p with m = max |v| (the p = inf norm), so no
    power of an entry under- or overflows where the norm is representable."""
    m = float(np.max(np.abs(v), initial=0.0))
    if m == 0.0 or math.isinf(p):
        return m
    return m * float(np.linalg.norm(v / m, ord=p))


def dual_vector_norm(x: DualVector, p: float) -> DualScalar:
    """Closed-form dual-valued p-norm of a dual vector, 1 <= p <= inf.

    Returns ||x_s||_p plus the directional derivative of the p-norm at x_s
    along x_i as the infinitesimal part:

    p = 1:       <sign(x_s), x_i> plus sum of |x_i^k| over the zero support
    1 < p < inf: <|x_s|^(p-2) . x_s, x_i> / ||x_s||_p^(p-1)
    p = inf:     max of sign(x_s^k) x_i^k over the indices attaining the max

    A vector with x_s = 0 returns ||x_i||_p eps.
    """
    p = check_real(p, "p", 1.0, math.inf, "[]")
    xs, xi = x.s, x.i
    if not xs.any():
        return DualScalar(0.0, _real_norm(xi, p))

    if p == 1.0:
        value = float(np.sum(np.abs(xs)))
        # np.sign is 0 on the zero support, so the inner product only sees
        # the nonzero entries; the zero support contributes |x_i^k|.
        deriv = float(np.sign(xs) @ xi + np.sum(np.abs(xi[xs == 0.0])))
        return DualScalar(value, deriv)

    value = _real_norm(xs, p)
    if math.isinf(p):
        tied = np.abs(xs) == value
        deriv = float(np.max(np.sign(xs[tied]) * xi[tied]))
        return DualScalar(value, deriv)

    # Normalize before exponentiating: every ratio lies in [0, 1], so
    # |x_s|^(p-2) x_s / ||x_s||^(p-1) cannot overflow for extreme p or tiny
    # entries.  Zero entries contribute 0 (their coefficient vanishes for
    # p > 1).
    ratio = np.abs(xs) / value
    weights = np.sign(xs) * ratio ** (p - 1.0)
    deriv = float(weights @ xi)
    return DualScalar(value, deriv)
