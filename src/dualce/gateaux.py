"""One-sided finite-difference estimate of the directional derivative.

This is the verification oracle for every closed-form infinitesimal part in
the library: the dual continuation of a real function phi carries
D_u phi(x) = lim_{t -> 0+} (phi(x + t u) - phi(x)) / t
as its infinitesimal part, so the closed forms must agree with the limit of
the quotient.  Differences are strictly one-sided because the functions of
interest (norms, max-type expressions) are not two-sided differentiable at
the branch points we care about.  Where phi is smooth on the ray
x + t u, 0 <= t <= h, the quotient is D_u phi(x) + c_1 t + c_2 t^2 + ...,
and Richardson extrapolation over t = h, h/2, h/4, h/8 cancels the first
three terms (Dahlquist & Bjorck, Numerical Methods in Scientific Computing,
vol. I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The largest step.  At 1e-3 a test input's branch point fell inside
# [0, h]; at 1e-5 roundoff in the quotients reached 1e-10.
_H = 1e-4
_LEVELS = 4
# converged: the last two levels of the table agree to this, relative to
# max(1, |value|).
_AGREEMENT = 1e-6


@dataclass(frozen=True)
class FdEstimate:
    """Finite-difference result.

    value is the fully extrapolated entry of the Richardson table; steps
    holds the raw (t, quotient) pairs for t = h, h/2, h/4, h/8; converged is
    True when the table's last two levels agree to 1e-6 relative to
    max(1, |value|).
    """

    value: float
    steps: tuple[tuple[float, float], ...]
    converged: bool


def fd_directional(f: Callable, x, u) -> FdEstimate:
    """Estimate the one-sided directional derivative of f at x along u.

    x and u may be floats or numpy arrays of the same shape; f maps that
    point type to a float and is evaluated 5 times.  Evaluation failures of
    f propagate to the caller.
    """
    f0 = float(f(x))
    steps = tuple(
        (t, (float(f(x + t * u)) - f0) / t) for t in (_H / 2**j for j in range(_LEVELS))
    )
    # Column k of the table cancels the t^k term of column k - 1; the last
    # column has one entry, and the level before it ends on the same step.
    column = [q for _, q in steps]
    for k in range(1, _LEVELS):
        previous = column[-1]
        column = [b + (b - a) / (2**k - 1) for a, b in zip(column, column[1:])]
    value = column[-1]
    converged = abs(value - previous) <= _AGREEMENT * max(1.0, abs(value))
    return FdEstimate(value=value, steps=steps, converged=converged)
