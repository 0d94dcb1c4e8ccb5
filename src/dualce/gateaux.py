"""One-sided finite-difference estimate of the directional derivative.

This is the verification oracle for every closed-form infinitesimal part in
the library: the dual continuation of a real function phi carries
D_u phi(x) = lim_{t -> 0+} (phi(x + t u) - phi(x)) / t
as its infinitesimal part, so the closed forms must agree with the quotient
at small t.  Differences are strictly one-sided because the functions of
interest (norms, max-type expressions) are not two-sided differentiable at
the branch points we care about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import check_real

DEFAULT_T_SCHEDULE = (1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class FdEstimate:
    """Finite-difference result.

    value is the quotient at the smallest step; steps holds every
    (t, quotient) pair in schedule order; converged is True when the last
    two quotients agree to rtol relative to max(1, |value|).
    """

    value: float
    steps: tuple[tuple[float, float], ...]
    converged: bool


def fd_directional(
    f: Callable,
    x,
    u,
    t_schedule: Sequence[float] = DEFAULT_T_SCHEDULE,
    rtol: float = 1e-3,
) -> FdEstimate:
    """Estimate the one-sided directional derivative of f at x along u.

    x and u may be floats or numpy arrays of the same shape; f maps that
    point type to a float.  t_schedule must be nonempty and strictly
    decreasing, with every step in (0, inf), and rtol in [0, inf).
    Evaluation failures of f propagate to the caller.
    """
    ts = [check_real(t, "t_schedule entry", 0.0, math.inf, "()") for t in t_schedule]
    rtol = check_real(rtol, "rtol", 0.0)
    if not ts:
        raise ValueError("t_schedule must be nonempty")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_schedule must be strictly decreasing")

    f0 = float(f(x))
    steps = []
    for t in ts:
        quotient = (float(f(x + t * u)) - f0) / t
        steps.append((t, quotient))

    value = steps[-1][1]
    if len(steps) >= 2:
        gap = abs(steps[-1][1] - steps[-2][1])
        converged = gap <= rtol * max(1.0, abs(value))
    else:
        converged = True
    return FdEstimate(value=value, steps=tuple(steps), converged=converged)
