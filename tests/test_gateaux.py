"""The finite-difference estimator that anchors every derivative check."""

import numpy as np
import pytest

from dualce import fd_directional


def test_smooth_scalar_function():
    est = fd_directional(lambda x: x * x, 3.0, 2.0)
    assert est.value == pytest.approx(12.0, abs=1e-4)
    assert est.converged
    assert [t for t, _ in est.steps] == [1e-4, 5e-5, 2.5e-5, 1.25e-5]


def test_extrapolation_cancels_the_step_error():
    # The plain quotient at t = 1e-6 is off by f''(x) u^2 t / 2: 8.2e-7 for
    # exp and 4.0e-6 for x^2 here.
    cases = ((np.exp, 0.5, 1.0, np.exp(0.5)), (lambda x: x * x, 3.0, 2.0, 12.0))
    for f, x, u, expected in cases:
        est = fd_directional(f, x, u)
        assert abs(est.value - expected) <= 1e-9
        assert est.converged


def test_one_sided_at_kink():
    # |0 + t u| / t = |u|: the one-sided limit exists where the two-sided
    # derivative does not.
    est = fd_directional(abs, 0.0, -2.5)
    assert est.value == pytest.approx(2.5, abs=1e-10)


def test_max_with_tied_argument():
    f = lambda v: float(np.max(v))
    est = fd_directional(f, np.array([1.0, 1.0]), np.array([3.0, -1.0]))
    assert est.value == pytest.approx(3.0, abs=1e-10)


def test_array_arguments():
    f = lambda m: float(np.linalg.norm(m))
    x = np.array([[3.0, 0.0], [0.0, 4.0]])
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    est = fd_directional(f, x, u)
    assert est.value == pytest.approx(3.0 / 5.0, abs=1e-5)


def test_convergence_flag():
    # x -> sqrt(|x|) has an infinite one-sided slope at 0: quotients blow up
    # instead of settling, so the estimate must flag itself unconverged.
    est = fd_directional(lambda x: abs(x) ** 0.5, 0.0, 1.0)
    assert not est.converged
    smooth = fd_directional(lambda x: 2 * x, 0.0, 1.0)
    assert smooth.converged

