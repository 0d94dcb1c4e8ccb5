"""The finite-difference estimator that anchors every derivative check."""

import numpy as np
import pytest

from dualce import DEFAULT_T_SCHEDULE, fd_directional


def test_smooth_scalar_function():
    est = fd_directional(lambda x: x * x, 3.0, 2.0)
    assert est.value == pytest.approx(12.0, abs=1e-4)
    assert est.converged
    assert len(est.steps) == len(DEFAULT_T_SCHEDULE)
    assert est.steps[0][0] == DEFAULT_T_SCHEDULE[0]


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


def test_schedule_validation():
    with pytest.raises(ValueError):
        fd_directional(abs, 1.0, 1.0, t_schedule=())
    with pytest.raises(ValueError):
        fd_directional(abs, 1.0, 1.0, t_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        fd_directional(abs, 1.0, 1.0, t_schedule=(1e-3, 0.0))
    for bad in ((float("nan"),), (float("inf"), 1e-3), (1e-3, float("nan")),
                (True,), ("1e-3",), (None,)):
        with pytest.raises(ValueError, match="^t_schedule entry must be"):
            fd_directional(abs, 1.0, 1.0, t_schedule=bad)


def test_convergence_flag():
    # x -> sqrt(|x|) has an infinite one-sided slope at 0: quotients blow up
    # instead of settling, so the estimate must flag itself unconverged.
    est = fd_directional(lambda x: abs(x) ** 0.5, 0.0, 1.0)
    assert not est.converged
    smooth = fd_directional(lambda x: 2 * x, 0.0, 1.0)
    assert smooth.converged


def test_single_step_schedule_marked_converged():
    est = fd_directional(lambda x: x * x, 1.0, 1.0, t_schedule=(1e-6,))
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-5)
