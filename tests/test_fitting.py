"""Snapshot construction, exact projections, and the two-stage fit."""

import math
import tracemalloc

import numpy as np
import pytest

from dualce import fitting
from dualce import (
    DualMatrix,
    DumbbellConfig,
    FitOptions,
    SnapshotPair,
    build_snapshots,
    dumbbell_dtpm,
    dumbbell_tpm,
    fit_dtpm,
    fit_infinitesimal,
    fit_standard,
    project_simplex,
    project_zero_sum_masked,
    simulate,
    validate_dtpm,
)
from dualce.pipeline import PipelineConfig, stages
from tests.conftest import assert_bits_equal, random_tpm


def reference_zero_sum_columns(v, mask):
    """Sort-based zero-sum projection as first written: one stable argsort
    of the negated breakpoints per call."""
    n, c = v.shape
    cols = np.arange(c)
    keys = np.where(mask, v, np.inf)
    order = np.argsort(-keys, axis=0, kind="stable")
    vals = np.take_along_axis(v, order, axis=0)
    keys_sorted = np.take_along_axis(keys, order, axis=0)
    csum = np.cumsum(vals, axis=0)
    counts = np.arange(1, n + 1, dtype=float)[:, None]
    lam = csum / counts
    hi = keys_sorted
    lo = np.vstack([keys_sorted[1:], np.full((1, c), -np.inf)])
    viol = np.maximum(lo - lam, lam - hi)
    viol = np.where((lam <= hi) & (lam >= lo), -1.0, viol)
    cut = np.argmin(viol, axis=0)
    lam_star = lam[cut, cols]
    out = v - lam_star[None, :]
    return np.where(mask, np.maximum(out, 0.0), out)


def reference_simplex_columns(v):
    """Simplex projection as first written (negated sort, difference test)."""
    n = v.shape[0]
    u = -np.sort(-v, axis=0)
    css = np.cumsum(u, axis=0) - 1.0
    j = np.arange(1, n + 1, dtype=float)[:, None]
    rho = np.sum(u - css / j > 0.0, axis=0) - 1
    theta = css[rho, np.arange(v.shape[1])] / (rho + 1.0)
    return np.maximum(v - theta[None, :], 0.0)


def reference_fista(xxt, yxt, y_sq, project, p0, lipschitz, tol, max_iter):
    """The solver loop as first written: it forms P X X^T afresh for every
    objective and gradient.  Returns the FitStage and the restart count."""

    def objective(p):
        return 0.5 * (y_sq - 2.0 * float(np.sum(p * yxt)) + float(np.sum((p @ xxt) * p)))

    def gradient(p):
        return p @ xxt - yxt

    restarts = 0
    if lipschitz <= 0.0:
        g = gradient(p0)
        return fitting.FitStage(p0, objective(p0), 0, True, 0.0, float(np.linalg.norm(g))), 0
    step = 1.0 / (lipschitz * (1.0 + 1e-9))
    p = z = p0
    t = 1.0
    obj = objective(p)
    for iterations in range(1, max_iter + 1):
        cand = project(z - step * gradient(z))
        obj_cand = objective(cand)
        held = False
        if obj_cand > obj:
            restarts += 1
            z = p
            t = 1.0
            cand = project(z - step * gradient(z))
            obj_cand = objective(cand)
            held = obj_cand > obj
            if held:
                cand = p
                obj_cand = obj
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = cand + ((t - 1.0) / t_next) * (cand - p)
        decrease = obj - obj_cand
        prev_obj = obj
        p, obj, t = cand, obj_cand, t_next
        if decrease <= tol * max(1.0, prev_obj):
            g = gradient(p)
            mapped = (p - project(p - step * g)) / step
            kkt = float(np.linalg.norm(mapped))
            grad_norm = float(np.linalg.norm(g))
            if kkt <= fitting.KKT_FACTOR * (1.0 + grad_norm):
                return fitting.FitStage(p, obj, iterations, True, kkt, grad_norm), restarts
        if held:
            break
    g = gradient(p)
    mapped = (p - project(p - step * g)) / step
    kkt = float(np.linalg.norm(mapped))
    grad_norm = float(np.linalg.norm(g))
    return fitting.FitStage(p, obj, iterations, False, kkt, grad_norm), restarts


def assert_stages_bit_equal(a, b):
    assert_bits_equal(a.matrix, b.matrix)
    for field in ("objective", "iterations", "converged", "kkt_residual", "gradient_norm"):
        assert_bits_equal(getattr(a, field), getattr(b, field))


def stack_snapshots(pairs) -> SnapshotPair:
    """Side-by-side columns of several trajectories' snapshot pairs: the
    per-run stacking `build_snapshots(..., runs=r)` replaced."""
    pairs = list(pairs)
    if len(pairs) == 1:
        return pairs[0]

    def stack(part):
        return DualMatrix(
            np.hstack([part(q).s for q in pairs]), np.hstack([part(q).i for q in pairs])
        )

    return SnapshotPair(stack(lambda q: q.x), stack(lambda q: q.y))


def _parts(pair, side):
    """The standard and infinitesimal arrays of pair.x or pair.y."""
    half = getattr(pair, side)
    return half.s, half.i


class TestBuildSnapshots:
    def test_slicing(self):
        # x_1..x_5 as columns: T = 3
        traj = np.arange(10, dtype=float).reshape(2, 5)
        pair = build_snapshots(traj)
        assert pair.x.shape == (2, 3)
        assert np.array_equal(pair.x.s, traj[:, 0:3])
        assert np.array_equal(pair.y.s, traj[:, 1:4])
        assert np.array_equal(pair.x.i, traj[:, 1:4] - traj[:, 0:3])
        assert np.array_equal(pair.y.i, traj[:, 2:5] - traj[:, 1:4])

    def test_smallest_case(self):
        traj = np.array([[1.0, 2.0, 4.0]])
        pair = build_snapshots(traj)
        assert pair.x.s.shape == (1, 1)
        assert pair.x.i[0, 0] == 1.0 and pair.y.i[0, 0] == 2.0

    def test_constant_sequence_has_zero_infinitesimals(self):
        traj = np.ones((3, 6)) / 3.0
        pair = build_snapshots(traj)
        assert np.all(pair.x.i == 0.0) and np.all(pair.y.i == 0.0)

    def test_simulated_columns_sum_to_zero(self):
        m = dumbbell_tpm(DumbbellConfig(far_weight=2, near_weight=2, bar=1))
        traj = simulate(m, np.full(9, 1.0 / 9), 40)
        pair = build_snapshots(traj)
        assert np.max(np.abs(pair.x.i.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(pair.y.i.sum(axis=0))) <= 1e-12

    def test_dual_trajectory_keeps_its_parts(self):
        traj = DualMatrix(
            np.arange(10, dtype=float).reshape(2, 5), -np.arange(10.0).reshape(2, 5)
        )
        pair = build_snapshots(traj)
        assert np.array_equal(pair.x.s, traj.s[:, 0:4])
        assert np.array_equal(pair.x.i, traj.i[:, 0:4])
        assert np.array_equal(pair.y.s, traj.s[:, 1:5])
        assert np.array_equal(pair.y.i, traj.i[:, 1:5])

    def test_stack_side_by_side(self):
        # runs=r reads r runs side by side; each run's snapshots are those of
        # the run alone, side by side as stack_snapshots put them.
        rng = np.random.default_rng(5)
        for length, runs in ((3, 1), (5, 2), (6, 4)):
            traj = rng.standard_normal((3, runs * length))
            dual = DualMatrix(traj, rng.standard_normal(traj.shape))
            for whole in (traj, dual):
                parts = np.split(traj, runs, axis=1)
                if whole is dual:
                    parts = [
                        DualMatrix(s, i)
                        for s, i in zip(parts, np.split(dual.i, runs, axis=1))
                    ]
                expected = stack_snapshots([build_snapshots(q) for q in parts])
                got = build_snapshots(whole, runs=runs)
                for part in ("x", "y"):
                    for a, b in zip(_parts(got, part), _parts(expected, part)):
                        assert a.tobytes() == b.tobytes()

    def test_runs_of_simulated_trajectories(self):
        m = dumbbell_dtpm(DumbbellConfig(far_weight=2, near_weight=2, bar=1))
        starts = np.random.default_rng(8).dirichlet(np.ones(9), size=4).T
        got = build_snapshots(simulate(m, starts, 5), runs=4)
        expected = stack_snapshots(
            build_snapshots(simulate(m, x1, 5)) for x1 in starts.T
        )
        for part in ("x", "y"):
            for a, b in zip(_parts(got, part), _parts(expected, part)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("runs, length", [(1, 8), (4, 3), (4, 5)])
    def test_real_runs_share_nothing_with_the_trajectory(self, runs, length):
        # One run's X and Y are views of one private copy of the states and
        # one of their differences.  Several runs are copied; at 3 states a
        # run leaves one column per part, which a reshape could view instead.
        # Every part has unit column stride for the fit's products.
        traj = np.random.default_rng(6).random((3, runs * length))
        expected = build_snapshots(traj.copy(), runs=runs)
        pair = build_snapshots(traj, runs=runs)
        if runs == 1:
            assert np.shares_memory(pair.x.s, pair.y.s)
            assert np.shares_memory(pair.x.i, pair.y.i)
        for part in (*_parts(pair, "x"), *_parts(pair, "y")):
            assert not np.shares_memory(part, traj)
            assert not part.flags.writeable and part.strides[1] == part.itemsize
        traj[:] = 0.0
        for side in ("x", "y"):
            for a, b in zip(_parts(pair, side), _parts(expected, side)):
                assert a.tobytes() == b.tobytes()

    def test_dual_run_is_not_copied(self):
        # A DualMatrix's parts are immutable, so one run's snapshots are
        # views of them; several runs copy each part once.
        rng = np.random.default_rng(9)
        traj = DualMatrix(rng.random((3, 12)), rng.random((3, 12)))
        pair = build_snapshots(traj)
        for side in ("x", "y"):
            for part, whole in zip(_parts(pair, side), (traj.s, traj.i)):
                assert np.shares_memory(part, whole)
                assert part.strides[1] == part.itemsize
        runs = build_snapshots(traj, runs=3)
        for side in ("x", "y"):
            for part, whole in zip(_parts(runs, side), (traj.s, traj.i)):
                assert not np.shares_memory(part, whole)

    @pytest.mark.parametrize(
        "width, runs",
        [(10, 3), (3, 4), (4, 2), (2, 1)],
        ids=["not-a-multiple", "fewer-states-than-runs", "two-per-run", "two-in-one-run"],
    )
    def test_rejects_bad_run_split(self, width, runs):
        traj = np.ones((2, width)) / 2.0
        for whole in (traj, DualMatrix(traj)):
            with pytest.raises(ValueError, match="runs of at least 3 states"):
                build_snapshots(whole, runs=runs)

    @pytest.mark.parametrize("runs", [0, True, 2.5, "2"])
    def test_runs_must_be_positive_integer(self, runs):
        with pytest.raises(ValueError, match="^runs must be"):
            build_snapshots(np.ones((2, 6)) / 2.0, runs=runs)

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_snapshots(DualMatrix(np.ones((2, 2))))
        with pytest.raises(ValueError):
            build_snapshots(np.ones((2, 2)))
        with pytest.raises(ValueError):
            build_snapshots(np.ones(5))


class TestProjectSimplex:
    def test_known_points(self):
        assert np.allclose(project_simplex([0.5, 0.5, 100.0]), [0, 0, 1])
        assert np.allclose(project_simplex([0.0, 0.0]), [0.5, 0.5])
        on = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(on), on, atol=1e-12)

    def test_unsorted_input_left_alone(self):
        v = np.array([0.3, 0.1, 0.6, -0.2])
        assert np.allclose(project_simplex(v), [0.3, 0.1, 0.6, 0.0], atol=1e-12)
        assert np.array_equal(v, [0.3, 0.1, 0.6, -0.2])

    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-3, 3, size=int(rng.integers(2, 7)))
            u = project_simplex(v)
            assert abs(u.sum() - 1.0) <= 1e-12
            assert np.min(u) >= -1e-12
            assert np.allclose(project_simplex(u), u, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(-4, 4, 5), rng.uniform(-4, 4, 5)
            pa, pb = project_simplex(a), project_simplex(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestProjectZeroSumMasked:
    def test_empty_mask_demeans(self):
        v = np.array([3.0, 1.0, -1.0])
        u = project_zero_sum_masked(v, np.zeros(3, dtype=bool))
        assert np.allclose(u, v - v.mean(), atol=1e-12)

    def test_full_mask_with_positive_mean(self):
        u = project_zero_sum_masked(np.array([3.0, -1.0]), np.ones(2, dtype=bool))
        assert np.allclose(u, [0.0, 0.0], atol=1e-12)

    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            v = rng.uniform(-3, 3, d)
            mask = rng.random(d) < 0.5
            if mask.all() and d == 1:
                continue
            u = project_zero_sum_masked(v, mask)
            assert abs(u.sum()) <= 1e-12
            assert np.min(u[mask], initial=0.0) >= -1e-12
            again = project_zero_sum_masked(u, mask)
            assert np.allclose(again, u, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        mask = np.array([True, False, True, False])
        for _ in range(100):
            a, b = rng.uniform(-4, 4, 4), rng.uniform(-4, 4, 4)
            pa = project_zero_sum_masked(a, mask)
            pb = project_zero_sum_masked(b, mask)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            project_zero_sum_masked(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            project_zero_sum_masked(np.array([]), np.array([], dtype=bool))
        with pytest.raises(ValueError, match="boolean array"):
            project_zero_sum_masked(np.array([1.0, 2.0]), np.array([True]))

    @pytest.mark.parametrize("s", [[1.5], [1.0], [-1], [0, 3], [0, 2]])
    def test_bad_indices_rejected(self, s):
        # Index lists, in range or not, are not masks.
        with pytest.raises(ValueError, match="boolean array"):
            project_zero_sum_masked(np.array([1.0, -2.0, 0.5]), s)


def projection_cases():
    """(v, mask) pairs: random, tie-heavy, all-free, all-masked, signed zeros."""
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(40):
        n, c = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        v = rng.standard_normal((n, c))
        mask = rng.random((n, c)) < rng.uniform(0.0, 1.0)
        cases.append((v, mask))
        cases.append((np.round(v, 1), mask))
        cases.append((np.round(2.0 * v) / 2.0, rng.random((n, c)) < 0.8))
    v = rng.standard_normal((9, 7))
    cases.append((v, np.zeros_like(v, dtype=bool)))
    cases.append((v, np.ones_like(v, dtype=bool)))
    for _ in range(30):
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=(6, 5), p=[0.4, 0.4, 0.1, 0.1])
        cases.append((zeros, rng.random((6, 5)) < 0.7))
        cases.append((zeros, np.ones_like(zeros, dtype=bool)))
    cases.append((np.array([[-0.0], [0.0], [-0.0]]), np.array([[False], [True], [True]])))
    # Exact ties, one column each, "m" marking a masked entry and "f" a free
    # one: masked breakpoints equal to the root (1, or 0 among the signed
    # zeros), tied maxima in all-masked columns, and signed-zero
    # breakpoints.  The arithmetic is exact, so the count cut must give the
    # reference's multiplier to the bit.
    for values, kinds in (
        ([1.0, 1.0, -2.0], "mfm"), ([1.0, 1.0], "fm"), ([3.0, -1.0, 1.0, 0.5], "ffmm"),
        ([0.0, 2.0, 1.0, -1.0], "fmmm"), ([1.0, 1.0, 1.0, -4.0, 1.0], "mfmmm"),
        ([2.0, 2.0, -1.0], "mmm"), ([1.0, 1.0, -5.0], "mmm"), ([-1.0, -1.0, -2.0], "mmm"),
        ([0.5, 0.5, 0.5], "mmm"), ([0.0, -0.0, -0.0], "mmm"), ([-0.0, 0.0], "mm"),
        ([-0.0, 0.0, -0.0], "fmm"), ([-0.0, 0.0, 0.0], "mfm"),
        ([1.0, 0.0, -1.0, -0.0], "fmfm"),
    ):
        mask = np.array([[kind == "m"] for kind in kinds])
        cases.append((np.array(values)[:, None], mask))
    return cases


class TestProjectorsMatchReference:
    def test_zero_sum_projector_is_bit_equal(self):
        for v, mask in projection_cases():
            got = fitting._column_projector(mask, 0.0).project(v)
            assert_bits_equal(got, reference_zero_sum_columns(v, mask))

    def test_zero_sum_projector_reuses_its_mask(self):
        rng = np.random.default_rng(15)
        mask = rng.random((30, 20)) < 0.6
        project = fitting._column_projector(mask, 0.0).project
        for _ in range(5):
            v = rng.standard_normal((30, 20))
            assert_bits_equal(project(v), reference_zero_sum_columns(v, mask))

    def test_simplex_projection_is_bit_equal(self):
        for v, _ in projection_cases():
            got = fitting._column_projector(np.ones(v.shape, dtype=bool), 1.0).project(v)
            assert_bits_equal(got, reference_simplex_columns(v))


def solver_instances():
    """Small snapshot pairs by name; "restart" is one whose momentum
    overshoots in both stages, "zero-gram" one with lipschitz == 0, and
    "drift-31" a 31-state drifting dumbbell."""
    rng = np.random.default_rng(16)

    def pair_of(x_s, y_s, x_i):
        x_i = x_i - x_i.mean(axis=0, keepdims=True)
        return fitting.SnapshotPair(DualMatrix(x_s, x_i), DualMatrix(y_s, 2.0 * x_i))

    m = random_tpm(rng, 5)
    x = rng.dirichlet(np.ones(5), size=40).T
    rich = pair_of(x, m @ x, 0.01 * rng.standard_normal((5, 40)))
    cfg = DumbbellConfig(far_weight=3, near_weight=2, bar=1, seed=2)
    n = dumbbell_tpm(cfg).shape[0]
    restart = build_snapshots(simulate(dumbbell_dtpm(cfg), np.full(n, 1.0 / n), 60))
    x, y = rng.dirichlet(np.ones(6), size=4).T, rng.dirichlet(np.ones(6), size=4).T
    wide = pair_of(x, y, 0.1 * rng.standard_normal((6, 4)))
    # X_s = 0: the Gram and the Lipschitz constant are zero.
    zero = pair_of(np.zeros((4, 5)), rng.dirichlet(np.ones(4), size=5).T, rng.standard_normal((4, 5)))
    # n = 31: P_s has 7 to 21 zeros per column, so the P_i columns mix free
    # and masked entries in varying counts.
    cfg = DumbbellConfig(far_weight=8, near_weight=5, bar=5)
    drift = build_snapshots(simulate(dumbbell_dtpm(cfg), np.full(cfg.n, 1.0 / cfg.n), 60))
    return {
        "rich": rich, "restart": restart, "wide-null": wide, "zero-gram": zero, "drift-31": drift
    }


def reference_standard(pair, opts):
    """fit_standard by reference_fista; returns the stage and its restarts."""
    x_s, y_s = pair.x.s, pair.y.s
    n = x_s.shape[0]
    xxt = x_s @ x_s.T
    return reference_fista(
        xxt, y_s @ x_s.T, float(np.sum(y_s * y_s)), reference_simplex_columns,
        np.full((n, n), 1.0 / n), fitting._spectral_norm_psd(xxt), opts.tol, opts.max_iter,
    )


def reference_infinitesimal(pair, p_s, opts):
    """fit_infinitesimal by reference_fista; returns the stage and its restarts."""
    x_s, x_i, y_i = pair.x.s, pair.x.i, pair.y.i
    n = x_s.shape[0]
    xxt = x_s @ x_s.T
    r = y_i - p_s @ x_i
    mask = p_s == 0.0
    return reference_fista(
        xxt, r @ x_s.T, float(np.sum(r * r)),
        lambda v: reference_zero_sum_columns(v, mask),
        np.zeros((n, n)), fitting._spectral_norm_psd(xxt), opts.tol, opts.max_iter,
    )


@pytest.fixture
def bound_decisions(monkeypatch):
    """One entry per stopping test: True when the bound failed it
    unprojected."""
    decided = []
    real = fitting._bound_fails

    def recording(*args):
        fails = real(*args)
        decided.append(fails)
        return fails

    monkeypatch.setattr(fitting, "_bound_fails", recording)
    return decided


SOLVER_NAMES = ("rich", "restart", "wide-null", "zero-gram", "drift-31")
SOLVER_CASES = [
    pytest.param(name, tol, id=name if tol == 1e-12 else f"{name}-tol{tol:g}")
    for tol in (1e-12, 1e-10)
    for name in SOLVER_NAMES
]


class TestSolverMatchesReference:
    @pytest.mark.parametrize("name, tol", SOLVER_CASES)
    def test_both_stages_bit_equal(self, name, tol, bound_decisions):
        pair = solver_instances()[name]
        opts = FitOptions(tol=tol, max_iter=3000)
        ref_s, restarts_s = reference_standard(pair, opts)
        ref_i, restarts_i = reference_infinitesimal(pair, ref_s.matrix, opts)
        if name == "restart":
            assert restarts_s > 0 and restarts_i > 0
        if name == "zero-gram":
            assert ref_s.iterations == ref_i.iterations == 0

        stage_s = fit_standard(pair.x.s, pair.y.s, opts)
        assert_stages_bit_equal(stage_s, ref_s)
        assert_stages_bit_equal(fit_infinitesimal(pair, stage_s.matrix, opts), ref_i)
        report = fit_dtpm(pair, opts)
        assert_stages_bit_equal(report.standard, ref_s)
        assert_stages_bit_equal(report.infinitesimal, ref_i)
        if tol == 1e-10 and name != "zero-gram":
            assert any(bound_decisions)

    @pytest.mark.parametrize(
        "name, stage",
        [("rich", "standard"), ("rich", "infinitesimal"), ("restart", "standard"),
         ("restart", "infinitesimal"), ("wide-null", "infinitesimal")],
    )
    def test_budget_ends_on_a_bound_decided_test(self, name, stage, bound_decisions):
        """Capped two iterations short of convergence, the stage ends
        unconverged and its last stopping test was failed by the bound, so
        kkt_residual and gradient_norm come from the one projection made
        after the loop."""
        pair = solver_instances()[name]
        p_s = reference_standard(pair, FitOptions())[0].matrix

        def both(opts):
            if stage == "standard":
                return fit_standard(pair.x.s, pair.y.s, opts), reference_standard(pair, opts)[0]
            return fit_infinitesimal(pair, p_s, opts), reference_infinitesimal(pair, p_s, opts)[0]

        budget = both(FitOptions())[1].iterations - 2
        bound_decisions.clear()
        got, ref = both(FitOptions(max_iter=budget))
        assert not ref.converged and ref.iterations == budget
        assert bound_decisions and bound_decisions[-1]
        assert_stages_bit_equal(got, ref)

    def test_fit_dtpm_forms_one_gram(self, monkeypatch):
        calls = []
        real = fitting._spectral_norm_psd
        monkeypatch.setattr(fitting, "_spectral_norm_psd", lambda m: calls.append(1) or real(m))
        fit_dtpm(solver_instances()["restart"])
        assert len(calls) == 1


class TestStoppingCost:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_failing_stop_tests_do_not_project(self, name, monkeypatch):
        """fit_dtpm projects once per iteration, plus once per restart and
        per projected stopping test.  The two stages test from 0
        ("zero-gram") to about 1,550 ("restart") times, and the bound
        decides all but a few of the failing tests."""
        calls = []

        def counting(factory):
            def build(*args):
                columns = factory(*args)

                def project(v):
                    calls.append(1)
                    return columns.project(v)

                return columns._replace(project=project)

            return build

        monkeypatch.setattr(
            fitting, "_column_projector", counting(fitting._column_projector)
        )
        report = fit_dtpm(solver_instances()[name])
        assert report.standard.converged and report.infinitesimal.converged
        assert len(calls) - sum(report.iterations) <= 10

    @pytest.mark.parametrize("max_iter", [50, 5000])
    def test_held_iterate_ends_the_solve(self, max_iter):
        """A projector whose every output is worse than the start rejects
        both the momentum and the restart step, so the start is held.  Every
        later iteration would repeat the first, so the solve ends after it,
        unconverged, however large the budget."""
        rng = np.random.default_rng(20)
        x = rng.dirichlet(np.ones(4), size=10).T
        y = random_tpm(rng, 4) @ x
        q = np.eye(4)[[1, 2, 3, 0]]
        p0 = np.full((4, 4), 0.25)
        assert np.linalg.norm(y - q @ x) > np.linalg.norm(y - p0 @ x)
        columns = fitting._ColumnSet(lambda v: q.copy(), np.zeros((4, 4), dtype=bool))
        xxt = x @ x.T
        stage = fitting._fista(
            xxt, y @ x.T, float(np.sum(y * y)), columns, p0,
            fitting._spectral_norm_psd(xxt), 1e-10, max_iter,
        )
        assert_bits_equal(stage.matrix, p0)
        assert not stage.converged and stage.iterations == 1


def bound_cases():
    """(p, g, step, columns) with p feasible for columns: random points of
    both sets with all-masked and all-free columns, tied gradients, a zero
    gradient, the start points, and exact optima (G = 0)."""
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(40):
        n, c = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        mask = rng.random((n, c)) < rng.uniform(0.0, 1.0)
        mask[:, 0] = True
        mask[:, -1] = False
        step = float(rng.uniform(0.05, 2.0))
        for columns, start in (
            (fitting._column_projector(np.ones((n, c), dtype=bool), 1.0),
             np.full((n, c), 1.0 / n)),
            (fitting._column_projector(mask, 0.0), np.zeros((n, c))),
        ):
            p = columns.project(rng.standard_normal((n, c)))
            g = rng.standard_normal((n, c))
            cases.append((p, g, step, columns))
            cases.append((p, np.round(g), step, columns))
            cases.append((p, np.zeros((n, c)), step, columns))
            cases.append((start, g, step, columns))
            v = rng.standard_normal((n, c))
            opt = columns.project(v)
            cases.append((opt, (opt - v) / step, step, columns))
    return cases


class TestKktLowerBound:
    def test_bound_never_exceeds_the_mapping_norm(self):
        eps = np.finfo(float).eps
        for p, g, step, columns in bound_cases():
            exact = np.linalg.norm((p - columns.project(p - step * g)) / step)
            bound = fitting._kkt_lower_bound(p, g, step, columns.free)
            # Both sides carry roundoff of about n eps (||p|| / step + ||g||).
            slack = 16 * p.shape[0] * eps * (np.linalg.norm(p) / step + np.linalg.norm(g))
            assert bound <= exact + slack

    def test_column_subset_bound_never_exceeds_the_mapping_norm(self):
        """The bound over any set of columns bounds that set's share of
        ||G||: G is separable by columns."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(19)
        for p, g, step, columns in bound_cases():
            c = p.shape[1]
            mapped = (p - columns.project(p - step * g)) / step
            slack = 16 * p.shape[0] * eps * (np.linalg.norm(p) / step + np.linalg.norm(g))
            subsets = [[0], [c - 1], list(range(0, c, 2)), rng.permutation(c)[: (c + 1) // 2]]
            for cols in subsets:
                cols = np.asarray(cols)
                free = columns.free[:, cols]
                bound = fitting._kkt_lower_bound(p[:, cols], g[:, cols], step, free)
                assert bound <= np.linalg.norm(mapped[:, cols]) + slack


class TestFitOptions:
    @pytest.mark.parametrize(
        "field, value",
        [("tol", math.nan), ("tol", -1.0), ("tol", math.inf), ("max_iter", 0),
         ("max_iter", -5), ("max_iter", 2.5), ("max_iter", True), ("tol", "1"),
         ("tol", True)],
    )
    def test_out_of_range_rejected(self, field, value):
        # A NaN or negative tol would switch the stopping test off.
        with pytest.raises(ValueError, match=field):
            FitOptions(**{field: value})

    def test_edges_accepted(self):
        opts = FitOptions(tol=0.0, max_iter=1)
        assert (opts.tol, opts.max_iter) == (0.0, 1)


class TestFitStandard:
    def test_identity_recovery(self):
        stage = fit_standard(np.eye(4), np.eye(4))
        assert stage.converged
        assert np.max(np.abs(stage.matrix - np.eye(4))) <= 1e-4
        assert stage.objective <= 1e-9

    def test_known_generator_recovery(self):
        # rich snapshot columns make the least-squares optimum unique at M
        rng = np.random.default_rng(6)
        m = random_tpm(rng, 5)
        x = rng.dirichlet(np.ones(5), size=60).T
        y = m @ x
        stage = fit_standard(x, y, FitOptions(tol=1e-14, max_iter=60000))
        assert np.linalg.norm(stage.matrix - m) <= 1e-3

    def test_result_is_column_stochastic(self):
        rng = np.random.default_rng(7)
        x = rng.dirichlet(np.ones(4), size=10).T
        y = rng.dirichlet(np.ones(4), size=10).T
        stage = fit_standard(x, y)
        assert np.max(np.abs(stage.matrix.sum(axis=0) - 1.0)) <= 1e-12
        assert np.min(stage.matrix) >= 0.0

    def test_kkt_certificate_when_converged(self):
        rng = np.random.default_rng(8)
        x = rng.dirichlet(np.ones(4), size=40).T
        y = random_tpm(rng, 4) @ x
        stage = fit_standard(x, y)
        assert stage.converged
        assert stage.kkt_residual <= 1e-6 * (1.0 + stage.gradient_norm)

    def test_objective_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        x = rng.dirichlet(np.ones(5), size=30).T
        y = random_tpm(rng, 5) @ x
        objs = [
            fit_standard(x, y, FitOptions(tol=0.0, max_iter=n)).objective
            for n in (10, 50, 200, 1000)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_capped_fit_reports_the_returned_matrix(self):
        """Capped short of convergence, the stage's residuals are those of
        the matrix it returns, recomputed here, not of the last iterate that
        ran a stopping test: this cap's last iteration ran none."""
        for name, traj in stages(PipelineConfig(far_weight=4, near_weight=3, bar=2, t=80, seed=3)):
            if name == "simulate":
                break
        pair = build_snapshots(traj)
        x, y = pair.x.s, pair.y.s
        n = x.shape[0]
        stage = fit_standard(x, y, FitOptions(max_iter=2936))
        assert not stage.converged and stage.iterations == 2936
        xxt = x @ x.T
        step = 1.0 / (fitting._spectral_norm_psd(xxt) * (1.0 + 1e-9))
        simplex = fitting._column_projector(np.ones((n, n), dtype=bool), 1.0)
        p = stage.matrix
        g = p @ xxt - y @ x.T
        assert stage.kkt_residual == float(np.linalg.norm((p - simplex.project(p - step * g)) / step))
        assert stage.gradient_norm == float(np.linalg.norm(g))

    @pytest.mark.parametrize("which", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, which, bad, monkeypatch):
        def no_gram(x_s):
            raise AssertionError("the Gram matrix was formed")

        monkeypatch.setattr(fitting, "_gram", no_gram)
        x = np.full((3, 5), 1.0 / 3)
        y = x.copy()
        (x if which == "x" else y)[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_standard(x, y)

    def test_tiny_instance_matches_grid(self):
        # n=2: each column of P has one free parameter; scan both on a grid
        rng = np.random.default_rng(10)
        x = rng.dirichlet(np.ones(2), size=2).T
        y = rng.dirichlet(np.ones(2), size=2).T
        grid = np.arange(0.0, 1.0 + 1e-3, 1e-3)
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        p11, p12 = g1.ravel(), g2.ravel()
        # residual entries written out for P = [[a, b], [1-a, 1-b]]
        r11 = y[0, 0] - (p11 * x[0, 0] + p12 * x[1, 0])
        r21 = y[1, 0] - ((1 - p11) * x[0, 0] + (1 - p12) * x[1, 0])
        r12 = y[0, 1] - (p11 * x[0, 1] + p12 * x[1, 1])
        r22 = y[1, 1] - ((1 - p11) * x[0, 1] + (1 - p12) * x[1, 1])
        obj = r11**2 + r21**2 + r12**2 + r22**2
        best = int(np.argmin(obj))
        stage = fit_standard(x, y)
        assert abs(stage.matrix[0, 0] - p11[best]) <= 1e-3
        assert abs(stage.matrix[0, 1] - p12[best]) <= 1e-3


class TestFitInfinitesimal:
    def test_exact_standard_dynamics_give_zero(self):
        # Y_i = P_s X_i exactly: P_i = O is feasible with zero residual
        rng = np.random.default_rng(11)
        p_s = random_tpm(rng, 4)
        x_s = rng.dirichlet(np.ones(4), size=20).T
        x_i = rng.standard_normal((4, 20)) * 0.01
        x_i -= x_i.mean(axis=0, keepdims=True)
        pair_x = DualMatrix(x_s, x_i)
        pair_y = DualMatrix(p_s @ x_s, p_s @ x_i)
        from dualce.fitting import SnapshotPair

        stage = fit_infinitesimal(SnapshotPair(pair_x, pair_y), p_s)
        assert np.max(np.abs(stage.matrix)) <= 1e-8

    def test_stationary_chain_gives_zero(self):
        rng = np.random.default_rng(12)
        p_s = random_tpm(rng, 3)
        x_s = rng.dirichlet(np.ones(3), size=10).T
        from dualce.fitting import SnapshotPair

        pair = SnapshotPair(
            DualMatrix(x_s, np.zeros_like(x_s)),
            DualMatrix(p_s @ x_s, np.zeros_like(x_s)),
        )
        stage = fit_infinitesimal(pair, p_s)
        assert np.max(np.abs(stage.matrix)) == 0.0

    def test_non_finite_standard_part_rejected(self, monkeypatch):
        def no_gram(x_s):
            raise AssertionError("the Gram matrix was formed")

        monkeypatch.setattr(fitting, "_gram", no_gram)
        x = DualMatrix(np.eye(3), np.zeros((3, 3)))
        p_s = np.full((3, 3), 1.0 / 3)
        p_s[0, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fit_infinitesimal(fitting.SnapshotPair(x, x), p_s)

    def test_zero_pattern_threshold(self):
        # with X_s = I the fit projects each column of R = Y_i onto the
        # feasible set; column 0 pulls every row but the last below zero, and
        # the zero pattern has no threshold: only the exact zero is held at
        # >= 0, and 5e-14 is no zero of P_s, so P_i is free there, as
        # validate_dtpm reads it
        p_s = np.full((4, 4), 0.25)
        p_s[:, 0] = [0.0, 5e-14, 1e-12, 1.0]
        y_i = np.zeros((4, 4))
        y_i[:, 0] = [-1.0, -1.0, -1.0, 3.0]
        pair = fitting.SnapshotPair(
            DualMatrix(np.eye(4), np.zeros((4, 4))), DualMatrix(np.eye(4), y_i)
        )
        stage = fit_infinitesimal(pair, p_s)
        expected = [0.0, -4.0 / 3.0, -4.0 / 3.0, 8.0 / 3.0]
        assert np.allclose(stage.matrix[:, 0], expected, atol=1e-9)
        assert stage.matrix[0, 0] >= 0.0
        assert np.max(np.abs(stage.matrix[:, 1:])) <= 1e-12


@pytest.fixture(scope="module")
def small_run():
    cfg = DumbbellConfig(far_weight=3, near_weight=2, bar=1, seed=4)
    m = dumbbell_tpm(cfg)
    rng = np.random.default_rng(13)
    x1 = rng.uniform(0, 1, m.shape[0])
    x1 /= x1.sum()
    pair = build_snapshots(simulate(m, x1, 80))
    return fit_dtpm(pair)


class TestFitDtpm:

    def test_report_is_coherent(self, small_run):
        report = small_run
        validate_dtpm(report.p)
        assert report.p.s is report.standard.matrix
        assert report.p.i is report.infinitesimal.matrix
        assert report.condition_estimate >= 1.0
        for stage in (report.standard, report.infinitesimal):
            assert stage.objective >= 0.0
            assert stage.kkt_residual >= 0.0 and stage.gradient_norm >= 0.0
            if stage.converged:
                assert stage.kkt_residual <= fitting.KKT_FACTOR * (1.0 + stage.gradient_norm)

    def test_report_carries_each_stage_diagnostics(self):
        m = random_tpm(np.random.default_rng(12), 6)
        pair = build_snapshots(simulate(m, np.full(6, 1.0 / 6), 40))
        report = fit_dtpm(pair)
        stage_s = fit_standard(pair.x.s, pair.y.s)
        stage_i = fit_infinitesimal(pair, stage_s.matrix)
        assert_stages_bit_equal(report.standard, stage_s)
        assert_stages_bit_equal(report.infinitesimal, stage_i)
        assert report.iterations == (stage_s.iterations, stage_i.iterations)
        d = report.to_dict()
        stages = (report.standard, report.infinitesimal)
        assert [d["objective_s"], d["objective_i"]] == [st.objective for st in stages]
        for key in ("iterations", "converged", "kkt_residual", "gradient_norm"):
            assert d[key] == [getattr(st, key) for st in stages]

    def test_fit_holds_each_snapshot_once(self):
        # Default seed 0's 85-state trajectory.  Four separate snapshot parts
        # and an infinitesimal residual kept through the solve peaked at
        # 2.75 MB; one copy of the states, one of their differences and a
        # residual freed before FISTA peak at about 1.74 MB.
        for name, traj in stages(PipelineConfig()):
            if name == "simulate":
                break
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fit_dtpm(build_snapshots(traj))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_infinitesimal_respects_sign_mask(self, small_run):
        p = small_run.p
        mask = p.s == 0.0
        assert np.min(p.i[mask], initial=0.0) >= 0.0
        assert np.max(np.abs(p.i.sum(axis=0))) <= 1e-12

    def test_long_horizon_flags_conditioning(self):
        # a chain driven to stationarity yields nearly rank-one snapshots
        m = np.full((4, 4), 0.25)
        pair = build_snapshots(simulate(m, np.array([1.0, 0, 0, 0]), 50))
        report = fit_dtpm(pair)
        assert report.condition_estimate > fitting.ILL_CONDITION_LIMIT
        assert report.to_dict()["ill_conditioned"] is True
