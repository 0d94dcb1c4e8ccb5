"""Transition matrices: EI, reversibility, the benchmark generator, serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from dualce import markov
from dualce import (
    DualMatrix,
    DualVector,
    DumbbellConfig,
    delta_gamma,
    dual_effective_information,
    dumbbell_dtpm,
    dumbbell_tpm,
    effective_information,
    fd_directional,
    is_dynamically_reversible,
    simulate,
    validate_dtpm,
    validate_tpm,
)
from dualce.markov import (
    _blocks,
    matrix_from_dict,
    matrix_to_dict,
    read_matrix_csv,
    write_matrix_csv,
)
from tests.conftest import (
    EI_NO_DRIFT,
    EI_ZERO_SUPPORT,
    fd_check,
    inverse_is_dtpm,
    one_sided_quotients,
    random_dtpm,
    random_tpm,
)


class TestValidation:
    def test_validate_tpm(self):
        rng = np.random.default_rng(0)
        m = random_tpm(rng, 5)
        assert validate_tpm(m) is not None
        with pytest.raises(ValueError):
            validate_tpm(m * 1.01)
        bad = m.copy()
        bad[0, 0] -= 1.0
        bad[1, 0] += 1.0  # columns still sum to 1, entry negative
        with pytest.raises(ValueError):
            validate_tpm(bad)
        with pytest.raises(ValueError):
            validate_tpm(m[:, :3])

    def test_nan_entries_rejected(self):
        # NaN passes both the sign test and the column-sum test
        m = np.array([[0.5, np.nan], [0.5, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            validate_tpm(m)
        with pytest.raises(ValueError, match="finite"):
            simulate(m, np.array([0.5, 0.5]), 3)

    def test_validate_dtpm(self):
        rng = np.random.default_rng(1)
        p = random_dtpm(rng, 4)
        assert validate_dtpm(p) is p
        drift = DualMatrix(p.s, p.i + 0.01)
        with pytest.raises(ValueError):
            validate_dtpm(drift)

    def test_dtpm_sign_mask(self):
        # infinitesimal entries must be nonnegative on the standard zeros
        p_s = np.array([[1.0, 0.5], [0.0, 0.5]])
        ok = DualMatrix(p_s, np.array([[0.1, 0.0], [-0.1, 0.0]]))
        with pytest.raises(ValueError):
            validate_dtpm(ok)
        good = DualMatrix(p_s, np.array([[-0.1, 0.0], [0.1, 0.0]]))
        assert validate_dtpm(good)


# The functions that read a real matrix through markov._real_square.
REAL_MATRIX_SITES = {
    "validate_tpm": validate_tpm,
    "effective_information": effective_information,
    "delta_gamma": lambda a: delta_gamma(a, 1, 1.5),
}


@pytest.mark.parametrize(
    "container",
    [DualVector([0.5, 0.5], [0.1, -0.1]), DualMatrix(np.full((2, 2), 0.5), np.zeros((2, 2)))],
    ids=["DualVector", "DualMatrix"],
)
@pytest.mark.parametrize("name", sorted(REAL_MATRIX_SITES))
def test_dual_container_refused(name, container):
    # float() cannot read a dual entry; it raised TypeError.
    message = f"^{name} needs a real matrix, got a {type(container).__name__}$"
    with pytest.raises(ValueError, match=message):
        REAL_MATRIX_SITES[name](container)


class TestEffectiveInformation:
    def test_no_states_refused(self):
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match="^effective_information needs at least one state"):
            effective_information(empty)
        with pytest.raises(ValueError, match="^dual_effective_information needs at least one state"):
            dual_effective_information(DualMatrix(empty, empty))

    def test_all_zero_gives_zero(self):
        # No positive entry: the sum over them is empty.
        assert effective_information(np.zeros((3, 3))) == 0.0

    def test_identical_columns_give_zero(self):
        col = np.array([0.2, 0.3, 0.5])
        m = np.tile(col[:, None], (1, 3))
        assert effective_information(m) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_state(self):
        m = np.array([[1.0, 0.5], [0.0, 0.5]])
        # columns [1,0] and [.5,.5]; rows sum to 1.5 and 0.5
        expect = 0.5 * (
            1.0 * (0 - math.log2(1.5 / 2))
            + 0.5 * (math.log2(0.5) - math.log2(1.5 / 2))
            + 0.5 * (math.log2(0.5) - math.log2(0.5 / 2))
        )
        assert effective_information(m) == pytest.approx(expect, abs=1e-12)

    def test_requires_square(self):
        # 2 x 3 and column-stochastic: the 3 columns are the interventions,
        # but EI averages over the row count n
        wide = np.array([[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            effective_information(wide)
        with pytest.raises(ValueError, match="dual_effective_information needs"):
            dual_effective_information(DualMatrix(wide, np.zeros((2, 3))))

    @pytest.mark.parametrize(
        "bad",
        [[[-0.5, 0.5], [1.5, 0.5]], [[np.nan, 0.5], [0.5, 0.5]],
         [[np.inf, 0.5], [0.5, 0.5]]],
    )
    def test_bad_entries_rejected(self, bad):
        bad = np.array(bad)
        with pytest.raises(ValueError, match="finite, nonnegative"):
            effective_information(bad)
        if np.isfinite(bad).all():
            with pytest.raises(ValueError, match="finite, nonnegative"):
                dual_effective_information(DualMatrix(bad, np.zeros((2, 2))))

    def test_bounds_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = effective_information(random_tpm(rng, n))
            assert -1e-12 <= v <= math.log2(n) + 1e-12


class TestDualEffectiveInformation:
    def test_standard_part_always_matches(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_dtpm(rng, int(rng.integers(2, 8)))
            v = dual_effective_information(p)
            assert v.s == pytest.approx(effective_information(p.s), abs=1e-12)

    def test_infinitesimal_matches_fd(self):
        rng = np.random.default_rng(5)
        for p in (random_dtpm(rng, int(rng.integers(2, 8))) for _ in range(50)):
            fd_check(dual_effective_information(p), fd_directional(effective_information, p.s, p.i))

    def test_zero_support_without_drift_matches_fd(self):
        p = validate_dtpm(DualMatrix(EI_ZERO_SUPPORT, EI_NO_DRIFT))
        fd_check(dual_effective_information(p), fd_directional(effective_information, p.s, p.i))

    def test_zero_support_drift_keeps_closed_form_finite(self):
        # P_i = 0.2 and 0.1 where P_s = 0: the derivative there is -inf, so
        # the quotients fall by log2(10) * 0.3 / 3 per decade of t, while the
        # closed form gives those entries 0.
        n, p_s = 3, EI_ZERO_SUPPORT
        p_i = np.array([[-0.1, 0.0, 0.1], [-0.1, -0.1, -0.1], [0.2, 0.1, 0.0]])
        p = validate_dtpm(DualMatrix(p_s, p_i))
        closed = dual_effective_information(p)
        assert math.isfinite(closed.i)
        assert not fd_directional(effective_information, p_s, p_i).converged
        ts = (1e-3, 1e-4, 1e-5, 1e-6)
        quotients = one_sided_quotients(effective_information, p_s, p_i, ts)
        drops = np.diff(quotients)
        assert np.allclose(drops, -math.log2(10) * 0.3 / n, rtol=1e-3)
        assert quotients[-1] < closed.i - 2.0
        # Less the zero-support entries' a log2(t a) / n, the quotients
        # converge to the closed form.
        a = p_i[p_s == 0.0]
        for t, q in zip(ts, quotients):
            rest = q - np.sum(a * np.log2(t * a)) / n
            assert abs(rest - closed.i) <= 0.2 * t

class TestReversibility:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            is_dynamically_reversible(
                DualMatrix(np.ones((2, 3)) / 2, np.zeros((2, 3)))
            )

    def test_refuses_empty(self):
        # An exact check over no entries would say True.
        empty = DualMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="^reversibility needs at least one state"):
            is_dynamically_reversible(empty)

    def test_refuses_non_dtpm(self):
        # P_i < 0 where P_s = 0: not a DTPM, yet its dual inverse is one, so
        # an unchecked decision (False) would disagree with the definition.
        p = DualMatrix(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
        assert inverse_is_dtpm(p)
        with pytest.raises(ValueError, match="infinitesimal part must be >= 0"):
            is_dynamically_reversible(p)


class TestDumbbell:
    def test_default_is_valid_85(self):
        cfg = DumbbellConfig()
        m = dumbbell_tpm(cfg)
        assert m.shape == (85, 85)
        validate_tpm(m)

    def test_deterministic(self):
        a = dumbbell_tpm(DumbbellConfig(seed=5))
        b = dumbbell_tpm(DumbbellConfig(seed=5))
        assert np.array_equal(a, b)
        c = dumbbell_tpm(DumbbellConfig(seed=6))
        assert not np.array_equal(a, c)

    def test_chain_topology(self):
        # only adjacent blocks couple: far-near, near-bar; never far-far,
        # far-bar, or near-near across the bar
        cfg = DumbbellConfig(far_weight=3, near_weight=2, bar=1, seed=2)
        m = dumbbell_tpm(cfg)
        blocks = _blocks(cfg.block_sizes)
        for bi, rows in enumerate(blocks):
            for bj, cols in enumerate(blocks):
                if abs(bi - bj) > 1:
                    assert np.all(m[rows, cols] == 0.0), f"blocks {bi},{bj} must not couple"

    def test_within_block_density(self):
        cfg = DumbbellConfig(far_weight=3, near_weight=2, bar=1, seed=3)
        m = dumbbell_tpm(cfg)
        for block in _blocks(cfg.block_sizes):
            assert np.all(m[block, block] > 0.0)

    def test_smallest_instance(self):
        m = dumbbell_tpm(DumbbellConfig(far_weight=1, near_weight=1, bar=1))
        assert m.shape == (5, 5)
        validate_tpm(m)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DumbbellConfig(far_weight=0)
        # A fractional or boolean block size would fail later, inside
        # dumbbell_tpm, with a TypeError.
        for name in ("far_weight", "near_weight", "bar"):
            for value in (2.5, True):
                with pytest.raises(ValueError, match=name):
                    DumbbellConfig(**{name: value})
        # A fractional, boolean or negative seed would fail later, inside
        # numpy's SeedSequence.
        for value in (2.5, True, -1, "1"):
            with pytest.raises(ValueError, match="seed"):
                DumbbellConfig(seed=value)


class TestDumbbellDtpm:
    def test_valid_drift_toward_lumpable_chain(self):
        cfg = DumbbellConfig(seed=3)
        p = validate_dtpm(dumbbell_dtpm(cfg))
        assert np.array_equal(p.s, dumbbell_tpm(cfg))
        target = p.s + p.i
        validate_tpm(target)
        for block in _blocks(cfg.block_sizes):
            cols = target[:, block]
            # decoupled: no mass leaves the block; lumpable: equal columns
            assert np.all(np.delete(cols, block, axis=0) == 0.0)
            assert np.allclose(cols, cols[:, :1], atol=1e-15)
        assert np.linalg.matrix_rank(target) == 5


class TestSimulate:
    def test_probability_propagation(self):
        rng = np.random.default_rng(10)
        m = dumbbell_tpm(DumbbellConfig(seed=1))
        x1 = rng.uniform(0, 1, 85)
        x1 /= x1.sum()
        traj = simulate(m, x1, 500)
        assert traj.shape == (85, 502)
        assert np.max(np.abs(traj.sum(axis=0) - 1.0)) <= 1e-10
        assert np.min(traj) >= 0.0

    def test_identity_is_constant(self):
        x1 = np.array([0.3, 0.7])
        traj = simulate(np.eye(2), x1, 5)
        assert np.allclose(traj, x1[:, None])

    def test_uniform_mixes_in_one_step(self):
        u = np.full((4, 4), 0.25)
        traj = simulate(u, np.array([1.0, 0, 0, 0]), 3)
        assert np.allclose(traj[:, 1:], 0.25)

    def test_dual_chain_matches_fd(self):
        # the infinitesimal part is the derivative of the trajectory of
        # M + h D at h = 0
        rng = np.random.default_rng(11)
        p = random_dtpm(rng, 6)
        x1 = rng.uniform(0, 1, 6)
        x1 /= x1.sum()
        traj = simulate(p, x1, 8)
        assert isinstance(traj, DualMatrix)
        assert np.array_equal(traj.s, simulate(p.s, x1, 8))
        assert np.all(traj.i[:, 0] == 0.0)
        assert np.max(np.abs(traj.i.sum(axis=0))) <= 1e-12
        h = 1e-6
        fd = (simulate(p.s + h * p.i, x1, 8) - traj.s) / h
        assert np.allclose(traj.i, fd, atol=1e-4)

    def test_input_validation(self):
        m = np.eye(2)
        with pytest.raises(ValueError):
            simulate(DualMatrix(m, np.array([[1.0, 0.0], [0.0, 0.0]])),
                     np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError):
            simulate(m, np.array([0.5, 0.6]), 3)
        with pytest.raises(ValueError):
            simulate(m, np.array([-0.1, 1.1]), 3)
        with pytest.raises(ValueError):
            simulate(m, np.array([0.5, 0.5]), 0)
        with pytest.raises(ValueError):
            simulate(m, np.array([1.0]), 3)

    @pytest.mark.parametrize("t", [5.5, True, "3", 0])
    def test_t_must_be_positive_integer(self, t):
        # Unchecked, 5.5 fails in range() with a TypeError and True runs one
        # step.
        with pytest.raises(ValueError, match="^t must be"):
            simulate(np.eye(2), np.array([0.5, 0.5]), t)

    def test_numpy_integer_t(self):
        x1 = np.array([0.5, 0.5])
        assert simulate(np.eye(2), x1, np.int64(3)).shape == (2, 5)

    @pytest.mark.parametrize(
        "x1",
        [[np.nan, 0.5], [1.0, np.nan], [np.inf, 0.5], [np.inf, -np.inf]],
        ids=["nan-first", "nan-last", "inf", "inf-minus-inf"],
    )
    def test_non_finite_start_rejected(self, x1):
        # NaN compares False both ways, so a min/sum range check alone lets
        # [nan, 0.5] through and the trajectory fills with NaN.
        for m in (np.eye(2), DualMatrix(np.eye(2), np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="probability vector"):
                simulate(m, np.array(x1), 3)


class TestSimulateStacked:
    @pytest.mark.parametrize("runs", [1, 3, 100])
    @pytest.mark.parametrize("drift", [False, True], ids=["tpm", "dtpm"])
    def test_runs_equal_single_runs_bit_for_bit(self, runs, drift):
        cfg = DumbbellConfig(seed=3)
        chain = dumbbell_dtpm(cfg) if drift else dumbbell_tpm(cfg)
        starts = np.random.default_rng(runs).dirichlet(np.ones(cfg.n), size=runs).T
        t = 5
        stacked = simulate(chain, starts, t)
        singles = [simulate(chain, x1, t) for x1 in starts.T]
        assert stacked.shape == (cfg.n, runs * (t + 2))
        parts = ("s", "i") if drift else (None,)
        for part in parts:
            got = stacked if part is None else getattr(stacked, part)
            want = [q if part is None else getattr(q, part) for q in singles]
            assert got.tobytes() == np.hstack(want).tobytes()

    def test_dual_runs_copied_once(self):
        # The drifting default dumbbell, 100 runs of 5 steps: each part is
        # copied out of its state buffer once, peaking at about 1.97 MB; a
        # second copy of both parts in the DualMatrix constructor peaked at
        # 2.86 MB.
        chain = dumbbell_dtpm(DumbbellConfig())
        starts = np.random.default_rng(0).dirichlet(np.ones(chain.shape[0]), size=100).T
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            simulate(chain, starts, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_400_000

    @pytest.mark.parametrize("runs", [1, 100])
    def test_dual_parts_c_ordered(self, runs):
        # One run's side-by-side reshape is an F-ordered view of the state
        # buffer, and the fit multiplies a dual run's parts as they are.
        chain = dumbbell_dtpm(DumbbellConfig(far_weight=2, near_weight=2, bar=1))
        starts = np.full((chain.shape[0], runs), 1.0 / chain.shape[0])
        traj = simulate(chain, starts, 5)
        for part in (traj.s, traj.i):
            assert part.flags.c_contiguous and not part.flags.writeable

    def test_validates_the_chain_once(self, monkeypatch):
        calls = []
        check = markov.validate_dtpm
        monkeypatch.setattr(markov, "validate_dtpm", lambda p: calls.append(p) or check(p))
        p = dumbbell_dtpm(DumbbellConfig(far_weight=2, near_weight=2, bar=1))
        simulate(p, np.full((9, 50), 1.0 / 9), 3)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "starts",
        [
            np.array([[0.5, 0.5], [0.5, 0.6]]),
            np.array([[1.0, 1.1], [0.0, -0.1]]),
            np.array([[1.0, np.nan], [0.0, 0.5]]),
            np.full((3, 2), 1.0 / 3),
            np.empty((2, 0)),
            np.full((2, 1, 1), 0.5),
        ],
        ids=["bad-sum", "negative", "nan", "wrong-rows", "no-start", "3-d"],
    )
    def test_every_start_is_checked(self, starts):
        with pytest.raises(ValueError, match="probability vector|x1 must be"):
            simulate(np.eye(2), starts, 3)


class TestDeltaGamma:
    def test_identity_is_zero(self):
        for k in (1, 3, 5):
            assert delta_gamma(np.eye(5), k, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_k_equals_n_is_zero(self):
        rng = np.random.default_rng(11)
        m = random_tpm(rng, 6)
        assert delta_gamma(m, 6, 1.3) == pytest.approx(0.0, abs=1e-12)

    def test_benchmark_positive_at_five(self):
        m = dumbbell_tpm(DumbbellConfig(seed=0))
        assert delta_gamma(m, 5, 1.5) > 0.0

    def test_range_checks(self):
        m = np.eye(3)
        with pytest.raises(ValueError):
            delta_gamma(m, 0, 1.5)
        with pytest.raises(ValueError):
            delta_gamma(m, 4, 1.5)
        with pytest.raises(ValueError):
            delta_gamma(m, 2, 2.5)
        for bad in (True, "1.5", None):
            with pytest.raises(ValueError, match="^p_exp must be"):
                delta_gamma(m, 2, bad)


class TestSerialization:
    def test_matrix_dict_roundtrip(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((3, 4))
        d = matrix_to_dict(m)
        assert json.loads(json.dumps(d)) == d
        back = matrix_from_dict(d)
        assert np.array_equal(back, m)

    def test_csv_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((4, 3)) * 1e-7
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_csv_bytes_of_edge_values(self, tmp_path):
        # Signed zeros, a tiny normal, a subnormal and a value with 17
        # significant digits: the bytes are those of formatting each numpy
        # scalar, and reading them back gives the same bits.
        m = np.array([[0.0, -0.0, 1e-300], [5e-324, 1.0 / 3.0, -1.0 / 3.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in m)
        assert path.read_bytes() == expected.encode()
        assert read_matrix_csv(path).tobytes() == m.tobytes()
