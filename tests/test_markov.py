"""Transition matrices: EI, reversibility, the benchmark generator, serialization."""

import json
import math

import numpy as np
import pytest

from dualce import (
    DualMatrix,
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
    matrix_from_dict,
    matrix_to_dict,
    read_matrix_csv,
    write_matrix_csv,
)
from tests.conftest import (
    fd_check,
    inverse_is_dtpm,
    permutation_with_drift,
    random_dtpm,
    random_permutation_matrix,
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


class TestEffectiveInformation:
    def test_permutation_attains_log2_n(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 85):
            perm = random_permutation_matrix(rng, n)
            assert effective_information(perm) == pytest.approx(
                math.log2(n), abs=1e-12
            )

    def test_uniform_gives_zero(self):
        for n in (2, 7):
            u = np.full((n, n), 1.0 / n)
            assert effective_information(u) == pytest.approx(0.0, abs=1e-12)

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
        for _ in range(50):
            p = random_dtpm(rng, int(rng.integers(2, 8)))
            v = dual_effective_information(p)
            fd_check(v, fd_directional(effective_information, p.s, p.i))

    def test_uniform_is_flat(self):
        rng = np.random.default_rng(6)
        n = 6
        u = np.full((n, n), 1.0 / n)
        for _ in range(10):
            p_i = rng.standard_normal((n, n))
            p_i -= p_i.mean(axis=0, keepdims=True)
            v = dual_effective_information(DualMatrix(u, p_i))
            assert abs(v.s) <= 1e-12 and abs(v.i) <= 1e-12


def assert_reversible(p, expected):
    """is_dynamically_reversible gives `expected`, and so does its
    definition, inverse_is_dtpm."""
    __tracebackinfo__ = False
    assert is_dynamically_reversible(p) is expected
    assert inverse_is_dtpm(p) is expected


class TestReversibility:
    def test_permutations_with_zero_infinitesimal(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 9):
            perm = random_permutation_matrix(rng, n)
            assert_reversible(DualMatrix(perm, np.zeros((n, n))), True)

    def test_permutation_with_drift_is_not(self):
        rng = np.random.default_rng(8)
        perm = random_permutation_matrix(rng, 4)
        off = np.abs(rng.standard_normal((4, 4)))
        for scale in (1.0, 1e-6):
            p = permutation_with_drift(perm, scale * off)
            validate_dtpm(p)
            assert_reversible(p, False)

    def test_drift_just_above_tolerance(self):
        # 0.5e-9 off the cyclic permutation and -2e-9 on it: an admissible
        # drift whose inverse is within 1e-9 of a DTPM, but P_i != O.
        perm = np.roll(np.eye(5), 1, axis=0)
        p = permutation_with_drift(perm, np.full((5, 5), 0.5e-9))
        assert np.allclose(p.i[perm > 0.5], -2e-9, rtol=0, atol=1e-24)
        validate_dtpm(p)
        assert_reversible(p, False)

    def test_doubly_stochastic_non_permutation(self):
        p_s = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        assert_reversible(DualMatrix(p_s, np.zeros((3, 3))), False)

    def test_random_dtpms_are_not(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            assert_reversible(random_dtpm(rng, 5), False)

    def test_identity_is_reversible(self):
        assert_reversible(DualMatrix(np.eye(3), np.zeros((3, 3))), True)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            is_dynamically_reversible(
                DualMatrix(np.ones((2, 3)) / 2, np.zeros((2, 3)))
            )


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
        sizes = cfg.block_sizes
        offs = np.concatenate(([0], np.cumsum(sizes)))
        for bi in range(5):
            for bj in range(5):
                if abs(bi - bj) <= 1:
                    continue
                block = m[offs[bi] : offs[bi + 1], offs[bj] : offs[bj + 1]]
                assert np.all(block == 0.0), f"blocks {bi},{bj} must not couple"

    def test_within_block_density(self):
        cfg = DumbbellConfig(far_weight=3, near_weight=2, bar=1, seed=3)
        m = dumbbell_tpm(cfg)
        sizes = cfg.block_sizes
        offs = np.concatenate(([0], np.cumsum(sizes)))
        for b in range(5):
            blk = m[offs[b] : offs[b + 1], offs[b] : offs[b + 1]]
            assert np.all(blk > 0.0)

    def test_smallest_instance(self):
        m = dumbbell_tpm(DumbbellConfig(far_weight=1, near_weight=1, bar=1))
        assert m.shape == (5, 5)
        validate_tpm(m)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DumbbellConfig(far_weight=0)
        with pytest.raises(ValueError):
            DumbbellConfig(coupling_density=1.5)
        with pytest.raises(ValueError):
            DumbbellConfig(coupling_scale=0.0)
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

    @pytest.mark.parametrize(
        "field, value",
        [("coupling_density", "0.5"), ("coupling_density", None), ("coupling_density", True),
         ("coupling_density", math.nan), ("coupling_scale", "0.05"), ("coupling_scale", None),
         ("coupling_scale", True), ("coupling_scale", math.inf)],
    )
    def test_coupling_rejected(self, field, value):
        # A string or None would fail on the range comparison with a TypeError.
        with pytest.raises(ValueError, match=field):
            DumbbellConfig(**{field: value})

    def test_coupling_accepts_real_numbers(self):
        cfg = DumbbellConfig(coupling_density=1, coupling_scale=np.float64(0.5))
        assert (cfg.coupling_density, cfg.coupling_scale) == (1, 0.5)


class TestDumbbellDtpm:
    def test_valid_drift_toward_lumpable_chain(self):
        cfg = DumbbellConfig(seed=3)
        p = validate_dtpm(dumbbell_dtpm(cfg))
        assert np.array_equal(p.s, dumbbell_tpm(cfg))
        target = p.s + p.i
        validate_tpm(target)
        labels = np.repeat(np.arange(5), cfg.block_sizes)
        for block in range(5):
            cols = target[:, labels == block]
            # decoupled: no mass leaves the block; lumpable: equal columns
            assert np.all(cols[labels != block] == 0.0)
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
