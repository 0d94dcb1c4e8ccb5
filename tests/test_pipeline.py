"""Norm sweep, class-count detection, coarse-graining, artifacts, CLI."""

import dataclasses
import gc
import importlib.util
import inspect
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dualce
from dualce import (
    GROUP_TOL,
    RANK_TOL,
    DetectionResult,
    DualMatrix,
    FitOptions,
    PipelineConfig,
    SweepTable,
    WITH_INFINITESIMAL,
    WITHOUT_INFINITESIMAL,
    analyze,
    cdsvd,
    coarse_grain,
    decompose,
    delta_gamma,
    detect_k,
    dumbbell_dtpm,
    kmeans,
    ky_fan_norm,
    ky_fan_pk_norm,
    norm_sweep,
    run_pipeline,
    schatten_norm,
    validate_tpm,
)
from dualce import fitting, pipeline
from dualce.cli import main
from dualce.markov import STOCHASTIC_TOL, read_matrix_csv
from dualce.pipeline import (
    KMEANS_MAX_ITER,
    KMEANS_RETRIES,
    EmptyClusterError,
    StageError,
    random_initial_states,
)
from tests.conftest import (
    assert_bits_equal,
    matrix_with_sigmas,
    random_dtpm,
    random_permutation_matrix,
    reference_ky_fan,
)


@pytest.fixture(scope="module")
def fitted(tiny_config):
    return analyze(tiny_config)


class TestNormSweep:
    def test_permutation_rows(self):
        rng = np.random.default_rng(0)
        p = DualMatrix(random_permutation_matrix(rng, 6), np.zeros((6, 6)))
        table = norm_sweep(p, (1.0, 1.5))
        assert table.rank == 6
        for part in (table.standard, table.infinitesimal, table.delta_gamma):
            assert part.shape == (2, 6)
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 1.0
        ks = np.arange(1, 7)
        for q, standard, infinitesimal in zip(
            table.p_list, table.standard, table.infinitesimal
        ):
            assert infinitesimal == pytest.approx(np.zeros(6), abs=1e-12)
            assert standard == pytest.approx(ks ** (1.0 / q), abs=1e-10)

    def test_standard_part_structure(self):
        rng = np.random.default_rng(1)
        p = random_dtpm(rng, 7)
        table = norm_sweep(p, (1.3, 1.9))
        assert table.p_list == (1.3, 1.9)
        for q, vals, infinitesimal in zip(
            table.p_list, table.standard, table.infinitesimal
        ):
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            # k = rank specializes to the Schatten norm
            assert vals[-1] == pytest.approx(schatten_norm(p, q).s, abs=1e-9)
            # cross-check against the closed forms
            for k in range(1, table.rank + 1):
                expect = reference_ky_fan(p, k, q)
                assert vals[k - 1] == pytest.approx(expect.s, abs=1e-8)
                assert infinitesimal[k - 1] == pytest.approx(expect.i, abs=1e-8)

    def test_p_one_dispatch(self):
        rng = np.random.default_rng(2)
        p = random_dtpm(rng, 5)
        table = norm_sweep(p, (1.0,))
        for k in range(1, table.rank + 1):
            direct = reference_ky_fan(p, k, 1.0)
            assert table.standard[0, k - 1] == pytest.approx(direct.s, abs=1e-12)
            assert table.infinitesimal[0, k - 1] == pytest.approx(direct.i, abs=1e-12)

    def test_decomposes_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        p = random_dtpm(rng, 7)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        norm_sweep(p, (1.0, 1.3, 1.9))
        assert calls == [(7, 7)]

    def test_repeated_sigma_block_matches_direct_calls(self):
        # sigma_2 = sigma_3 = sigma_4 form one block; k runs through it
        rng = np.random.default_rng(8)
        p = matrix_with_sigmas(rng, 6, 6, [3.0, 2.0, 2.0, 2.0, 0.7, 0.3])
        table = norm_sweep(p, (1.0, 1.3, 1.9))
        assert table.rank == 6
        for j, q in enumerate(table.p_list):
            for k in range(1, 7):
                if q == 1.0:
                    direct = ky_fan_norm(p, k)
                else:
                    direct = ky_fan_pk_norm(p, k, q)
                assert table.standard[j, k - 1] == pytest.approx(direct.s, rel=1e-12)
                assert table.infinitesimal[j, k - 1] == pytest.approx(
                    direct.i, rel=1e-12, abs=1e-13
                )
                assert table.delta_gamma[j, k - 1] == pytest.approx(
                    delta_gamma(p.s, k, q), rel=1e-12, abs=1e-13
                )

    @pytest.mark.parametrize(
        "sigmas",
        [
            3.0 * 0.7 ** np.arange(12),
            [3.0, 2.2, 1.5, 1.5, 1.5, 1.5, 0.9, 0.6, 0.4, 0.25, 0.1, 0.05],
            [2.5, 1.9, 1.4, 0.9, 0.6, 0.3, 0.1],
        ],
        ids=["distinct", "repeated-block", "rank-deficient"],
    )
    def test_prefix_sums_match_per_entry_references(self, sigmas):
        # The sweep reads each p column from prefix sums; ky_fan_pk_norm
        # evaluates one (k, p) at a time from the same decomposition, and
        # delta_gamma from its own SVD of the standard part.  12 values take
        # numpy's pairwise summation off the sequential path, and the
        # rank-deficient case keeps the below-rank singular values in
        # delta_gamma's total.
        p = matrix_with_sigmas(np.random.default_rng(21), 12, 12, sigmas)
        d = decompose(p)
        assert d.rank == len(sigmas)
        p_list = (1.0, 1.3, 1.6, 1.9, 1.99)
        table = norm_sweep(d, p_list)
        assert table.p_list == p_list
        assert table.standard.shape == (len(p_list), d.rank)
        for j, q in enumerate(p_list):
            for k in range(1, d.rank + 1):
                ref = ky_fan_pk_norm(d, k, q)
                standard = table.standard[j, k - 1]
                infinitesimal = table.infinitesimal[j, k - 1]
                assert abs(standard - ref.s) <= 1e-12 * abs(ref.s)
                assert abs(infinitesimal - ref.i) <= 1e-12 * abs(ref.i)
                gamma = table.delta_gamma[j, k - 1]
                assert abs(gamma - delta_gamma(p.s, k, q)) <= 1e-14

    def test_input_validation(self):
        rng = np.random.default_rng(3)
        p = random_dtpm(rng, 4)
        with pytest.raises(ValueError):
            norm_sweep(p, ())
        with pytest.raises(ValueError):
            norm_sweep(p, (2.5,))
        for bad in ((1.3, 1.3), (True,), ("1.5",), (None,)):
            with pytest.raises(ValueError, match="p_list"):
                norm_sweep(p, bad)
        with pytest.raises(ValueError):
            norm_sweep(DualMatrix(np.zeros((3, 3)), np.eye(3)), (1.5,))
        for bad in (np.array(1.5), np.array([[1.3, 1.6]]), b"\x01", "1.5"):
            with pytest.raises(ValueError, match="^p_list must be a sequence, got "):
                norm_sweep(p, bad)

    def test_array_p_list_reads_as_its_entries(self):
        p = random_dtpm(np.random.default_rng(3), 4)
        table = norm_sweep(p, np.array([1.3, 1.6]))
        listed = norm_sweep(p, (1.3, 1.6))
        assert table.p_list == (1.3, 1.6)
        assert all(type(q) is float for q in table.p_list)
        assert_bits_equal(table.infinitesimal, listed.infinitesimal)
        assert_bits_equal(table.standard, listed.standard)


def make_table(per_p_infinitesimals, p_list):
    infinitesimal = np.array(per_p_infinitesimals, dtype=float)
    ks = np.arange(1.0, infinitesimal.shape[1] + 1)
    standard = np.broadcast_to(ks, infinitesimal.shape)
    gamma = np.zeros_like(infinitesimal)
    return SweepTable(tuple(p_list), standard, infinitesimal, gamma)


class TestDetectK:
    def test_engineered_peak(self):
        # diagonal dual matrix: infinitesimal sweep has a built-in running
        # maximum at k = 3 (positive increments through 3, negative after)
        p_s = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        p_i = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
        det = detect_k(norm_sweep(DualMatrix(p_s, p_i), (1.3, 1.6, 1.9)))
        assert det.k_star == 3
        assert det.unanimous
        assert not any(flag for _, _, flag in det.per_p)

    def test_dumbbell_drift_peak(self):
        # exact drifting dumbbell: the drift toward the five-class chain
        # raises the top five singular values and lowers the rest
        for seed in range(3):
            cfg = PipelineConfig(seed=seed)
            det = detect_k(norm_sweep(dumbbell_dtpm(cfg.dumbbell()), cfg.p_list))
            assert det.k_star == 5
            assert not any(flag for _, _, flag in det.per_p)

    def test_zero_infinitesimal_is_degenerate(self):
        rng = np.random.default_rng(5)
        p = DualMatrix(random_permutation_matrix(rng, 5), np.zeros((5, 5)))
        det = detect_k(norm_sweep(p, (1.3, 1.6)))
        assert det.k_star == 1
        assert all(flag for _, _, flag in det.per_p)

    def test_tie_breaks_to_smallest_k(self):
        table = make_table([[2.0, 2.0, 1.0]], [1.3])
        assert detect_k(table).k_star == 1

    def test_modal_vote(self):
        table = make_table(
            [[0, 1, 0], [0, 1, 0], [0, 0, 1]], [1.3, 1.6, 1.9]
        )
        det = detect_k(table)
        assert det.k_star == 2
        assert not det.unanimous

    def test_equal_votes_take_smallest(self):
        table = make_table([[0, 1], [1, 0]], [1.3, 1.6])
        assert detect_k(table).k_star == 1

    def test_record_derives_k_star_from_its_votes(self):
        # A built record reads k_star from per_p alone, so it cannot
        # disagree with its own votes.
        votes = DetectionResult(((1.3, 2, False), (1.6, 3, False), (1.9, 3, False)))
        assert votes.k_star == 3
        assert DetectionResult(((1.3, 2, False), (1.6, 3, False))).k_star == 2

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        p = random_dtpm(rng, 6)
        base = detect_k(norm_sweep(p, (1.3, 1.6, 1.9)))
        for c in (1e-3, 7.0, 1e4):
            scaled = detect_k(norm_sweep(DualMatrix(p.s, c * p.i), (1.3, 1.6, 1.9)))
            assert scaled.k_star == base.k_star
            assert [k for _, k, _ in scaled.per_p] == [
                k for _, k, _ in base.per_p
            ]


class TestKmeans:
    def test_two_separated_clusters(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        labels = kmeans(pts, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_identical_points_single_cluster(self):
        pts = np.ones((5, 3))
        assert set(kmeans(pts, 1, seed=1)) == {0}

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((30, 4))
        a = kmeans(pts, 3, seed=9)
        b = kmeans(pts, 3, seed=9)
        assert np.array_equal(a, b)

    def test_k_larger_than_points(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((2, 2)), 3, seed=0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        # max_iter < 1 runs no Lloyd step, so no point would get a label
        pts = np.array([[0.0], [1.0], [5.0]])
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            kmeans(pts, 2, 0, max_iter=max_iter)

    def test_memory_is_linear_in_k(self):
        # coarse_grain clusters n points of dimension 2k.  At n = 85 and
        # k = 76 an n x k x 2k distance broadcast alone is 7.9 MB.
        pts = np.random.default_rng(30).standard_normal((85, 152))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kmeans(pts, 76, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("k", [1, 5, 36, 76])
    @pytest.mark.parametrize("layout", ["scattered", "grid"])
    def test_labels_match_broadcast_reference(self, k, layout):
        # 85 points of dimension 2k, as coarse_grain passes them.  Scattered:
        # the last five repeat earlier points.  Grid: coordinates in
        # {0, 0.1, 0.2}, so many distances tie in exact arithmetic and the
        # labels depend on how each sum rounds (the expanded form
        # |x|^2 - 2 x.c + |c|^2 moves labels here).
        rng = np.random.default_rng(31 + k)
        if layout == "grid":
            pts = rng.integers(0, 3, size=(85, 2 * k)) * 0.1
        else:
            pts = rng.standard_normal((85, 2 * k))
            pts[80:] = pts[:5]
        outcomes = []
        for fn in (kmeans, broadcast_kmeans):
            for seed in range(3):
                try:
                    outcomes.append(fn(pts, k, seed).tolist())
                except EmptyClusterError:
                    outcomes.append(None)
        assert outcomes[:3] == outcomes[3:]
        assert any(labels is not None for labels in outcomes)


def broadcast_kmeans(points, k, seed, max_iter=300):
    """kmeans with its distances from one n x k x dim broadcast, the form
    the per-center distance table must reproduce bit for bit."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[c]) ** 2, axis=1))
    labels = np.full(n, -1)
    for _ in range(max_iter):
        dist = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = pts[labels == c]
            if members.shape[0] == 0:
                raise EmptyClusterError(f"cluster {c} lost all members")
            centers[c] = members.mean(axis=0)
    return labels


class TestCoarseGrain:
    def test_block_diagonal_recovery(self):
        rng = np.random.default_rng(8)
        blocks = []
        for _ in range(2):
            b = rng.uniform(0.5, 1.0, size=(3, 3))
            blocks.append(b / b.sum(axis=0, keepdims=True))
        p_s = np.zeros((6, 6))
        p_s[:3, :3] = blocks[0]
        p_s[3:, 3:] = blocks[1]
        cg = coarse_grain(DualMatrix(p_s, np.zeros((6, 6))), 2, seed=0)
        labels = cg.labels
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]
        validate_tpm(cg.upsilon)
        # no cross-block mass at all
        assert cg.upsilon == pytest.approx(np.eye(2))

    def test_k_one(self):
        rng = np.random.default_rng(9)
        cg = coarse_grain(random_dtpm(rng, 5), 1, seed=0)
        assert cg.upsilon == pytest.approx(np.ones((1, 1)))
        assert np.array_equal(cg.labels, np.zeros(5, dtype=int))

    def test_methods_agree_when_infinitesimal_is_zero(self):
        rng = np.random.default_rng(10)
        p = DualMatrix(random_dtpm(rng, 8).s, np.zeros((8, 8)))
        a = coarse_grain(p, 3, method=WITH_INFINITESIMAL, seed=5)
        b = coarse_grain(p, 3, method=WITHOUT_INFINITESIMAL, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_phi_rows_one_hot_and_upsilon_stochastic(self):
        rng = np.random.default_rng(11)
        p = random_dtpm(rng, 7)
        cg = coarse_grain(p, 3, seed=2)
        assert sorted(set(cg.labels)) == [0, 1, 2]
        # Phi, one one-hot row per state, is rebuilt from the labels.
        phi = np.eye(3)[cg.labels]
        raw = phi.T @ p.s @ phi
        assert np.array_equal(cg.upsilon, raw / raw.sum(axis=0, keepdims=True))
        validate_tpm(cg.upsilon)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(12)
        p = random_dtpm(rng, 4)
        with pytest.raises(ValueError):
            coarse_grain(p, 0)
        with pytest.raises(ValueError):
            coarse_grain(p, 5)

    def test_unknown_method(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            coarse_grain(random_dtpm(rng, 4), 2, method="sideways")

    def test_rejects_counts_that_cannot_work(self):
        # both fail before the decomposition, naming the parameter; with
        # max_iter = 0 no point gets a label, and retries = -1 runs no k-means
        p = random_dtpm(np.random.default_rng(14), 4)
        with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
            coarse_grain(p, 2, max_iter=0)
        with pytest.raises(ValueError, match="retries must be >= 0, got -1"):
            coarse_grain(p, 2, retries=-1)

    @staticmethod
    def _failing_kmeans(monkeypatch, failures):
        """Patch pipeline.kmeans to raise EmptyClusterError on its first
        failures calls; return the seeds it is called with and the errors
        it raised."""
        seeds, errors = [], []

        def flaky(points, k, seed, max_iter=300):
            seeds.append(seed)
            if len(seeds) <= failures:
                errors.append(EmptyClusterError(f"empty at seed {seed}"))
                raise errors[-1]
            return kmeans(points, k, seed, max_iter=max_iter)

        monkeypatch.setattr(pipeline, "kmeans", flaky)
        return seeds, errors

    @pytest.mark.parametrize("failures", [0, 1, 3])
    def test_retries_with_the_next_seeds(self, monkeypatch, failures):
        p = random_dtpm(np.random.default_rng(15), 6)
        seeds, _ = self._failing_kmeans(monkeypatch, failures)
        cg = coarse_grain(p, 2, seed=7, retries=3)
        assert seeds == list(range(7, 7 + failures + 1))
        assert cg.kmeans_seed == 7 + failures

    def test_every_attempt_failing_raises_from_the_last(self, monkeypatch):
        p = random_dtpm(np.random.default_rng(15), 6)
        seeds, errors = self._failing_kmeans(monkeypatch, 10)
        with pytest.raises(RuntimeError, match="in 3 attempts") as info:
            coarse_grain(p, 2, seed=4, retries=2)
        assert seeds == [4, 5, 6]
        assert info.value.__cause__ is errors[-1]

    def test_zero_retries_tries_once(self, monkeypatch):
        p = random_dtpm(np.random.default_rng(15), 6)
        seeds, errors = self._failing_kmeans(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="in 1 attempts") as info:
            coarse_grain(p, 2, seed=9, retries=0)
        assert seeds == [9]
        assert info.value.__cause__ is errors[0]


class TestProjectionReference:
    """coarse_grain clusters the columns of the dual projection U_k^T P, and
    hands k-means the same doubles as the hand-written product rule it
    replaced: the default fit, and the ensemble fit of seed 8, whose k*
    (76 at one BLAS thread) loads nearly every singular vector."""

    @pytest.mark.parametrize(
        "cfg", [PipelineConfig(), PipelineConfig(trajectories=100, t=5, seed=8)],
        ids=["default", "ensemble-seed8"],
    )
    def test_clustered_points_are_the_reference_projection(self, monkeypatch, cfg):
        result = analyze(cfg, "detect")
        d = decompose(result.p, GROUP_TOL)
        k = result.detection.k_star
        u = cdsvd(d).U
        u_s, u_i, p = u.s[:, :k], u.i[:, :k], d.matrix
        top = u_s.T @ p.s
        expected = {
            WITH_INFINITESIMAL: np.vstack([top, u_s.T @ p.i + u_i.T @ p.s]),
            WITHOUT_INFINITESIMAL: np.vstack([top, np.zeros_like(top)]),
        }
        captured = []

        def recording(points, *args, **kwargs):
            captured.append(np.array(points))
            return kmeans(points, *args, **kwargs)

        monkeypatch.setattr(pipeline, "kmeans", recording)
        for method, reference in expected.items():
            captured.clear()
            coarse_grain(d, k, method=method, seed=cfg.child_seeds()["kmeans"])
            assert_bits_equal(captured[0], reference.T)


class TestConfig:
    def test_child_seeds_are_distinct_and_stable(self):
        cfg = PipelineConfig(seed=3)
        seeds = cfg.child_seeds()
        assert set(seeds) == {"topology", "x1", "kmeans"}
        assert len(set(seeds.values())) == 3
        assert seeds == PipelineConfig(seed=3).child_seeds()
        assert seeds != PipelineConfig(seed=4).child_seeds()

    def test_dict_roundtrip(self):
        cfg = PipelineConfig(seed=5, p_list=(1.2, 1.7), t=100)
        back = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"speed": 11})

    def test_removed_zero_threshold_rejected(self):
        # The P_i sign mask is P_s's exact zero support; no threshold is read.
        with pytest.raises(ValueError, match="unknown config keys: \\['zero_threshold'\\]"):
            PipelineConfig.from_dict({"zero_threshold": 1e-13})

    @pytest.mark.parametrize(
        "p_list", [(), (2.5,), (1.3, 0.5), (float("nan"),), (1.3, 1.3)]
    )
    def test_bad_p_list_rejected(self, p_list):
        with pytest.raises(ValueError):
            PipelineConfig(p_list=p_list)

    def test_fit_defaults_are_fit_options_defaults(self):
        assert PipelineConfig().fit_options() == FitOptions()

    def test_kmeans_defaults_are_coarse_grain_defaults(self):
        # stages calls coarse_grain with its defaults, so every run clusters
        # with the module constants.
        coarse = inspect.signature(coarse_grain).parameters
        assert coarse["max_iter"].default == KMEANS_MAX_ITER
        assert coarse["retries"].default == KMEANS_RETRIES
        assert inspect.signature(kmeans).parameters["max_iter"].default == KMEANS_MAX_ITER
        assert coarse["group_tol"].default == GROUP_TOL

    # The keys that became constants, each with the value every run used.
    REMOVED_KEYS = {
        "coupling_density": 0.1, "coupling_scale": 0.05, "group_tol": 1e-8,
        "kmeans_max_iter": 300, "kmeans_retries": 5, "fit_tol": 1e-10,
        "fit_max_iter": 20000,
    }

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_rejected(self, key):
        # Refused even at its old default, so a stale config cannot pass.
        entry = {key: self.REMOVED_KEYS[key]}
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            PipelineConfig.from_dict(entry)
        with pytest.raises(TypeError, match=key):
            PipelineConfig(**entry)

    def test_fields_are_the_settable_keys(self):
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "far_weight", "near_weight", "bar", "t", "p_list", "seed",
            "drift", "trajectories",
        ]

    def test_array_p_list_stored_as_float_tuple(self):
        cfg = PipelineConfig(p_list=np.array([1.3, 1.6]))
        assert cfg == PipelineConfig(p_list=(1.3, 1.6))
        assert all(type(q) is float for q in cfg.p_list)
        assert cfg.to_dict()["p_list"] == [1.3, 1.6]

    @pytest.mark.parametrize(
        "p_list", [np.array(1.3), np.array([[1.3, 1.6]]), b"\x01"],
        ids=["0-d", "2-d", "bytes"],
    )
    def test_non_list_p_list_rejected(self, p_list):
        with pytest.raises(ValueError, match="^config key 'p_list' must be a sequence, got "):
            PipelineConfig(p_list=p_list)

    def test_string_p_list_rejected(self):
        # A str is a Sequence, so each character would be read as an entry.
        with pytest.raises(
            ValueError, match="^config key 'p_list' must be a sequence, got '1.3,1.6'$"
        ):
            PipelineConfig.from_dict({"p_list": "1.3,1.6"})

    @pytest.mark.parametrize(
        "entry",
        [{"t": "5"}, {"drift": "yes"}, {"seed": 1.5}, {"trajectories": True},
         {"far_weight": "2"}, {"p_list": [1.3, "1.6"]}, {"p_list": 1.3}],
    )
    def test_mistyped_values_rejected(self, entry):
        with pytest.raises(ValueError, match=next(iter(entry))):
            PipelineConfig.from_dict(entry)

    @pytest.mark.parametrize(
        "entry", [{"drift": "no"}, {"t": 5.5}, {"seed": 1.5}, {"p_list": [1.3, "1.6"]}],
    )
    def test_mistyped_values_rejected_at_construction(self, entry):
        with pytest.raises(ValueError, match=f"config key '{next(iter(entry))}'"):
            PipelineConfig(**entry)

    def test_plain_values_stored(self):
        cfg = PipelineConfig(
            p_list=[np.float32(1.5)], seed=np.int64(3), drift=np.bool_(True), t=np.int64(5),
        )
        plain = PipelineConfig(p_list=(1.5,), seed=3, drift=True, t=5)
        assert cfg == plain and hash(cfg) == hash(plain)
        assert type(cfg.seed) is int and type(cfg.p_list[0]) is float
        assert type(cfg.drift) is bool and type(cfg.t) is int
        # An int p_list entry is stored as a float, so equal configs write
        # the same config echo.
        as_int, as_float = PipelineConfig(p_list=[1]), PipelineConfig(p_list=[1.0])
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert json.dumps(as_int.to_dict()) == json.dumps(as_float.to_dict())

    # The interval each numeric key is refused with, its owner's.
    SPANS = {
        "t": ">= 1", "trajectories": ">= 1", "seed": ">= 0",
        "far_weight": ">= 1", "near_weight": ">= 1", "bar": ">= 1",
    }

    @pytest.mark.parametrize(
        "entry",
        [{"t": 0}, {"trajectories": -1}, {"t": -1},
         {"near_weight": 0}, {"bar": 0}, {"near_weight": -1},
         {"far_weight": -1}, {"seed": np.int64(-1)},
         {"t": -(10**400)}, {"far_weight": 0},
         {"trajectories": 0}, {"trajectories": np.int64(0)},
         {"seed": -(10**400)}, {"seed": -1},
         {"far_weight": np.int8(-128)}, {"bar": -1}],
    )
    def test_out_of_range_values_rejected(self, entry):
        key = next(iter(entry))
        span = self.SPANS[key]
        with pytest.raises(ValueError, match=f"config key '{key}' must be {span}, got"):
            PipelineConfig(**entry)

    def test_range_edges_accepted(self):
        cfg = PipelineConfig(
            t=1, trajectories=1, seed=0, far_weight=1, near_weight=1, bar=1,
            p_list=[1.0],
        )
        assert (cfg.t, cfg.far_weight, cfg.p_list) == (1, 1, (1.0,))

    def test_int_stands_for_float(self):
        p_list = PipelineConfig.from_dict({"p_list": [1]}).p_list
        assert p_list == (1.0,) and type(p_list[0]) is float

    def test_random_initial_state(self):
        starts = random_initial_states(20, seed=4, count=2)
        assert starts.shape == (20, 2)
        x, y = starts.T
        assert x.sum() == pytest.approx(1.0)
        assert np.min(x) >= 0.0
        # more starts extend the stream: the first is the one-start draw
        one = random_initial_states(20, seed=4, count=1)
        assert one.shape == (20, 1)
        assert np.array_equal(x, one[:, 0])
        assert not np.array_equal(x, y)
        with pytest.raises(ValueError):
            random_initial_states(20, seed=4, count=0)

    def test_initial_states_are_successive_draws(self):
        # One (count, n) draw is the stream of count draws of n, and each
        # normalisation is the one-vector one, bit for bit.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            draws = [rng.uniform(0.0, 1.0, size=85) for _ in range(7)]
            expected = np.column_stack([x / x.sum() for x in draws])
            got = random_initial_states(85, seed=seed, count=7)
            assert got.tobytes() == expected.tobytes()


def held_at_fit(monkeypatch, run) -> list:
    """For each fit_dtpm call during run(), whether the simulated runs were
    still referenced when it started."""
    alive = []
    simulate, fit_dtpm = pipeline.simulate, pipeline.fit_dtpm

    def recording_simulate(*args):
        traj = simulate(*args)
        alive.append(weakref.ref(traj))
        return traj

    def checking_fit(*args):
        gc.collect()
        alive.append(alive[0]() is not None)
        return fit_dtpm(*args)

    monkeypatch.setattr(pipeline, "simulate", recording_simulate)
    monkeypatch.setattr(pipeline, "fit_dtpm", checking_fit)
    run()
    return alive[1:]


class TestAnalyze:
    def test_tiny_run_completes(self, fitted, tiny_config):
        res = fitted
        n = 2 * (2 + 2) + 1
        assert res.chain.shape == (n, n)
        assert res.p.shape == (n, n)
        # the fitted matrix is held once, by the report
        assert res.p is res.report.p
        shape = (len(tiny_config.p_list), res.sweep.rank)
        sweep = res.sweep
        assert sweep.infinitesimal.shape == sweep.delta_gamma.shape == shape
        assert 1 <= res.detection.k_star <= res.sweep.rank
        assert set(res.coarse) == {WITH_INFINITESIMAL, WITHOUT_INFINITESIMAL}
        assert res.ei_micro >= 0.0

    def test_outputs_held_once_by_stage_name(self, fitted, tiny_config):
        # Every stage but simulate, in stage order, and each property reads
        # its own stage's output.
        stage_names = [name for name, _ in pipeline.stages(tiny_config)]
        assert list(pipeline.WRITERS) == stage_names
        assert list(fitted.outputs) == [n for n in stage_names if n != "simulate"]
        out = fitted.outputs
        assert fitted.chain is out["generate"]
        assert fitted.report is out["fit"] and fitted.p is fitted.report.p
        assert fitted.sweep is out["sweep"]
        assert fitted.detection is out["detect"]
        coarse, ei_micro, ei_macro = out["coarse-grain"]
        assert fitted.coarse is coarse and fitted.ei_macro is ei_macro
        assert fitted.ei_micro is ei_micro

    def test_records_compare_and_hash(self, fitted):
        # Each record holds arrays, which dataclass == compared elementwise,
        # so == raised and so did hash.  They compare by identity, and
        # FitReport compares its fields, its FitStage records among them.
        report = fitted.report
        for record in (fitted, decompose(fitted.p), report.standard,
                       report.infinitesimal, *fitted.coarse.values()):
            twin = dataclasses.replace(record)
            assert record == record and not record != record
            assert record != twin and not record == twin
            assert len({record, twin, record}) == 2
        twin = dataclasses.replace(report)
        assert report == twin and hash(report) == hash(twin)
        restaged = dataclasses.replace(report, standard=dataclasses.replace(report.standard))
        assert report != restaged

    def test_decomposes_once_after_the_fit(self, tiny_config, monkeypatch):
        # the sweep and both coarse-grainings share one SVD of the fitted P
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        for name, out in pipeline.stages(tiny_config):
            if name == "fit":
                n = out.p.shape[0]
                monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert calls == [(n, n)]

    def test_trajectories_dropped_before_the_fit(self, tiny_config, monkeypatch):
        # Nothing after build_snapshots reads the simulated runs, so neither
        # stages nor analyze keeps them through the fit.
        assert held_at_fit(monkeypatch, lambda: analyze(tiny_config)) == [False]

    def test_drift_is_recovered(self, tiny_config):
        cfg = PipelineConfig.from_dict(
            {**tiny_config.to_dict(), "drift": True, "trajectories": 20, "t": 5}
        )
        res = analyze(cfg)
        exact = dumbbell_dtpm(cfg.dumbbell())
        # the result holds the generated DTPM, both parts
        assert np.array_equal(res.chain.s, exact.s)
        assert np.array_equal(res.chain.i, exact.i)
        assert np.linalg.norm(res.p.s - exact.s) <= 1e-3
        assert np.linalg.norm(res.p.i - exact.i) <= 1e-3 * np.linalg.norm(exact.i)

    def test_fit_runs_and_holds_the_first_stages(self, tiny_config, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sweep ran")

        monkeypatch.setattr(pipeline, "norm_sweep", broken)
        res = analyze(tiny_config, "fit")
        assert list(res.outputs) == ["generate", "fit"]
        assert res.p is res.report.p

    def test_simulate_last_holds_the_trajectories(self, tiny_config):
        res = analyze(tiny_config, "simulate")
        assert list(res.outputs) == ["generate", "simulate"]
        # one run of t steps: t + 2 columns
        n = res.chain.shape[0]
        assert res.outputs["simulate"].shape == (n, tiny_config.t + 2)

    def test_unknown_last_stage_runs_nothing(self, tiny_config, monkeypatch):
        def broken(cfg):
            raise AssertionError("generate ran")

        monkeypatch.setattr(pipeline, "dumbbell_tpm", broken)
        with pytest.raises(ValueError, match="'sweeep'"):
            analyze(tiny_config, "sweeep")

    def test_stage_attribution(self, monkeypatch):
        def broken(cfg):
            raise ValueError("no chain today")

        monkeypatch.setattr(pipeline, "dumbbell_tpm", broken)
        with pytest.raises(StageError, match="generate"):
            analyze(PipelineConfig(far_weight=2, near_weight=2, bar=1))


def test_non_square_matrix_rejected():
    # The vague-emergence degree is defined for an n x n TPM.  A 5 x 3 input
    # let delta_gamma's k <= 5 check slice past the 3 singular values,
    # norm_sweep divided by the row count (so a matrix and its transpose
    # disagreed), and coarse_grain failed on an index shape mismatch.
    rng = np.random.default_rng(0)
    wide = DualMatrix(rng.random((3, 5)), rng.random((3, 5)))
    with pytest.raises(ValueError, match=r"square matrix, got shape \(5, 3\)"):
        delta_gamma(rng.random((5, 3)), 5, 1.5)
    for p in (wide, wide.T, decompose(wide), decompose(wide.T)):
        with pytest.raises(ValueError, match="norm_sweep needs a square matrix"):
            norm_sweep(p, (1.0, 1.5))
        with pytest.raises(ValueError, match="coarse_grain needs a square matrix"):
            coarse_grain(p, 2)


class TestArtifacts:
    def test_file_set_and_shapes(self, tiny_config, tmp_path):
        manifest = run_pipeline(tiny_config, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "generator.csv",
            "p_standard.csv",
            "p_infinitesimal.csv",
            "sweep.csv",
            "detection.json",
            "coarse.json",
            "fit.json",
            "manifest.json",
        }
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "k,p,standard,infinitesimal,delta_gamma"
        rank_rows = len(lines) - 1
        assert rank_rows % len(tiny_config.p_list) == 0
        detection = json.loads((tmp_path / "detection.json").read_text())
        assert {"k_star", "per_p", "unanimous"} <= set(detection)
        # the manifest holds only what no other artifact does
        assert set(manifest) == {"config", "child_seeds", "tolerances", "versions"}
        assert manifest["tolerances"] == {
            "group_tol": GROUP_TOL, "rank_tol": RANK_TOL, "stochastic_tol": STOCHASTIC_TOL,
        }
        assert manifest["config"]["seed"] == tiny_config.seed
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest

    @pytest.fixture(scope="class")
    def default_run(self, tmp_path_factory):
        """The default config's analysis and the directory of its artifacts."""
        out = tmp_path_factory.mktemp("default")
        result = analyze(PipelineConfig())
        pipeline.write_artifacts(result, out)
        return result, out

    def test_json_artifacts_are_strict_json(self, default_run, tiny_config, tmp_path):
        """The default run's Gram is singular, so fit.json reports its
        condition estimate, and no file may hold Infinity or NaN; nor may
        the fit.json of a fit capped short of convergence."""

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        _, out = default_run
        paths = sorted(out.glob("*.json"))
        assert len(paths) == 4
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)
        assert json.loads((out / "fit.json").read_text())["condition_estimate"] is None

        runs = analyze(tiny_config, "simulate").outputs["simulate"]
        capped = fitting.fit_dtpm(fitting.build_snapshots(runs), FitOptions(max_iter=3))
        pipeline.WRITERS["fit"](tmp_path, capped)
        fit = json.loads((tmp_path / "fit.json").read_text(), parse_constant=reject)
        assert fit["converged"] == [False, False]
        assert np.isfinite(fit["kkt_residual"] + fit["gradient_norm"]).all()

    def test_fit_and_detection_json_read_their_records(self, default_run):
        """fit.json pairs each diagnostic of the two FitStage records as
        [standard, infinitesimal]; detection.json's unanimous is read off
        per_p."""
        result, out = default_run
        fit = json.loads((out / "fit.json").read_text())
        assert set(fit) == {
            "objective_s", "objective_i", "iterations", "converged",
            "kkt_residual", "gradient_norm", "condition_estimate", "ill_conditioned",
        }
        stages = (result.report.standard, result.report.infinitesimal)
        assert [fit["objective_s"], fit["objective_i"]] == [st.objective for st in stages]
        for key in ("iterations", "converged", "kkt_residual", "gradient_norm"):
            assert fit[key] == [getattr(st, key) for st in stages]
        cond = result.report.condition_estimate
        assert fit["ill_conditioned"] is (cond > fitting.ILL_CONDITION_LIMIT)
        detection = json.loads((out / "detection.json").read_text())
        votes = {entry["k"] for entry in detection["per_p"]}
        assert detection["unanimous"] is (len(votes) == 1)
        assert detection["unanimous"] is result.detection.unanimous

    def test_byte_identical_across_runs(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(tiny_config, a)
        run_pipeline(tiny_config, b)
        for path in sorted(a.iterdir()):
            twin = b / path.name
            assert path.read_bytes() == twin.read_bytes(), path.name


# The files each subcommand writes, and those it adds when the chain drifts.
# `pipeline` writes the files of every stage but simulate, and manifest.json.
SUBCOMMAND_FILES = {
    "generate": ({"generator.csv"}, {"generator_drift.csv"}),
    "simulate": ({"trajectory.csv"}, {"trajectory_infinitesimal.csv"}),
    "fit": ({"p_standard.csv", "p_infinitesimal.csv", "fit.json"}, set()),
    "sweep": ({"sweep.csv"}, set()),
    "detect": ({"detection.json"}, set()),
    "coarse-grain": ({"coarse.json"}, set()),
}
_STAGE_FILES = [files for sub, files in SUBCOMMAND_FILES.items() if sub != "simulate"]
SUBCOMMAND_FILES["pipeline"] = (
    set().union(*(files for files, _ in _STAGE_FILES)) | {"manifest.json"},
    set().union(*(drift for _, drift in _STAGE_FILES)),
)


@pytest.fixture(scope="class")
def pipeline_run(tmp_path_factory):
    """(config file, `dualce pipeline` output) per drift, run once."""
    runs = {}

    def run(drift):
        if drift not in runs:
            root = tmp_path_factory.mktemp("pipeline")
            entry = {"far_weight": 2, "near_weight": 2, "bar": 1, "t": 50}
            if drift:
                entry.update(t=5, drift=True, trajectories=3)
            cfg = root / "cfg.json"
            cfg.write_text(json.dumps(entry))
            assert main(["pipeline", "--config", str(cfg),
                         "--out", str(root / "all")]) == 0
            runs[drift] = cfg, root / "all"
        return runs[drift]

    return run


class TestCli:
    def config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"far_weight": 2, "near_weight": 2, "bar": 1, "t": 50})
        )
        return path

    def test_pipeline_subcommand(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        code = main(
            ["pipeline", "--config", str(cfg), "--seed", "7",
             "--out", str(tmp_path / "run")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "k_star=" in out
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_detect_subcommand(self, tmp_path, capsys):
        # p is set only by the config file.
        cfg = self.config_file(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "p_list": [1.3, 1.6]}))
        code = main(
            ["detect", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "d")]
        )
        assert code == 0
        detection = json.loads((tmp_path / "d" / "detection.json").read_text())
        assert {rec["p"] for rec in detection["per_p"]} == {1.3, 1.6}

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code = main(["pipeline", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "bad configuration" in capsys.readouterr().err

    def test_config_array_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"seed": 1}]))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        # --out under a regular file cannot be made a directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["generate", "--config", str(self.config_file(tmp_path)),
                     "--out", str(blocker / "run")])
        assert code == 1
        assert "error in generate" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"warp": 9}))
        assert main(["detect", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_cli_run_is_deterministic(self, tmp_path):
        cfg = self.config_file(tmp_path)
        for sub in ("x", "y"):
            assert main(["pipeline", "--config", str(cfg),
                         "--out", str(tmp_path / sub)]) == 0
        for path in sorted((tmp_path / "x").iterdir()):
            assert path.read_bytes() == (tmp_path / "y" / path.name).read_bytes()

    @pytest.mark.parametrize("drift", [False, True], ids=["real", "drift"])
    def test_matrix_csv_reads_back_the_analyzed_bits(self, pipeline_run, drift):
        # Every matrix file reads back with the bits analyze holds for the
        # same config, so the csv text keeps all 17 significant digits.
        cfg, everything = pipeline_run(drift)
        result = analyze(PipelineConfig.from_dict(json.loads(cfg.read_text())))
        chain, p = result.chain, result.p
        expected = {"p_standard": p.s, "p_infinitesimal": p.i}
        if drift:
            expected.update(generator=chain.s, generator_drift=chain.i)
        else:
            expected.update(generator=chain)
        written = {path.stem for path in everything.glob("*.csv")}
        assert written == {*expected, "sweep"}
        for stem, matrix in expected.items():
            assert_bits_equal(read_matrix_csv(everything / f"{stem}.csv"), matrix)

    @pytest.mark.parametrize(
        "sub, drift",
        [
            pytest.param(sub, drift, id=f"{sub}-csv" + "-drift" * drift)
            for drift in (False, True)
            for sub in SUBCOMMAND_FILES
        ],
    )
    def test_subcommand_files_match_pipeline(
        self, tmp_path, capsys, pipeline_run, sub, drift
    ):
        # each subcommand writes exactly its stage's files, names them in
        # one line, and a file it shares with `pipeline` holds the same bytes
        cfg, everything = pipeline_run(drift)
        capsys.readouterr()
        out = tmp_path / "one"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
        files, drift_files = SUBCOMMAND_FILES[sub]
        expected = files | drift_files if drift else files
        written = {path.name for path in out.iterdir()}
        assert written == expected
        line = capsys.readouterr().out
        assert line.count("\n") == 1 and all(name in line for name in written)
        assert ("k_star=" in line) == (sub in ("detect", "coarse-grain", "pipeline"))
        for name in written & {path.name for path in everything.iterdir()}:
            assert (out / name).read_bytes() == (everything / name).read_bytes(), name
        if sub == "simulate":
            # 9 states; the runs sit side by side, t + 2 columns each
            shape = (9, 3 * 7) if drift else (9, 52)
            for name in written:
                assert np.loadtxt(out / name, delimiter=",").shape == shape

    def test_failed_stage_is_named_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("no fit today")

        monkeypatch.setattr(pipeline, "fit_dtpm", broken)
        out = tmp_path / "f"
        code = main(["fit", "--config", str(self.config_file(tmp_path)),
                     "--out", str(out)])
        assert code == 1
        assert "stage 'fit' failed: no fit today" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["fit", "sweep"])
    def test_trajectories_dropped_before_the_fit(self, tmp_path, monkeypatch, sub):
        # A subcommand holds no trajectories past its own stage, so the
        # simulated runs are gone once the snapshots are built.
        argv = [sub, "--config", str(self.config_file(tmp_path)),
                "--out", str(tmp_path / "out")]
        assert held_at_fit(monkeypatch, lambda: main(argv)) == [False]

    def test_subcommand_runs_no_later_stage(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sweep ran")

        monkeypatch.setattr(pipeline, "norm_sweep", broken)
        assert main(["fit", "--config", str(self.config_file(tmp_path)),
                     "--out", str(tmp_path / "f")]) == 0

    def removed_flag_exits_two(self, tmp_path, capsys, flag, value):
        # Only --seed, --config and --out are left; argparse refuses the rest.
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exit_info:
            main(["detect", "--config", str(self.config_file(tmp_path)),
                  flag, value, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_group_tol_fails(self, tmp_path, capsys):
        # The grouping tolerance is svd.GROUP_TOL, which no flag sets.
        self.removed_flag_exits_two(tmp_path, capsys, "--group-tol", "nan")

    def test_p_list_flag_exits_two(self, tmp_path, capsys):
        # p is set by the config file's p_list alone.
        self.removed_flag_exits_two(tmp_path, capsys, "--p-list", "1.3,1.6")

    @pytest.mark.parametrize("key", sorted(TestConfig.REMOVED_KEYS))
    def test_removed_key_exits_two(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"far_weight": 2, key: TestConfig.REMOVED_KEYS[key]}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", list(SUBCOMMAND_FILES))
    def test_help_lists_only_the_three_flags(self, capsys, sub):
        with pytest.raises(SystemExit) as exit_info:
            main([sub, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--seed", "--config", "--out"}

    @pytest.mark.parametrize(
        "sub",
        ["generate", "simulate", "fit", "sweep", "detect", "coarse-grain", "pipeline"],
    )
    @pytest.mark.parametrize(
        "entry, flags",
        [({}, ["--seed", "-1"]), ({"t": "5"}, []), ({"drift": "yes"}, []),
         ({"t": -3}, []), ({"trajectories": 0}, []), ({"fit_tol": -1}, []),
         ({"fit_max_iter": 0}, []), ({"fit_tol": float("nan")}, []),
         ({"near_weight": 0}, []), ({"fit_tol": float("inf")}, []),
         ({"p_list": [2.5]}, []), ({"fit_tol": 10**400}, []),
         ({"zero_threshold": 1e-13}, []), ({"seed": -1}, []),
         ({"p_list": [1.3, 1.3]}, [])],
    )
    def test_bad_configuration_exits_two(self, tmp_path, capsys, sub, entry, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"far_weight": 2, "bar": 1, **entry}))
        out = tmp_path / "out"
        assert main([sub, "--config", str(path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "bad configuration" in err
        # the message names the offending key
        assert all(key in err for key in entry)
        assert not out.exists()


def test_benchmark_tracer_names_exist():
    # perfbench/spans.py wraps these names where their callers look them up;
    # a name dropped from a module breaks a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.trace_points(dualce)
        if not hasattr(module, attr)
    ]
    assert not missing
