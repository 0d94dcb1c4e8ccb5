"""End-to-end acceptance checks, one test per headline guarantee.

Each test exercises a full guarantee at its stated tolerance and prints a
single PASS/FAIL summary line (run with -s or -rA to see them all).

The benchmark checks all run the fitted pipeline. The k_star contract,
emergence and artifact-determinism tests run the default configuration
(`analyze` on `PipelineConfig(seed=s)`); the contract and emergence tests
share a ten-seed fixture so the expensive runs happen once. The detection
test runs `analyze` on the opt-in drifting dumbbell generator
(`drift=True`), because the default chain is fixed and gives the fit no
drift to recover.
"""

import math
import time
import zlib

import numpy as np
import pytest

from dualce import fitting
from dualce import (
    GROUP_TOL,
    DualMatrix,
    DualScalar,
    PipelineConfig,
    WITH_INFINITESIMAL,
    analyze,
    cdsvd,
    coarse_grain,
    decompose,
    detect_k,
    dual_abs,
    dual_effective_information,
    dual_vector_norm,
    dumbbell_dtpm,
    effective_information,
    is_dynamically_reversible,
    ky_fan_pk_norm,
    norm_sweep,
    run_pipeline,
    schatten_norm,
    validate_dtpm,
)
from dualce.markov import _block_chain, _lumping_drift
from tests.conftest import (
    FD_TABLE,
    MATRIX_NORMS,
    dm_random_orthogonal,
    fd_bound,
    fd_results,
    inverse_is_dtpm,
    matrix_with_sigmas,
    permutation_with_drift,
    projection_cases,
    projection_gap,
    random_dtpm,
    random_dual_matrix,
    random_dual_vector,
    random_permutation_matrix,
    reference_ky_fan,
)


def check(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# finite-difference agreement across the public dual-valued functions


def test_fd_oracle_agreement():
    # every row of conftest.FD_TABLE, reported as one line
    inputs = failures = 0
    worst = 0.0
    for row in FD_TABLE:
        for closed, est in fd_results(row):
            ratio = abs(closed.i - est.value) / fd_bound(closed.i)
            inputs += 1
            worst = max(worst, ratio)
            failures += ratio > 1.0 or not est.converged
    check(
        not failures,
        "fd oracle agreement",
        f"{len(FD_TABLE)} rows, {inputs} inputs, {failures} unconverged or "
        f"out of tolerance (worst {worst:.3g} of bound)",
    )


# ---------------------------------------------------------------------------
# norm axioms on random dual inputs, zero violations allowed


def _axiom_violations(norm_fn, make_pair, cases, rng):
    zero = DualScalar(0.0, 0.0)
    bad = 0
    for trial in range(cases):
        x, y = make_pair(rng)
        cs = 0.0 if trial % 10 == 0 else float(rng.normal())
        c = DualScalar(cs, float(rng.normal()))
        nx = norm_fn(x)
        # nonnegativity, lexicographic
        if not nx >= zero:
            bad += 1
            continue
        # absolute homogeneity in dual arithmetic
        lhs = norm_fn(c * x)
        rhs = dual_abs(c) * nx
        if abs(lhs.s - rhs.s) > 1e-9 or abs(lhs.i - rhs.i) > 1e-8:
            bad += 1
            continue
        # triangle inequality; standard parts within roundoff of a tie are
        # ordered by their infinitesimal parts
        lhs = norm_fn(x + y)
        rhs = nx + norm_fn(y)
        slack_s = 1e-10 * max(1.0, rhs.s)
        if lhs.s > rhs.s + slack_s:
            bad += 1
        elif abs(lhs.s - rhs.s) <= slack_s and lhs.i > rhs.i + 1e-8:
            bad += 1
    return bad


def _vector_pair(rng):
    n = int(rng.integers(4, 7))
    return tuple(random_dual_vector(rng, n, zero_prob=0.2) for _ in range(2))


def _matrix_pair(rng):
    return random_dual_matrix(rng, 5, 4), random_dual_matrix(rng, 5, 4)


def test_norm_axioms():
    cases = 1000
    kinds = [
        (f"vector_p{p}", lambda x, p=p: dual_vector_norm(x, p), _vector_pair)
        for p in (1.0, 1.3, 1.7, 2.0, 3.5, math.inf)
    ]
    kinds += [(name, fn, _matrix_pair) for name, (fn, _) in MATRIX_NORMS.items()]
    per_kind = []
    for name, norm_fn, make_pair in kinds:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        per_kind.append((name, _axiom_violations(norm_fn, make_pair, cases, rng)))
    check(
        not any(bad for _, bad in per_kind),
        "norm axioms",
        f"{len(kinds)} kinds x {cases} cases, violations: "
        + ", ".join(f"{name}={bad}" for name, bad in per_kind),
    )


# ---------------------------------------------------------------------------
# unitary invariance of the singular-value norms


def test_unitary_invariance():
    kinds = [fn for fn, _ in list(MATRIX_NORMS.values())[:6]]
    rng = np.random.default_rng(77)
    triples = 125
    worst = 0.0
    bad = 0
    for trial in range(triples):
        # the last 25 keep their singular values 1e-6 apart
        a = random_dual_matrix(rng, 5, 4, min_gap=1e-6 if trial >= 100 else 0.0)
        p = dm_random_orthogonal(5, seed=1000 + trial)
        q = dm_random_orthogonal(4, seed=2000 + trial)
        rotated = p @ a @ q
        for fn in kinds:
            before = fn(a)
            after = fn(rotated)
            dev = max(abs(after.s - before.s), abs(after.i - before.i))
            worst = max(worst, dev)
            bad += dev > 1e-8
    check(
        bad == 0,
        "unitary invariance",
        f"{triples} dual-orthogonal triples x {len(kinds)} norms, "
        f"{bad} deviations > 1e-8 (worst {worst:.3g})",
    )


# ---------------------------------------------------------------------------
# Ky Fan p-k norm equals the vector p-norm of the dual singular values.
# ky_fan_pk_norm is computed that way, so both sides are checked against the
# closed forms of reference_ky_fan, which never forms the dual singular values.


def test_kyfan_dual_sigma_equivalence():
    rng = np.random.default_rng(5151)
    checked = 0
    bad = 0
    worst = 0.0
    fixtures = []
    for trial in range(50):
        m, n = [(6, 5), (5, 5), (7, 4)][trial % 3]
        fixtures.append(random_dual_matrix(rng, m, n, min_gap=1e-3))
    fixtures += [random_dual_matrix(rng, 6, 5, min_gap=0.02) for _ in range(20)]
    for sigmas in ([3.0, 3.0, 2.0, 2.0, 0.8], [2.0, 2.0, 2.0, 1.0, 0.4]):
        fixtures += [matrix_with_sigmas(rng, 7, 5, sigmas) for _ in range(5)]
    fixtures.append(matrix_with_sigmas(rng, 6, 4, [3.0, 3.0, 1.0, 0.4]))
    worst_residual = 0.0
    for a in fixtures:
        d = decompose(a)
        worst_residual = max(worst_residual, cdsvd(d).residual)
        for k in (1, 2, 3, 4):
            for p in (1.3, 1.6, 1.8, 1.9):
                ref = reference_ky_fan(a, k, p)
                dev = max(
                    max(abs(v.s - ref.s), abs(v.i - ref.i))
                    for v in (ky_fan_pk_norm(a, k, p), dual_vector_norm(d.sigma[:k], p))
                )
                worst = max(worst, dev)
                checked += 1
                bad += dev > 1e-8
    check(
        bad == 0 and worst_residual <= 1e-8,
        "ky fan / dual sigma equivalence",
        f"{checked} (matrix, k, p) combinations incl. repeated sigmas, "
        f"{bad} deviations > 1e-8 (worst {worst:.3g}); "
        f"cdsvd residual {worst_residual:.3g} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# effective-information extremes in dual arithmetic


def test_ei_extremes():
    # effective_information, and dual_effective_information with 20
    # column-sum-zero drifts, vanish on the uniform chain.  Where EI reaches
    # log2 n is test_reversibility_characterization's check.
    rng = np.random.default_rng(9)
    dev_uni = 0.0
    for n in (2, 6, 7, 85):
        uniform = np.full((n, n), 1.0 / n)
        dev_uni = max(dev_uni, abs(effective_information(uniform)))
        for _ in range(20):
            drift = rng.normal(size=(n, n))
            drift -= drift.mean(axis=0, keepdims=True)
            ei = dual_effective_information(DualMatrix(uniform, drift))
            dev_uni = max(dev_uni, abs(ei.s), abs(ei.i))
    check(
        dev_uni <= 1e-12,
        "effective information extremes",
        f"uniform (n = 2, 6, 7, 85; 20 drifts each) dev {dev_uni:.3g}, tol 1e-12",
    )


# ---------------------------------------------------------------------------
# dynamical reversibility, decided exactly, is where EI_d and the dual
# Schatten p-norm reach their maxima


def test_reversibility_characterization():
    # Each input is decided by is_dynamically_reversible and by the
    # definition (inverse_is_dtpm); both must give the known answer.  Its
    # dual Schatten p-norms and EI_d must reach n^(1/p) + 0 eps and
    # log2 n + 0 eps when it is reversible (infinitesimal parts exactly 0,
    # standard parts within 1e-12 relative) and sit strictly below them in
    # the dual order otherwise, standard parts within 1e-12 relative
    # counting as equal.  On a drifted permutation, m the drift's mass off
    # the permutation's support, both take closed forms:
    # n^(1/p) - n^(1/p - 1) m eps and log2 n - m / (n ln 2) eps.
    rng = np.random.default_rng(31)
    ps = (1.0, 1.3, 1.6, 1.9)
    wrong = disagree = off_max = 0
    worst = 0.0

    def rel(got, want):
        return abs(got - want) / abs(want)

    def decide(p, reversible, gap_visible=True):
        # gap_visible=False: the gap below the maxima may be under 1e-12
        # relative, so only the decision is checked.
        nonlocal wrong, disagree, off_max
        got = is_dynamically_reversible(p)
        wrong += got != reversible
        disagree += got != inverse_is_dtpm(p)
        n = p.shape[0]
        d = decompose(p)
        values = [(schatten_norm(d, q), n ** (1.0 / q)) for q in ps]
        values.append((dual_effective_information(p), math.log2(n)))
        for value, top in values if gap_visible else ():
            tie = rel(value.s, top) <= 1e-12
            if got:
                off_max += not (tie and value.i == 0.0)
            else:
                off_max += not ((value.s < top and not tie) or (tie and value.i < 0.0))
        return values

    for _ in range(500):
        decide(random_dtpm(rng, int(rng.integers(2, 11))), False)
    sizes = (2, 4, 5, 9, 17, 85)
    perms = [random_permutation_matrix(rng, sizes[t % 6]) for t in range(24)]
    perms.append(np.eye(3))
    for q in perms:
        decide(DualMatrix(q, np.zeros(q.shape)), True)
    drifted = [
        (perm, scale * rng.uniform(0.0, 1.0, size=perm.shape))
        for perm in perms
        for scale in (1.0, 1e-6, 1e-10, 1e-12)
    ]
    drifted.append((np.roll(np.eye(5), 1, axis=0), np.full((5, 5), 0.5e-9)))
    for perm, off in drifted:
        p = validate_dtpm(permutation_with_drift(perm, off))
        n, m = perm.shape[0], float(np.sum(p.i[perm == 0.0]))
        closed = [-(n ** (1.0 / q - 1.0)) * m for q in ps] + [-m / (n * math.log(2.0))]
        for (value, top), closed_i in zip(decide(p, False), closed):
            worst = max(worst, rel(value.s, top), rel(value.i, closed_i))
    for perm in perms:
        # one column's mass moved off the permutation, P_i = O
        n = perm.shape[0]
        col = int(rng.integers(n))
        row = int(np.argmax(perm[:, col]))
        for moved in (1e-10, 1e-12):
            near = perm.copy()
            near[row, col] -= moved
            near[(row + 1) % n, col] += moved
            decide(validate_dtpm(DualMatrix(near, np.zeros((n, n)))), False, moved > 1e-12)
    doubly = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    decide(DualMatrix(doubly, np.zeros((3, 3))), False)
    check(
        wrong == 0 and disagree == 0 and off_max == 0 and worst <= 1e-12,
        "reversibility characterization",
        f"500 random chains; {len(perms)} permutations (n = 2 to 85, the "
        f"identity among them) with no drift and with drifts of scale 1, "
        f"1e-6, 1e-10 and 1e-12; the 5-cycle drifted by 0.5e-9; each "
        f"permutation with 1e-10 and 1e-12 of a column moved; a doubly "
        f"stochastic non-permutation: {wrong} decided wrong, {disagree} "
        f"disagreements with the definition, {off_max} Schatten (p = 1, 1.3, "
        f"1.6, 1.9) or EI_d values not at their maxima exactly when "
        f"reversible; drifted closed forms worst rel. error {worst:.3g} "
        f"(tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# Schatten norm extremes over transition matrices


def test_schatten_extremes():
    # The bound n^(1/p) on random chains and the value 1 + 0 eps on the
    # uniform chain.  Where the bound is reached is
    # test_reversibility_characterization's check.
    n = 85
    rng = np.random.default_rng(444)
    bound_violations = 0
    for trial in range(1000):
        d = decompose(random_dtpm(rng, n))
        for p in (1.0, 1.3, 1.9):
            bound_violations += schatten_norm(d, p) > DualScalar(n ** (1.0 / p) + 1e-10, 0.0)

    uniform = np.full((n, n), 1.0 / n)
    uni_dev = 0.0
    for _ in range(20):
        drift = rng.normal(size=(n, n))
        drift -= drift.mean(axis=0, keepdims=True)
        for p in (1.3, 1.9):
            val = schatten_norm(DualMatrix(uniform, drift), p)
            uni_dev = max(uni_dev, abs(val.s - 1.0), abs(val.i))

    check(
        bound_violations == 0 and uni_dev <= 1e-10,
        "schatten extremes",
        f"1000 random chains with {bound_violations} above n^(1/p), "
        f"uniform dev {uni_dev:.3g}",
    )


# ---------------------------------------------------------------------------
# the fit's column projections certified by their first-order conditions


def _simplex(v):
    return v, np.ones(v.shape, dtype=bool), 1.0


def _fit_projections(monkeypatch, cfg):
    """(v, mask, b) of every projection that analyze(cfg, "fit") makes."""
    captured = []
    build = fitting._column_projector

    def capturing(mask, b):
        columns = build(mask, b)

        def project(v):
            captured.append((v.copy(), mask, b))
            return columns.project(v)

        return columns._replace(project=project)

    with monkeypatch.context() as m:
        m.setattr(fitting, "_column_projector", capturing)
        analyze(cfg, "fit")
    return captured


def _projection_families(monkeypatch):
    """Inputs (v, mask, b) by family, each v an n x c matrix whose columns
    are projected onto {u: sum(u) = b, u_j >= 0 where mask_j}."""
    families = {}
    # dims 2 and 3, 100 inputs each, for both sets; every tenth mask is empty
    rng = np.random.default_rng(606)
    families["small"] = [
        _simplex(rng.normal(scale=1.5, size=(dim, 1))) for dim in (2, 3) for _ in range(100)
    ]
    for dim in (2, 3):
        for trial in range(100):
            v = rng.normal(scale=1.5, size=(dim, 1))
            mask = (rng.random((dim, 1)) < 0.5) & (trial % 10 != 0)
            families["small"].append((v, mask, 0.0))
    # known projections, and random vectors of 2 to 6 entries
    families["vectors"] = [
        _simplex(np.array(v)[:, None])
        for v in ([0.5, 0.5, 100.0], [0.0, 0.0], [0.2, 0.3, 0.5], [0.3, 0.1, 0.6, -0.2])
    ] + [
        (np.array([[3.0], [1.0], [-1.0]]), np.zeros((3, 1), dtype=bool), 0.0),
        (np.array([[3.0], [-1.0]]), np.ones((2, 1), dtype=bool), 0.0),
    ]
    rng = np.random.default_rng(0)
    families["vectors"] += [
        _simplex(rng.uniform(-3, 3, size=(int(rng.integers(2, 7)), 1))) for _ in range(100)
    ]
    rng = np.random.default_rng(2)
    families["vectors"] += [_simplex(rng.uniform(-4, 4, (5, 1))) for _ in range(200)]
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        v = rng.uniform(-3, 3, (d, 1))
        families["vectors"].append((v, rng.random((d, 1)) < 0.5, 0.0))
    rng = np.random.default_rng(5)
    mask = np.array([[True], [False], [True], [False]])
    families["vectors"] += [(rng.uniform(-4, 4, (4, 1)), mask, 0.0) for _ in range(200)]
    # tie-heavy and signed-zero matrices, for both sets
    families["cases"] = [
        case for v, mask in projection_cases() for case in ((v, mask, 0.0), _simplex(v))
    ]
    # n x c blocks up to 89 x 89 at scales 1e-6 to 1e3
    rng = np.random.default_rng(89)
    families["blocks"] = []
    for trial in range(250):
        scale = (1e-6, 1e-3, 1.0, 1e3)[trial % 4]
        n, c = (89, 89) if trial < 4 else rng.integers(1, 90, size=2)
        v = scale * rng.standard_normal((n, c))
        mask = rng.random((n, c)) < rng.uniform()
        families["blocks"] += [(v, mask, 0.0), _simplex(v)]
    # every projection of a fit on CI's drift and tiny configs
    small = {"far_weight": 2, "near_weight": 2, "bar": 1}
    families["drift fit"] = _fit_projections(
        monkeypatch, PipelineConfig(**small, t=5, drift=True, trajectories=3)
    )
    families["tiny fit"] = _fit_projections(monkeypatch, PipelineConfig(**small, t=50))
    return families


def test_projection_optimality(monkeypatch):
    """Every projection is certified exact by projection_gap, is idempotent,
    leaves its input as it was and, column by column, moves no two points
    further apart, each at 1e-12 relative to max(1, ||v||_inf)."""
    rng = np.random.default_rng(607)
    tol = 1e-12
    failures = changed = 0
    report = []
    for name, cases in _projection_families(monkeypatch).items():
        worst = 0.0
        for v, mask, b in cases:
            project = fitting._column_projector(mask, b).project
            kept = v.copy()
            q = project(v)
            changed += kept.tobytes() != v.tobytes()
            scale = max(1.0, float(np.max(np.abs(v))))
            w = v + scale * rng.standard_normal(v.shape)
            expansion = np.linalg.norm(q - project(w), axis=0) - np.linalg.norm(v - w, axis=0)
            deviations = (
                projection_gap(v, q, mask, b),
                float(np.max(np.abs(project(q) - q))) / scale,
                max(0.0, float(np.max(expansion))) / scale,
            )
            failures += not all(d <= tol for d in deviations)
            worst = max(worst, *deviations)
        report.append(f"{name} {len(cases)} (worst {worst:.2g})")
    check(
        failures == 0 and changed == 0,
        "projection optimality",
        f"{failures} inputs above {tol:g}, {changed} inputs changed; " + ", ".join(report),
    )


# ---------------------------------------------------------------------------
# benchmark pipeline over ten seeds. The k_star contract and the five-class
# emergence gain run on the fitted default pipeline; the five-class scale
# detection runs the fitted pipeline on the opt-in drifting dumbbell.


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    start = time.perf_counter()
    for seed in range(10):
        cfg = PipelineConfig(seed=seed)
        result = analyze(cfg)
        at_five = coarse_grain(
            result.p, 5, WITH_INFINITESIMAL, seed=cfg.child_seeds()["kmeans"]
        )
        runs.append((seed, result, effective_information(at_five.upsilon)))
    return runs, time.perf_counter() - start


def test_benchmark_detection_majority():
    """The fitted pipeline finds the five-class scale of a drifting dumbbell.

    The paper reads the class count at which a DTPM P = P_s + eps P_i shows
    causal emergence from the k where the infinitesimal part of the dual
    Ky Fan p-k norm peaks. Each seed runs `analyze` end to end on the
    opt-in drifting generator: the dumbbell chain M drifting toward its
    five-class chain (`dumbbell_dtpm`), simulated in dual arithmetic from
    100 random starts of 5 steps each, then fit, sweep and detect. The
    check passes only if the fit recovers a drift whose peak is at k = 5,
    and each seed's per-p argmaxes are those of its own generator's DTPM.

    PAPER.md gives only the abstract, so it does not say which drift the
    paper's dumbbell DTPM carried; the drift toward the five-class chain is
    the project's reading of the occurrence of causal emergence at five
    classes. The default runs cannot carry the check: their chain is fixed,
    so Y_i = M X_i exactly and the fitted P_i is whatever the solver leaves
    when it stops (see the README's known limitation of the fit).
    """
    k_stars, errors = [], []
    start = time.perf_counter()
    for seed in range(10):
        cfg = PipelineConfig(seed=seed, drift=True, trajectories=100, t=5)
        result = analyze(cfg)
        flagged = [q for q, _, degenerate in result.detection.per_p if degenerate]
        assert not flagged, f"seed {seed}: no drift signal at p = {flagged}"
        fitted = [k for _, k, _ in result.detection.per_p]
        truth = detect_k(norm_sweep(decompose(result.chain, GROUP_TOL), cfg.p_list))
        generator = [k for _, k, _ in truth.per_p]
        assert fitted == generator, f"seed {seed}: fit {fitted}, generator {generator}"
        drift = dumbbell_dtpm(cfg.dumbbell()).i
        errors.append(np.linalg.norm(result.p.i - drift) / np.linalg.norm(drift))
        k_stars.append(result.detection.k_star)
    elapsed = time.perf_counter() - start
    hits = sum(k == 5 for k in k_stars)
    ok = hits >= 7 and elapsed < 600.0
    check(
        ok,
        "benchmark detection majority",
        f"k_star=5 in {hits}/10 seeds (need >= 7), k_star values {k_stars}, "
        f"fitted drift rel. error <= {max(errors):.1e}, "
        f"runtime {elapsed:.1f}s (budget 600s)",
    )


def test_detection_reach_along_drift():
    """How far along the drift the first-order detection holds.

    The drifting dumbbell's path M + tD, D = T - M, is a TPM for every t in
    [0, 1] and ends at the lumpable five-class chain T.  At each p of the
    default p_list, the argmax over k of the real quotient
    (||M + tD||_(k,p) - ||M||_(k,p)) / t must be the dual per-p argmax of
    detect_k, with no degenerate p, at every grid t <= 0.3.  The reach, the
    largest grid t up to which every t keeps it, is reported per (seed, p).
    Generator only: nothing is fitted.
    """
    ts = (1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0)
    p_list = PipelineConfig().p_list
    flagged, short, reach = 0, [], {}
    for seed in range(10):
        chain = dumbbell_dtpm(PipelineConfig(drift=True, seed=seed).dumbbell())
        table = norm_sweep(chain, p_list)
        sigmas = [
            np.linalg.svd(chain.s + t * chain.i, compute_uv=False)[: table.rank]
            for t in (0.0,) + ts
        ]
        for q, k, degenerate in detect_k(table).per_p:
            flagged += degenerate
            norms = [np.cumsum(s**q) ** (1.0 / q) for s in sigmas]
            kept = [
                int(np.argmax((norm - norms[0]) / t)) + 1 == k
                for t, norm in zip(ts, norms[1:])
            ]
            short += [(seed, q, t) for t, ok in zip(ts, kept) if t <= 0.3 and not ok]
            held = (kept + [False]).index(False)
            reach.setdefault(seed, []).append(f"{ts[held - 1] if held else 0.0:g}")
    check(
        flagged == 0 and not short,
        "detection reach along the drift",
        f"{flagged} degenerate p; (seed, p, t) with the dual argmax lost at "
        f"t <= 0.3: {short}; reach per seed at p = "
        + "/".join(f"{q:g}" for q in p_list)
        + ": "
        + ", ".join(f"{seed}: {'/'.join(r)}" for seed, r in reach.items()),
    )


def test_detection_on_planted_blocks():
    """The detection claim on 600 generator DTPMs of b = 2 to 8 planted blocks.

    One rng draws b, then b block sizes from 3 to 30, then the block chain M,
    drifted toward its lumped b-class chain T as dumbbell_dtpm drifts the
    dumbbell: M + eps (T - M).  Per chain: whether the vote's k_star over the
    default p_list, the argmax at p = 1, and the argmax at all 100 p of
    linspace(1, 1.99, 100) give b.  The counts are pinned, split at a
    largest-to-smallest block-size ratio of 3; README.md lists the misses.
    Generator only: nothing is fitted.
    """
    rng = np.random.default_rng(2024)
    grid = np.linspace(1.0, 1.99, 100)
    # per side of ratio 3: chains, vote = b, argmax b at p = 1, at every p
    counts = {"< 3": [0, 0, 0, 0], ">= 3": [0, 0, 0, 0]}
    misses = []
    for _ in range(600):
        b = int(rng.integers(2, 9))
        sizes = rng.integers(3, 31, size=b).tolist()
        m = _block_chain(sizes, rng)
        d = decompose(validate_dtpm(DualMatrix(m, _lumping_drift(m, sizes))))
        vote = detect_k(norm_sweep(d, PipelineConfig().p_list)).k_star
        per_p = [k for _, k, _ in detect_k(norm_sweep(d, grid)).per_p]
        row = counts["< 3" if max(sizes) < 3 * min(sizes) else ">= 3"]
        for i, hit in enumerate((True, vote == b, per_p[0] == b, per_p == [b] * 100)):
            row[i] += hit
        if vote != b:
            misses.append((sizes, vote))
    check(
        counts == {"< 3": [229, 227, 227, 227], ">= 3": [371, 362, 370, 356]},
        "detection on planted blocks",
        "; ".join(
            f"size ratio {side}: {c} chains, k = b by the vote on {v}, at p = 1 "
            f"on {one}, at all 100 p on {every}"
            for side, (c, v, one, every) in counts.items()
        )
        + f"; vote misses (sizes, k_star): {misses}",
    )


def test_benchmark_k_star_contract(benchmark_runs):
    runs, _ = benchmark_runs
    k_stars = [result.detection.k_star for _, result, _ in runs]
    expected = [1, 1, 5, 7, 7, 10, 6, 1, 1, 6]
    check(
        k_stars == expected,
        "benchmark k_star contract",
        f"k_star for seeds 0-9 {k_stars} (pinned {expected})",
    )


def test_benchmark_emergence_majority(benchmark_runs):
    runs, _ = benchmark_runs
    wins = sum(ei_five > result.ei_micro for _, result, ei_five in runs)
    detected = [
        (seed, result.ei_macro[WITH_INFINITESIMAL] > result.ei_micro)
        for seed, result, _ in runs
        if result.detection.k_star == 5
    ]
    det_wins = sum(flag for _, flag in detected)
    check(
        wins >= 7,
        "benchmark emergence majority",
        f"five-class reduction beats micro EI in {wins}/10 seeds (need >= 7); "
        f"among seeds detecting five classes: {det_wins}/{len(detected)}",
    )


# ---------------------------------------------------------------------------
# artifact determinism


def test_artifact_determinism(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_pipeline(PipelineConfig(), first)
    run_pipeline(PipelineConfig(), second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    differing = [
        name
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    check(
        not differing,
        "artifact determinism",
        f"{len(names)} files byte-identical across two runs"
        + (f"; differing: {differing}" if differing else ""),
    )
