"""End-to-end causal-emergence analysis over a dual transition matrix.

Stages: generate the dumbbell benchmark, simulate trajectories, fit the dual
transition matrix, sweep the dual Ky Fan norms over (k, p), detect the
optimal class count from the infinitesimal parts, and coarse-grain by
clustering singular-vector projections of the columns.  `stages` runs them
in order as pure functions of the configuration, and `analyze(cfg, last)`
runs them up to a named one and holds their outputs; `run_pipeline` and
every CLI subcommand call it, so later stages re-derive earlier ones from
the seed instead of reading intermediate files.  `WRITERS` holds the one
function that writes each stage's files, for `write_artifacts` and the CLI
alike.

Matrices are written as CSV with 17-significant-digit floats and the other
records as JSON with Python's shortest round-trip float repr, both with
stable ordering, so every float reads back exactly; two runs with the same
configuration produce byte-identical files at the same BLAS thread count.
Another thread count changes the fit's roundoff, and with it every artifact
downstream of the fit, though not k_star on the default seeds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import DualMatrix, check_integer, check_real, check_square
from .fitting import FitOptions, FitReport, build_snapshots, fit_dtpm
from .markov import (
    DUMBBELL_MINIMUM,
    DumbbellConfig,
    STOCHASTIC_TOL,
    dumbbell_dtpm,
    dumbbell_tpm,
    effective_information,
    matrix_to_dict,
    simulate,
    validate_tpm,
    write_matrix_csv,
)
# norm_sweep's per-(k, p) references.  The sweep reads prefix sums instead,
# but perfbench/spans.py looks both names up here to count their calls.
from .markov import delta_gamma  # noqa: F401
from .matrix_norms import ky_fan_pk_norm  # noqa: F401
from .svd import GROUP_TOL, RANK_TOL, Decomposition, cdsvd, decompose

WITH_INFINITESIMAL = "with_infinitesimal"
WITHOUT_INFINITESIMAL = "without_infinitesimal"


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Dual Ky Fan norms over the (p, k) grid, one row per p.

    standard, infinitesimal and delta_gamma are read-only arrays of shape
    (len(p_list), rank): row j holds p = p_list[j] and column k - 1 holds k.
    """

    p_list: tuple
    standard: np.ndarray
    infinitesimal: np.ndarray
    delta_gamma: np.ndarray

    @property
    def rank(self) -> int:
        return self.standard.shape[1]


def _check_p_list(p_list, name: str = "p_list") -> tuple:
    """p_list as a nonempty tuple of distinct floats in [1, 2); raises
    ValueError naming it if not, since a repeated p would count twice in
    detect_k's vote.  A 1-D ndarray counts as the list of its entries; a
    str or bytes is refused as a whole, not read char by char."""
    if isinstance(p_list, np.ndarray) and p_list.ndim == 1:
        p_list = p_list.tolist()
    if isinstance(p_list, (str, bytes)) or not isinstance(p_list, Sequence):
        raise ValueError(f"{name} must be a sequence, got {p_list!r}")
    p_list = tuple(check_real(q, f"{name} entry", 1.0, 2.0) for q in p_list)
    if not p_list:
        raise ValueError(f"{name} must be nonempty")
    for j, q in enumerate(p_list):
        if q in p_list[:j]:
            raise ValueError(f"{name} repeats {q}")
    return p_list


def norm_sweep(
    p: DualMatrix | Decomposition, p_list, group_tol: float = GROUP_TOL
) -> SweepTable:
    """Dual Ky Fan (k, p) norms for k = 1..rank(P_s) and every p in p_list.

    The Ky Fan p-k norm is the dual p-norm of the first k dual singular
    values sigma_s + sigma_i eps, and sigma_s > 0 up to the rank, so each p
    row comes from prefix sums over k: the standard part is
    (cumsum sigma_s^p)^(1/p) and the infinitesimal part is
    cumsum(sigma_s^(p-1) sigma_i) / standard^(p-1), which at p = 1 is
    cumsum sigma_i.  delta_gamma of the standard part rides along for the
    vague-emergence report, cumsum(s^p) / k - sum(s^p) / n over the n
    singular values s.  ky_fan_pk_norm and markov.delta_gamma compute the
    same entries one (k, p) at a time.  Every entry is read from one
    decomposition of p: a Decomposition is used as it was built, and a
    DualMatrix is decomposed at group_tol.  p must be n x n.
    """
    p_list = _check_p_list(p_list)
    check_square(p, "norm_sweep")
    d = decompose(p, group_tol)
    if d.rank == 0:
        raise ValueError("norm sweep needs a nonzero standard part")
    sigma = d.sigma[: d.rank]
    ks = np.arange(1, d.rank + 1)
    standard, infinitesimal, gamma = np.empty((3, len(p_list), d.rank))
    for row, q in enumerate(p_list):
        powered = d.s**q
        prefix = np.cumsum(powered[: d.rank])
        standard[row] = prefix ** (1.0 / q)
        weighted = np.cumsum(sigma.s ** (q - 1.0) * sigma.i)
        infinitesimal[row] = weighted / standard[row] ** (q - 1.0)
        gamma[row] = prefix / ks - np.sum(powered) / d.shape[0]
    for part in (standard, infinitesimal, gamma):
        part.flags.writeable = False
    return SweepTable(p_list, standard, infinitesimal, gamma)


@dataclass(frozen=True)
class DetectionResult:
    per_p: tuple  # (p, argmax_k, degenerate) triples

    @property
    def k_star(self) -> int:
        """The most common per-p argmax, smallest k winning equal counts."""
        counts = Counter(k for _, k, _ in self.per_p)
        top = max(counts.values())
        return min(k for k, c in counts.items() if c == top)

    @property
    def unanimous(self) -> bool:
        """Whether every p gives the same argmax k."""
        return len({k for _, k, _ in self.per_p}) == 1

    def to_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "per_p": [
                {"p": p, "k": k, "degenerate": flag} for p, k, flag in self.per_p
            ],
            "unanimous": self.unanimous,
        }


def detect_k(table: SweepTable) -> DetectionResult:
    """Argmax over k of the infinitesimal norm part, per p, then the mode.

    Each p reads its own row of table.infinitesimal.  Ties go to the
    smallest k.  A p whose row is constant (a permutation input gives all
    zeros) is flagged degenerate; its argmax is still the tie-broken
    smallest k.  The result's k_star is the mode of the per-p argmaxes.
    """
    rows = table.infinitesimal
    k_best = (np.argmax(rows, axis=1) + 1).tolist()
    degenerate = (rows.max(axis=1) == rows.min(axis=1)).tolist()
    return DetectionResult(tuple(zip(table.p_list, k_best, degenerate)))


class EmptyClusterError(RuntimeError):
    """Lloyd iteration produced a cluster with no members."""


def _sq_dist(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of pts to one center."""
    return np.sum((pts - center) ** 2, axis=1)


# The k-means settings of every run: the defaults of kmeans and coarse_grain.
KMEANS_MAX_ITER = 300
KMEANS_RETRIES = 5


def kmeans(points, k: int, seed: int, max_iter: int = KMEANS_MAX_ITER) -> np.ndarray:
    """k-means++ seeding plus Lloyd iterations to an assignment fixpoint.

    Deterministic for a given (points, k, seed).  Raises EmptyClusterError
    if an update empties a cluster; callers reseed and retry.  The n x k
    distance table is filled one center at a time, so no temporary is
    larger than the points themselves; each entry is the same row sum the
    n x k x dim broadcast would give, bit for bit.  seed must be an integer
    >= 0 and max_iter an integer >= 1.
    """
    check_integer(seed, "seed", 0)
    check_integer(max_iter, "max_iter", 1)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array (one row per point)")
    n = pts.shape[0]
    check_integer(k, "k", 1, n)
    rng = np.random.default_rng(seed)

    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = _sq_dist(pts, centers[0])
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, _sq_dist(pts, centers[c]))

    labels = np.full(n, -1)
    dist = np.empty((n, k))
    for _ in range(max_iter):
        for c in range(k):
            dist[:, c] = _sq_dist(pts, centers[c])
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


@dataclass(frozen=True, eq=False)
class CoarseGraining:
    """Hard assignment of micro states to k = len(upsilon) macro states."""

    upsilon: np.ndarray  # k x k reduced TPM
    labels: np.ndarray
    kmeans_seed: int


def coarse_grain(
    p: DualMatrix | Decomposition,
    k: int,
    method: str = WITH_INFINITESIMAL,
    seed: int = 0,
    max_iter: int = KMEANS_MAX_ITER,
    retries: int = KMEANS_RETRIES,
    group_tol: float = GROUP_TOL,
) -> CoarseGraining:
    """Cluster the columns of the singular-projection matrix into k classes.

    The clustered matrix is the dual projection U(:,1:k)^T P: with the
    infinitesimal method its standard part stacked over its infinitesimal
    part; without it, the same top block over zeros.  The zero padding
    keeps the two methods seed-for-seed identical whenever P_i = O.  The reduced matrix is
    Phi^T P_s Phi with columns renormalized, which is exactly stochastic
    because column sums equal the (positive) cluster sizes.  The singular
    vectors come from cdsvd of p's decomposition: a Decomposition is used as
    it was built, and a DualMatrix is decomposed at group_tol.  p must be
    n x n, and seed, max_iter and retries integers, >= 0, >= 1 and >= 0.
    """
    if method not in (WITH_INFINITESIMAL, WITHOUT_INFINITESIMAL):
        raise ValueError(f"unknown method {method!r}")
    check_integer(seed, "seed", 0)
    check_integer(max_iter, "max_iter", 1)
    check_integer(retries, "retries", 0)
    check_square(p, "coarse_grain")
    d = decompose(p, group_tol)
    p = d.matrix
    n = p.shape[0]
    result = cdsvd(d)
    check_integer(k, "k", 1, len(result.S))
    proj = DualMatrix(result.U.s[:, :k], result.U.i[:, :k]).T @ p
    bottom = proj.i if method == WITH_INFINITESIMAL else np.zeros_like(proj.s)
    q = np.vstack([proj.s, bottom])

    for seed_used in range(seed, seed + retries + 1):
        try:
            labels = kmeans(q.T, k, seed_used, max_iter=max_iter)
            break
        except EmptyClusterError as err:
            last_err = err
    else:
        raise RuntimeError(
            f"k-means produced an empty cluster in {retries + 1} attempts"
        ) from last_err

    phi = np.zeros((n, k))
    phi[np.arange(n), labels] = 1.0
    raw = phi.T @ p.s @ phi
    upsilon = raw / raw.sum(axis=0, keepdims=True)
    validate_tpm(upsilon)
    return CoarseGraining(upsilon, labels, seed_used)


# The bound arguments of each int setting's check_integer.  The dumbbell's
# are read from their owner.
_BOUNDS = {
    **{name: (low,) for name, low in DUMBBELL_MINIMUM.items()},
    "seed": (0,),
    "t": (1,),
    "trajectories": (1,),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for a full analysis run.

    The master seed derives independent child seeds for topology, the
    initial states, and clustering, so stages never share random streams.

    The default run fits one trajectory of the fixed dumbbell chain.  With
    drift=True the simulated chain is the DTPM `dumbbell_dtpm`, the chain
    drifting toward its five-class chain, propagated in dual arithmetic.
    trajectories > 1 fits the stacked snapshots of that many runs of t
    steps, each from its own random start.  The dumbbell's couplings are
    markov.COUPLING_DENSITY and COUPLING_SCALE, the fit runs with
    FitOptions' defaults, the singular values are grouped at svd.GROUP_TOL
    and k-means runs with KMEANS_MAX_ITER and KMEANS_RETRIES.

    Construction checks each field by the type of its default, naming the
    config key in a ValueError: int fields through check_integer within
    their _BOUNDS, drift as a Python or numpy bool, p_list through
    _check_p_list.  The checked value is stored, so p_list is a tuple of
    floats, an entry given 1 holding 1.0.
    """

    far_weight: int = DumbbellConfig.far_weight
    near_weight: int = DumbbellConfig.near_weight
    bar: int = DumbbellConfig.bar
    t: int = 500
    p_list: tuple = (1.3, 1.6, 1.9)
    seed: int = 0
    drift: bool = False
    trajectories: int = 1

    # Plain class attributes and a method, not fields, so no config sets
    # them.  Their one reader is perfbench/bench.py's ensemble workload; the
    # pipeline reads the module constants and FitOptions' defaults.
    group_tol = GROUP_TOL
    kmeans_max_iter = KMEANS_MAX_ITER
    kmeans_retries = KMEANS_RETRIES

    def fit_options(self) -> FitOptions:
        return FitOptions()

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value, key = getattr(self, field.name), f"config key {field.name!r}"
            if isinstance(field.default, bool):
                if not isinstance(value, (bool, np.bool_)):
                    raise ValueError(f"{key} must be a bool, got {value!r}")
                value = bool(value)
            elif isinstance(field.default, int):
                value = check_integer(value, key, *_BOUNDS[field.name])
            else:
                value = _check_p_list(value, key)
            object.__setattr__(self, field.name, value)

    def child_seeds(self) -> dict:
        ss = np.random.SeedSequence(self.seed)
        topo, x1, km = (int(c.generate_state(1)[0]) for c in ss.spawn(3))
        return {"topology": topo, "x1": x1, "kmeans": km}

    def dumbbell(self) -> DumbbellConfig:
        return DumbbellConfig(
            far_weight=self.far_weight,
            near_weight=self.near_weight,
            bar=self.bar,
            seed=self.child_seeds()["topology"],
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["p_list"] = list(self.p_list)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """What the stages made, once each: outputs maps each stage name that
    `analyze` ran, but simulate unless it ran last, to what `stages` yields
    for it, and the properties read it.  A result of the first stages only
    lacks the later keys, and their properties raise KeyError."""

    config: PipelineConfig
    outputs: dict

    # chain is the TPM, or the DTPM under drift; coarse and ei_macro map each
    # method to its CoarseGraining and its macro EI.
    chain = property(lambda self: self.outputs["generate"])
    report = property(lambda self: self.outputs["fit"])
    p = property(lambda self: self.report.p)
    sweep = property(lambda self: self.outputs["sweep"])
    detection = property(lambda self: self.outputs["detect"])
    coarse = property(lambda self: self.outputs["coarse-grain"][0])
    ei_micro = property(lambda self: self.outputs["coarse-grain"][1])
    ei_macro = property(lambda self: self.outputs["coarse-grain"][2])


def random_initial_states(n: int, seed: int, count: int) -> np.ndarray:
    """n x count random probability vectors (count an integer >= 1, seed one
    >= 0), uniform draws normalized.  One count x n draw is the stream of
    count draws of n, so more starts extend the stream."""
    check_integer(count, "count", 1)
    check_integer(seed, "seed", 0)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(count, n))
    return (x / x.sum(axis=1, keepdims=True)).T


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as err:
        raise StageError(f"stage '{name}' failed: {err}") from err


def stages(cfg: PipelineConfig):
    """Run the stages in order, each under _stage; yield (name, output).

    The outputs: the chain (the dumbbell TPM, or its DTPM under drift), the
    trajectories (one matrix, the runs side by side), the FitReport,
    SweepTable and DetectionResult, and for coarse-grain (method ->
    CoarseGraining, micro EI, method -> macro EI).
    Stop iterating to skip the later stages.
    """
    with _stage("generate"):
        chain = (dumbbell_dtpm if cfg.drift else dumbbell_tpm)(cfg.dumbbell())
    yield "generate", chain
    with _stage("simulate"):
        # The starts are successive draws of the x1 stream, so the first one
        # is the default run's.
        starts = random_initial_states(
            chain.shape[0], cfg.child_seeds()["x1"], cfg.trajectories
        )
        trajectories = simulate(chain, starts, cfg.t)
    yield "simulate", trajectories
    with _stage("fit"):
        # The fit reads only the snapshots: the trajectories are dropped once
        # those are built, and the snapshots once the fit returns.
        pair = build_snapshots(trajectories, runs=cfg.trajectories)
        del trajectories
        report = fit_dtpm(pair)
        del pair
    yield "fit", report
    with _stage("sweep"):
        # One decomposition of the fitted matrix serves the sweep and both
        # coarse-grainings.
        decomposition = decompose(report.p)
        sweep = norm_sweep(decomposition, cfg.p_list)
    yield "sweep", sweep
    with _stage("detect"):
        detection = detect_k(sweep)
    yield "detect", detection
    with _stage("coarse-grain"):
        seed = cfg.child_seeds()["kmeans"]
        coarse = {
            method: coarse_grain(decomposition, detection.k_star, method=method, seed=seed)
            for method in (WITH_INFINITESIMAL, WITHOUT_INFINITESIMAL)
        }
        ei_macro = {
            method: effective_information(cg.upsilon) for method, cg in coarse.items()
        }
        ei_micro = effective_information(report.p.s)
    yield "coarse-grain", (coarse, ei_micro, ei_macro)


def analyze(cfg: PipelineConfig, last: str = "coarse-grain") -> PipelineResult:
    """Run the stages up to and including last in memory and return the
    result, which holds each one's output but the trajectories unless last
    is simulate: nothing after the fit reads them, so they are dropped
    before it.  A last that is not a stage name raises ValueError before
    any stage runs."""
    if last not in WRITERS:
        raise ValueError(f"unknown stage {last!r}; expected one of {list(WRITERS)}")
    outputs = {}
    for name, output in stages(cfg):
        if name != "simulate" or name == last:
            outputs[name] = output
        if name == last:
            break
        # The loop variable would hold the output through the next stage.
        del output
    return PipelineResult(cfg, outputs)


def _write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _write_parts(out: Path, name: str, name_i: str, matrix) -> list:
    """name.csv from the matrix, or from its standard part if it is dual, and
    then name_i.csv from its infinitesimal part."""
    parts = [(name, matrix)]
    if isinstance(matrix, DualMatrix):
        parts = [(name, matrix.s), (name_i, matrix.i)]
    paths = []
    for stem, part in parts:
        paths.append(out / f"{stem}.csv")
        write_matrix_csv(paths[-1], part)
    return paths


def _write_generate(out: Path, chain) -> list:
    return _write_parts(out, "generator", "generator_drift", chain)


def _write_simulate(out: Path, runs) -> list:
    return _write_parts(out, "trajectory", "trajectory_infinitesimal", runs)


def _write_fit(out: Path, report: FitReport) -> list:
    parts = _write_parts(out, "p_standard", "p_infinitesimal", report.p)
    return [*parts, _write_json(out / "fit.json", report.to_dict())]


def _write_sweep(out: Path, table: SweepTable) -> list:
    path = out / "sweep.csv"
    n_p, rank = table.standard.shape
    k = np.tile(np.arange(1.0, rank + 1), n_p)
    p = np.repeat(table.p_list, rank)
    parts = (table.standard, table.infinitesimal, table.delta_gamma)
    rows = np.column_stack([k, p, *(part.ravel() for part in parts)])
    write_matrix_csv(path, rows, header="k,p,standard,infinitesimal,delta_gamma")
    return [path]


def _write_detect(out: Path, detection: DetectionResult) -> list:
    return [_write_json(out / "detection.json", detection.to_dict())]


def _write_coarse(out: Path, output: tuple) -> list:
    """coarse.json: each method's coarse-graining and its EI comparison."""
    coarse, ei_micro, ei_macro = output
    payload = {
        method: {
            "method": method,
            "k": len(cg.upsilon),
            "kmeans_seed": cg.kmeans_seed,
            "labels": cg.labels.tolist(),
            "upsilon": matrix_to_dict(cg.upsilon),
            "ei_macro": ei_macro[method],
            "ei_micro": ei_micro,
            "emergent": bool(ei_macro[method] > ei_micro),
        }
        for method, cg in sorted(coarse.items())
    }
    return [_write_json(out / "coarse.json", payload)]


# Stage name -> writer(out, output) of that stage's files, where output
# is what `stages` yields for it; each writer returns the paths it wrote.
WRITERS = {
    "generate": _write_generate,
    "simulate": _write_simulate,
    "fit": _write_fit,
    "sweep": _write_sweep,
    "detect": _write_detect,
    "coarse-grain": _write_coarse,
}


def manifest_payload(cfg: PipelineConfig) -> dict:
    """What a run needs to be reproduced and no other artifact holds: the
    config echo, its child seeds, the tolerances that are not config keys,
    and the versions; deliberately no timestamps."""
    return {
        "config": cfg.to_dict(),
        "child_seeds": cfg.child_seeds(),
        "tolerances": {
            "group_tol": GROUP_TOL,
            "rank_tol": RANK_TOL,
            "stochastic_tol": STOCHASTIC_TOL,
        },
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }


def run_pipeline(cfg: PipelineConfig, out_dir) -> dict:
    """Run all stages and write the artifact set into out_dir; return the
    manifest payload."""
    write_artifacts(analyze(cfg), out_dir)
    return manifest_payload(cfg)


def write_artifacts(result: PipelineResult, out_dir) -> list:
    """Write the artifact set of an analyzed run into out_dir.

    The files of each stage in result.outputs, through its writer in
    WRITERS, so each the bytes its subcommand writes, then manifest.json.
    Returns the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, output in result.outputs.items():
        paths += WRITERS[name](out, output)
    return [*paths, _write_json(out / "manifest.json", manifest_payload(result.config))]
