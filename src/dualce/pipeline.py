"""End-to-end causal-emergence analysis over a dual transition matrix.

Stages: generate the dumbbell benchmark, simulate trajectories, fit the dual
transition matrix, sweep the dual Ky Fan norms over (k, p), detect the
optimal class count from the infinitesimal parts, and coarse-grain by
clustering singular-vector projections of the columns.  `stages` runs them
in order as pure functions of the configuration; `analyze` and every CLI
subcommand iterate it, so later stages re-derive earlier ones from the seed
instead of reading intermediate files.  `WRITERS` holds the one function
that writes each stage's files, for `write_artifacts` and the CLI alike.

All artifacts are written with stable ordering and 17-significant-digit
floats; two runs with the same configuration produce byte-identical files
at the same BLAS thread count.  Another thread count changes the fit's
roundoff, and with it every artifact downstream of the fit, though not
k_star on the default seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import DualMatrix, check_integer, check_square
from .fitting import (
    FitOptions,
    FitReport,
    build_snapshots,
    fit_dtpm,
    stack_snapshots,
)
from .markov import (
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
from .svd import GROUP_TOL, RANK_TOL, Decomposition, cdsvd, decompose, decomposed

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


def _check_p_list(p_list) -> tuple:
    """p_list as a tuple of floats; raises unless it is nonempty and in [1, 2)."""
    p_list = tuple(float(q) for q in p_list)
    if not p_list:
        raise ValueError("p_list must be nonempty")
    for q in p_list:
        if not 1.0 <= q < 2.0:
            raise ValueError(f"sweep p values must lie in [1, 2), got {q}")
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
    d = decomposed(p, group_tol)
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
    k_star: int
    per_p: tuple  # (p, argmax_k, degenerate) triples
    unanimous: bool

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
    smallest k.  k_star is the most common per-p argmax, smallest k winning
    equal counts.
    """
    rows = table.infinitesimal
    k_best = (np.argmax(rows, axis=1) + 1).tolist()
    degenerate = (rows.max(axis=1) == rows.min(axis=1)).tolist()
    per_p = tuple(zip(table.p_list, k_best, degenerate))
    counts = Counter(k for _, k, _ in per_p)
    top = max(counts.values())
    k_star = min(k for k, c in counts.items() if c == top)
    unanimous = len(counts) == 1
    return DetectionResult(k_star, per_p, unanimous)


class EmptyClusterError(RuntimeError):
    """Lloyd iteration produced a cluster with no members."""


def _sq_dist(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of pts to one center."""
    return np.sum((pts - center) ** 2, axis=1)


def kmeans(points, k: int, seed: int, max_iter: int = 300) -> np.ndarray:
    """k-means++ seeding plus Lloyd iterations to an assignment fixpoint.

    Deterministic for a given (points, k, seed).  Raises EmptyClusterError
    if an update empties a cluster; callers reseed and retry.  The n x k
    distance table is filled one center at a time, so no temporary is
    larger than the points themselves; each entry is the same row sum the
    n x k x dim broadcast would give, bit for bit.  max_iter must be an
    integer >= 1.
    """
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


@dataclass(frozen=True)
class CoarseGraining:
    """Hard assignment of micro states to k macro states."""

    upsilon: np.ndarray  # k x k reduced TPM
    labels: np.ndarray
    method: str
    k: int
    kmeans_seed: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "kmeans_seed": self.kmeans_seed,
            "labels": self.labels.tolist(),
            "upsilon": matrix_to_dict(self.upsilon),
        }


def coarse_grain(
    p: DualMatrix | Decomposition,
    k: int,
    method: str = WITH_INFINITESIMAL,
    seed: int = 0,
    max_iter: int = 300,
    retries: int = 5,
    group_tol: float = GROUP_TOL,
) -> CoarseGraining:
    """Cluster the columns of the singular-projection matrix into k classes.

    With the infinitesimal method the clustered matrix stacks
    U_s(:,1:k)^T P_s over U_s(:,1:k)^T P_i + U_i(:,1:k)^T P_s; without it,
    the same top block over zeros.  The zero padding keeps the two methods
    seed-for-seed identical whenever P_i = O.  The reduced matrix is
    Phi^T P_s Phi with columns renormalized, which is exactly stochastic
    because column sums equal the (positive) cluster sizes.  The singular
    vectors come from cdsvd of p's decomposition: a Decomposition is used as
    it was built, and a DualMatrix is decomposed at group_tol.  p must be
    n x n, and max_iter and retries integers, >= 1 and >= 0.
    """
    if method not in (WITH_INFINITESIMAL, WITHOUT_INFINITESIMAL):
        raise ValueError(f"unknown method {method!r}")
    check_integer(max_iter, "max_iter", 1)
    check_integer(retries, "retries", 0)
    check_square(p, "coarse_grain")
    d = decomposed(p, group_tol)
    p = d.matrix
    n = p.shape[0]
    result = cdsvd(d)
    check_integer(k, "k", 1, len(result.S))
    u_s = result.U.s[:, :k]
    u_i = result.U.i[:, :k]
    top = u_s.T @ p.s
    if method == WITH_INFINITESIMAL:
        bottom = u_s.T @ p.i + u_i.T @ p.s
    else:
        bottom = np.zeros_like(top)
    q = np.vstack([top, bottom])

    labels = None
    seed_used = seed
    last_err = None
    for attempt in range(retries + 1):
        seed_used = seed + attempt
        try:
            labels = kmeans(q.T, k, seed_used, max_iter=max_iter)
            break
        except EmptyClusterError as err:
            last_err = err
    if labels is None:
        raise RuntimeError(
            f"k-means produced an empty cluster in {retries + 1} attempts"
        ) from last_err

    phi = np.zeros((n, k))
    phi[np.arange(n), labels] = 1.0
    raw = phi.T @ p.s @ phi
    upsilon = raw / raw.sum(axis=0, keepdims=True)
    validate_tpm(upsilon)
    return CoarseGraining(upsilon, labels, method, k, seed_used)


def _plain(value):
    """value with numpy scalars as the Python numbers they hold and a list
    as a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_plain(q) for q in value)
    return value.item() if isinstance(value, np.generic) else value


def _same_kind(value, default) -> bool:
    """Whether a plain config value has the type of the field's default; an
    int may stand for a float, and a tuple of numbers for p_list."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_same_kind(q, 1.0) for q in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else int)


# Lower bounds of the numeric settings that are not the dumbbell's own.
_MINIMUM = {
    "t": 1,
    "trajectories": 1,
    "fit_max_iter": 1,
    "kmeans_max_iter": 1,
    "kmeans_retries": 0,
    "fit_tol": 0.0,
    "group_tol": 0.0,
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
    steps, each from its own random start.

    Construction raises ValueError for a value of the wrong type (each field
    takes the type of its default, where a numpy scalar counts as the
    Python number it holds and an int may stand for a float) or out of
    range: the dumbbell fields through DumbbellConfig, the others against
    _MINIMUM.  Numpy scalars are stored as the Python numbers they hold, a
    float field as a float (so coupling_scale=1 writes 1.0, as 1.0 does; an
    int past the float range is out of range) and p_list as a tuple of floats.
    """

    far_weight: int = 25
    near_weight: int = 15
    bar: int = 5
    coupling_density: float = 0.1
    coupling_scale: float = 0.05
    t: int = 500
    p_list: tuple = (1.3, 1.6, 1.9)
    group_tol: float = GROUP_TOL
    seed: int = 0
    fit_tol: float = 1e-10
    fit_max_iter: int = 20000
    kmeans_max_iter: int = 300
    kmeans_retries: int = 5
    drift: bool = False
    trajectories: int = 1

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = _plain(getattr(self, field.name))
            if not _same_kind(value, field.default):
                kind = type(field.default).__name__
                raise ValueError(
                    f"config key {field.name!r} must be {kind}, got {value!r}"
                )
            if isinstance(field.default, float):
                if abs(value) > sys.float_info.max:  # an int past the float range
                    value = math.inf if value > 0 else -math.inf
                value = float(value)
            object.__setattr__(self, field.name, value)
        object.__setattr__(self, "p_list", _check_p_list(self.p_list))
        for name, low in _MINIMUM.items():
            value = getattr(self, name)
            if not low <= value < math.inf:
                raise ValueError(
                    f"config key {name!r} must be finite and >= {low}, got {value!r}"
                )
        self.dumbbell()

    def child_seeds(self) -> dict:
        ss = np.random.SeedSequence(self.seed)
        topo, x1, km = (int(c.generate_state(1)[0]) for c in ss.spawn(3))
        return {"topology": topo, "x1": x1, "kmeans": km}

    def dumbbell(self) -> DumbbellConfig:
        return DumbbellConfig(
            far_weight=self.far_weight,
            near_weight=self.near_weight,
            bar=self.bar,
            coupling_density=self.coupling_density,
            coupling_scale=self.coupling_scale,
            seed=self.child_seeds()["topology"],
        )

    def fit_options(self) -> FitOptions:
        return FitOptions(tol=self.fit_tol, max_iter=self.fit_max_iter)

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


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    m: np.ndarray
    p: DualMatrix
    report: FitReport
    sweep: SweepTable
    detection: DetectionResult
    coarse: dict  # method -> CoarseGraining
    ei_micro: float
    ei_macro: dict  # method -> float


def random_initial_states(n: int, seed: int, count: int) -> list:
    """count (an integer >= 1) random probability vectors: uniform draws,
    normalized."""
    check_integer(count, "count", 1)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        x = rng.uniform(0.0, 1.0, size=n)
        states.append(x / x.sum())
    return states


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(f"stage '{name}' failed: {err}") from err


def stages(cfg: PipelineConfig):
    """Run the stages in order, each under _stage; yield (name, output).

    The outputs: the chain (the dumbbell TPM, or its DTPM under drift), the
    trajectories, the FitReport, SweepTable and DetectionResult, and for
    coarse-grain (method -> CoarseGraining, micro EI, method -> macro EI).
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
        trajectories = [simulate(chain, x1, cfg.t) for x1 in starts]
    yield "simulate", trajectories
    with _stage("fit"):
        pairs = (build_snapshots(traj) for traj in trajectories)
        report = fit_dtpm(stack_snapshots(pairs), cfg.fit_options())
    yield "fit", report
    with _stage("sweep"):
        # One decomposition of the fitted matrix serves the sweep and both
        # coarse-grainings.
        decomposition = decompose(report.p, cfg.group_tol)
        sweep = norm_sweep(decomposition, cfg.p_list)
    yield "sweep", sweep
    with _stage("detect"):
        detection = detect_k(sweep)
    yield "detect", detection
    with _stage("coarse-grain"):
        seed = cfg.child_seeds()["kmeans"]
        coarse = {
            method: coarse_grain(
                decomposition,
                detection.k_star,
                method=method,
                seed=seed,
                max_iter=cfg.kmeans_max_iter,
                retries=cfg.kmeans_retries,
            )
            for method in (WITH_INFINITESIMAL, WITHOUT_INFINITESIMAL)
        }
        ei_macro = {
            method: effective_information(cg.upsilon) for method, cg in coarse.items()
        }
        ei_micro = effective_information(report.p.s)
    yield "coarse-grain", (coarse, ei_micro, ei_macro)


def analyze(cfg: PipelineConfig) -> PipelineResult:
    """Run every stage in memory and return the assembled result.

    result.m is the generated chain, or its standard part under drift.
    """
    out = dict(stages(cfg))
    chain, report = out["generate"], out["fit"]
    m = chain.s if isinstance(chain, DualMatrix) else chain
    coarse, ei_micro, ei_macro = out["coarse-grain"]
    return PipelineResult(
        cfg, m, report.p, report, out["sweep"], out["detect"], coarse, ei_micro,
        ei_macro,
    )


def _write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_matrix(out: Path, name: str, matrix: np.ndarray, fmt: str) -> Path:
    if fmt == "csv":
        path = out / f"{name}.csv"
        write_matrix_csv(path, matrix)
        return path
    return _write_json(out / f"{name}.json", matrix_to_dict(matrix))


def _write_parts(out: Path, name: str, name_i: str, matrices: list, fmt: str) -> list:
    """name.* from the matrices side by side, or from their standard parts if
    they are dual, and then name_i.* from their infinitesimal parts."""
    if not isinstance(matrices[0], DualMatrix):
        return [_write_matrix(out, name, np.hstack(matrices), fmt)]
    return [
        _write_matrix(out, name, np.hstack([m.s for m in matrices]), fmt),
        _write_matrix(out, name_i, np.hstack([m.i for m in matrices]), fmt),
    ]


def _write_generate(out: Path, chain, fmt: str) -> list:
    return _write_parts(out, "generator", "generator_drift", [chain], fmt)


def _write_simulate(out: Path, runs: list, fmt: str) -> list:
    return _write_parts(out, "trajectory", "trajectory_infinitesimal", runs, fmt)


def _write_fit(out: Path, report: FitReport, fmt: str) -> list:
    parts = _write_parts(out, "p_standard", "p_infinitesimal", [report.p], fmt)
    return [*parts, _write_json(out / "fit.json", report.to_dict())]


def _write_sweep(out: Path, table: SweepTable, fmt: str) -> list:
    """sweep.csv in either format."""
    path = out / "sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write("k,p,standard,infinitesimal,delta_gamma\n")
        parts = (table.standard, table.infinitesimal, table.delta_gamma)
        for q, row in zip(table.p_list, np.stack(parts, axis=2).tolist()):
            for k, values in enumerate(row, start=1):
                fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (k, q, *values))
    return [path]


def _write_detect(out: Path, detection: DetectionResult, fmt: str) -> list:
    return [_write_json(out / "detection.json", detection.to_dict())]


def _write_coarse(out: Path, output: tuple, fmt: str) -> list:
    """coarse.json: each method's coarse-graining and its EI comparison."""
    coarse, ei_micro, ei_macro = output
    payload = {
        method: {
            **cg.to_dict(),
            "ei_macro": ei_macro[method],
            "ei_micro": ei_micro,
            "emergent": bool(ei_macro[method] > ei_micro),
        }
        for method, cg in sorted(coarse.items())
    }
    return [_write_json(out / "coarse.json", payload)]


# Stage name -> writer(out, output, fmt) of that stage's files, where output
# is what `stages` yields for it; each writer returns the paths it wrote.
WRITERS = {
    "generate": _write_generate,
    "simulate": _write_simulate,
    "fit": _write_fit,
    "sweep": _write_sweep,
    "detect": _write_detect,
    "coarse-grain": _write_coarse,
}


def manifest_payload(result: PipelineResult) -> dict:
    """Everything needed to reproduce the run; deliberately no timestamps."""
    cfg = result.config
    return {
        "config": cfg.to_dict(),
        "child_seeds": cfg.child_seeds(),
        "tolerances": {
            "rank_tol": RANK_TOL,
            "group_tol": cfg.group_tol,
            "stochastic_tol": STOCHASTIC_TOL,
            "fit_tol": cfg.fit_tol,
        },
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "fit": result.report.to_dict(),
        "ei": {
            "micro": result.ei_micro,
            "macro": dict(sorted(result.ei_macro.items())),
        },
    }


def _check_fmt(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")


def run_pipeline(cfg: PipelineConfig, out_dir, fmt: str = "csv") -> dict:
    """Run all stages and write the artifact set into out_dir.

    Returns the manifest payload.  A bad fmt is rejected before any stage
    runs.
    """
    _check_fmt(fmt)
    result = analyze(cfg)
    write_artifacts(result, out_dir, fmt)
    return manifest_payload(result)


def write_artifacts(result: PipelineResult, out_dir, fmt: str = "csv") -> list:
    """Write the artifact set of an analyzed run into out_dir.

    The files of generate (from result.m, so never generator_drift.*), fit,
    sweep, detect and coarse-grain, each through its writer in WRITERS, then
    manifest.json.  Returns the paths written.
    """
    _check_fmt(fmt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {
        "generate": result.m,
        "fit": result.report,
        "sweep": result.sweep,
        "detect": result.detection,
        "coarse-grain": (result.coarse, result.ei_micro, result.ei_macro),
    }
    paths = []
    for name, output in outputs.items():
        paths += WRITERS[name](out, output, fmt)
    return [*paths, _write_json(out / "manifest.json", manifest_payload(result))]
