"""Workloads, output checks and the measuring loop of the dualce benchmark.

An analysis is one seed carried from the generator to the coarse-grained
effective information.  Each workload draws its seeds from a pool of
recorded seeds (``reference/<workload>.json``), because every output is
checked against a recorded reference; ``--seed n`` picks the pool rotated
to start at ``n mod len(pool)``.

Workloads (why each one is here):

- ``pipeline-n85``: the default 85-state config through ``run_pipeline``
  into a scratch directory.  The case users run; fitting is about 60% of
  the work and the sweep about 30%.  The only workload that writes
  artifacts, so the only one that checks their bytes repeat.
- ``pipeline-n175``: the same config with ``far_weight=70`` through
  ``analyze``.  The O(n^4) sweep (1053 full SVDs) is about half the call,
  so decomposition reuse shows here and barely on n85.
- ``ensemble-n85``: each seed's default generator fitted from 100 random
  5-step trajectories, then the public stage functions.  The Gram is full
  rank and the infinitesimal fit converges in ~50 iterations, so low-rank
  Gram tricks and ``fit_infinitesimal`` changes are bypassed here; some
  seeds detect a large k*, which loads k-means and ``coarse_grain``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance on ei_micro / ei_macro against the reference, scaled
# by max(1, |reference|).  Runs are bit-reproducible with the BLAS thread
# count pinned, so anything above float noise is a behaviour change.
EI_RTOL = 1e-9

# Host speed on a shared machine drifts by up to 40% over minutes (measured
# on a 2-vCPU x86_64 VM: a fixed 85x85 SVD loop took 0.37-0.53 s), more
# than any bound a benchmark could hold.  So every timing is also taken in
# host-normalized seconds: wall seconds times CAL_REF_S / c, where c is the
# time of a fixed numpy kernel (the SVD, matmul and sort/cumsum dualce
# spends its time in, no dualce code) run right before and after the timed
# call, and CAL_REF_S is that kernel's median time on the host above.
CAL_REF_S = 0.09

ENSEMBLE_TRAJECTORIES = 100
ENSEMBLE_STEPS = 5

METHODS = ("with_infinitesimal", "without_infinitesimal")


@dataclass
class Outputs:
    """What an analysis hands the user, as the checks see it."""

    k_star: int
    p: object  # DualMatrix
    upsilons: dict  # method -> reduced TPM
    ei_micro: float
    ei_macro: dict  # method -> float
    digest: str | None = None
    artifact_bytes: int = 0


@dataclass
class Analysis:
    seed: int
    repeat: int
    traced: bool
    timed: bool
    seconds: float  # wall
    norm_seconds: float = 0.0  # host-normalized
    failures: list = field(default_factory=list)


class Calibration:
    """The fixed host-speed kernel; inputs are built on the first call."""

    def __init__(self):
        self._inputs = None

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        if self._inputs is None:
            rng = np.random.default_rng(20240617)
            self._inputs = (rng.random((85, 85)), rng.random((85, 500)))
            self()  # first-call costs stay out of every measurement
        a, b = self._inputs
        start = time.perf_counter()
        for _ in range(36):
            np.linalg.svd(a)
        x = a
        for _ in range(450):
            x = a @ x
            x = x / x.max()
        for _ in range(60):
            np.sort(b, axis=0)
            np.cumsum(b, axis=0)
        return time.perf_counter() - start

    def factor(self, *samples) -> float:
        """Multiplier from wall to host-normalized seconds."""
        return CAL_REF_S / statistics.fmean(samples)


# ---------------------------------------------------------------------------
# workloads


def _run_pipeline(dualce, cfg, scratch: Path):
    out = scratch / f"seed{cfg.seed}"
    dualce.pipeline.run_pipeline(cfg, out)
    return out


def _artifact_outputs(dualce, out: Path) -> Outputs:
    """Read the written artifacts back; the directory is removed after."""
    try:
        markov = dualce.markov
        files = sorted(f for f in out.iterdir() if f.is_file())
        digest = hashlib.sha256()
        size = 0
        for f in files:
            data = f.read_bytes()
            digest.update(f.name.encode() + b"\0" + data + b"\0")
            size += len(data)
        k_star = json.loads((out / "detection.json").read_text())["k_star"]
        coarse = json.loads((out / "coarse.json").read_text())
        p = dualce.DualMatrix(
            markov.read_matrix_csv(out / "p_standard.csv"),
            markov.read_matrix_csv(out / "p_infinitesimal.csv"),
        )
        return Outputs(
            k_star=int(k_star),
            p=p,
            upsilons={m: markov.matrix_from_dict(coarse[m]["upsilon"]) for m in METHODS},
            ei_micro=float(coarse[METHODS[0]]["ei_micro"]),
            ei_macro={m: float(coarse[m]["ei_macro"]) for m in METHODS},
            digest=digest.hexdigest(),
            artifact_bytes=size,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _analyze(dualce, cfg, scratch: Path):
    return dualce.pipeline.analyze(cfg)


def _result_outputs(dualce, result) -> Outputs:
    return Outputs(
        k_star=result.detection.k_star,
        p=result.p,
        upsilons={m: result.coarse[m].upsilon for m in METHODS},
        ei_micro=result.ei_micro,
        ei_macro=dict(result.ei_macro),
    )


def _ensemble(dualce, cfg, scratch: Path):
    """Fit from an ensemble of short trajectories, then the stage functions.

    Every call goes through a module attribute, so the traced run sees the
    same call path as the untraced one.
    """
    markov, fitting, pipeline = dualce.markov, dualce.fitting, dualce.pipeline
    seeds = cfg.child_seeds()
    m = markov.dumbbell_tpm(cfg.dumbbell())
    rng = np.random.default_rng(seeds["x1"])
    pairs = []
    for _ in range(ENSEMBLE_TRAJECTORIES):
        x1 = rng.uniform(0.0, 1.0, size=m.shape[0])
        traj = markov.simulate(m, x1 / x1.sum(), ENSEMBLE_STEPS)
        pairs.append(fitting.build_snapshots(traj))

    def stack(part):
        return dualce.DualMatrix(
            np.hstack([part(q).s for q in pairs]), np.hstack([part(q).i for q in pairs])
        )

    pair = fitting.SnapshotPair(stack(lambda q: q.x), stack(lambda q: q.y))
    report = fitting.fit_dtpm(pair, cfg.fit_options())
    sweep = pipeline.norm_sweep(report.p, cfg.p_list, group_tol=cfg.group_tol)
    detection = pipeline.detect_k(sweep)
    coarse = {
        method: pipeline.coarse_grain(
            report.p,
            detection.k_star,
            method=method,
            seed=seeds["kmeans"],
            max_iter=cfg.kmeans_max_iter,
            retries=cfg.kmeans_retries,
            group_tol=cfg.group_tol,
        )
        for method in METHODS
    }
    return Outputs(
        k_star=detection.k_star,
        p=report.p,
        upsilons={method: cg.upsilon for method, cg in coarse.items()},
        ei_micro=markov.effective_information(report.p.s),
        ei_macro={
            method: markov.effective_information(cg.upsilon) for method, cg in coarse.items()
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    far_weight: int
    analyse: object  # (dualce, cfg, scratch) -> raw result; the timed call
    outputs: object  # (dualce, raw) -> Outputs; untimed
    # One untimed analysis of the first seed before timing.  Only the
    # artifact workload takes it: it gives every run a repeated seed whose
    # artifact bytes must match.
    warmup: bool = False

    def config(self, dualce, seed):
        return dualce.PipelineConfig(far_weight=self.far_weight, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-n85", 25, _run_pipeline, _artifact_outputs, warmup=True),
        Workload("pipeline-n175", 70, _analyze, _result_outputs),
        Workload("ensemble-n85", 25, _ensemble, lambda dualce, out: out),
    )
}


def load_reference(name: str) -> dict:
    """seed -> {k_star, ei_micro, ei_macro} recorded for a workload."""
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return {int(seed): entry for seed, entry in data["seeds"].items()}


def seed_order(pool, seed: int):
    """The pool rotated to start at seed mod len(pool), cycled forever."""
    pool = sorted(pool)
    start = seed % len(pool)
    return itertools.cycle(pool[start:] + pool[:start])


# ---------------------------------------------------------------------------
# checks (never inside a timed region)


def fd_spot_check(dualce, p, k: int, q: float) -> str | None:
    """Closed-form infinitesimal Ky Fan (k, q) part against the one-sided
    finite-difference oracle along P_i, with the acceptance suite's bound.
    Callers pass k = k* and cycle q through the sweep's p values by k*."""
    closed = dualce.matrix_norms.ky_fan_pk_norm(p, k, q).i

    def real_norm(m):
        sigma = np.linalg.svd(m, compute_uv=False)[:k]
        return float(np.sum(sigma**q) ** (1.0 / q))

    est = dualce.gateaux.fd_directional(real_norm, p.s, p.i)
    bound = max(1e-4, 1e-3 * abs(closed))
    if abs(est.value - closed) > bound:
        return f"ky_fan_pk_norm({k},{q}).i={closed:.6g} vs fd {est.value:.6g} (bound {bound:.3g})"
    return None


def check_outputs(dualce, out: Outputs, ref: dict, p_list) -> list:
    """Every check an analysis must pass; returns failure messages."""
    failures = []
    if out.k_star != ref["k_star"]:
        failures.append(f"k_star {out.k_star} != reference {ref['k_star']}")
    try:
        dualce.markov.validate_dtpm(out.p)
    except ValueError as err:
        failures.append(f"validate_dtpm: {err}")
    for method, upsilon in sorted(out.upsilons.items()):
        try:
            dualce.markov.validate_tpm(upsilon)
        except ValueError as err:
            failures.append(f"upsilon[{method}] not stochastic: {err}")

    def close(value, expected):
        return abs(value - expected) <= EI_RTOL * max(1.0, abs(expected))

    if not close(out.ei_micro, ref["ei_micro"]):
        failures.append(f"ei_micro {out.ei_micro!r} != reference {ref['ei_micro']!r}")
    for method in METHODS:
        if not close(out.ei_macro[method], ref["ei_macro"][method]):
            failures.append(
                f"ei_macro[{method}] {out.ei_macro[method]!r} != reference "
                f"{ref['ei_macro'][method]!r}"
            )
    p_fd = p_list[(out.k_star - 1) % len(p_list)]
    fd_failure = fd_spot_check(dualce, out.p, out.k_star, p_fd)
    if fd_failure:
        failures.append(fd_failure)
    return failures


# ---------------------------------------------------------------------------
# measuring loop


@dataclass
class RunResult:
    analyses: list
    overhead_pairs: list  # (untraced s, traced s) per seed, trace mode only

    @property
    def attempted(self) -> int:
        return len(self.analyses)

    @property
    def failed(self) -> int:
        return sum(1 for a in self.analyses if a.failures)

    def timed(self, traced: bool = False) -> list:
        return [a for a in self.analyses if a.timed and a.traced == traced]


def measure(dualce, workload: Workload, seed: int, seconds: float, scratch: Path,
            reference: dict, tracer=None, log=print) -> RunResult:
    """Run analyses for about `seconds` seconds and check every one.

    A new analysis (a traced/untraced pair when tracer is given) starts only
    if the median duration so far still fits before the deadline; the first
    always runs.  Failures are recorded, never raised.
    """
    p_list = dualce.PipelineConfig().p_list
    order = seed_order(reference, seed)
    repeats = {}
    digests = {}
    result = RunResult([], [])
    calibrate = Calibration()
    cal = [calibrate()]  # kernel time just before the next analysis

    def one(s, cfg, traced, timed):
        repeat = repeats.get(s, 0)
        repeats[s] = repeat + 1
        aid = (workload.name, s, repeat)
        rec = Analysis(s, repeat, traced, timed, 0.0)
        if traced:
            tracer.open(aid)
        start = time.perf_counter()
        try:
            raw = workload.analyse(dualce, cfg, scratch)
        except Exception as err:  # recorded as a failed analysis
            raw = None
            rec.failures.append(f"raised {type(err).__name__}: {err}")
        finally:
            rec.seconds = time.perf_counter() - start
            if traced:
                tracer.close()
        cal.append(calibrate())
        rec.norm_seconds = rec.seconds * calibrate.factor(cal[-2], cal[-1])
        if raw is not None:
            try:
                out = workload.outputs(dualce, raw)
                rec.failures += check_outputs(dualce, out, reference[s], p_list)
                if out.digest is not None:
                    first = digests.setdefault(s, out.digest)
                    if out.digest != first:
                        rec.failures.append("artifact bytes differ from the first run of this seed")
                if traced:
                    tracer.count("pipeline.artifact_bytes", out.artifact_bytes, aid)
            except Exception as err:  # a check that cannot run is a failure
                rec.failures.append(f"checking raised {type(err).__name__}: {err}")
        result.analyses.append(rec)
        status = "ok" if not rec.failures else "FAILED: " + "; ".join(rec.failures)
        log(f"analysis {workload.name} seed={s} repeat={repeat} traced={int(traced)} "
            f"timed={int(timed)} s={rec.seconds:.4f} norm_s={rec.norm_seconds:.4f} {status}")
        return rec

    if workload.warmup:
        first = next(seed_order(reference, seed))
        one(first, workload.config(dualce, first), traced=False, timed=False)

    start = time.perf_counter()
    durations = []
    for unit in itertools.count():
        s = next(order)
        cfg = workload.config(dualce, s)
        unit_start = time.perf_counter()
        if tracer is None:
            one(s, cfg, traced=False, timed=True)
        else:
            # Alternate which side of the pair runs first.
            sides = (False, True) if unit % 2 == 0 else (True, False)
            recs = {traced: one(s, cfg, traced, timed=True) for traced in sides}
            result.overhead_pairs.append((recs[False].norm_seconds, recs[True].norm_seconds))
        durations.append(time.perf_counter() - unit_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    return result
