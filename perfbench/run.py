"""dualce benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload pipeline-n85 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last line
of standard output is a JSON object whose metrics are the end-to-end ones
(setup_s, analysis_s, peak_rss_mb); with ``--trace 1`` it holds the
per-layer metrics, and the spans go to ``.bench_out/`` at the checkout
root.  Earlier lines give the environment, one line per analysis and a
summary with the error rate (failed / attempted analyses).

BLAS runs on one thread: on a small shared host that is both faster and
steadier than the default, and the recorded references were made so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans  # stdlib only at import; bench imports numpy, so it waits for set_up

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pipeline-n85", "pipeline-n175", "ensemble-n85")
# Set-up is measured in this process and in this many fresh processes more;
# the median is reported.
SETUP_PROBES = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up, print the seconds and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_checkout():
    """dualce from this checkout's src/, and the benchmark's own modules."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dualce
    import bench

    if Path(dualce.__file__).resolve().parent != SRC / "dualce":
        raise ImportError(f"dualce imported from {dualce.__file__}, not from {SRC}")
    return dualce, bench


def set_up(workload_name):
    """Import dualce and build the workload's inputs."""
    dualce, bench = import_checkout()
    workload = bench.WORKLOADS[workload_name]
    reference = bench.load_reference(workload_name)
    [workload.config(dualce, seed) for seed in reference]
    return dualce, bench, workload, reference


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seeds):
    import numpy as np

    deps = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy without the dicts mode
        pass
    return {
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seeds": seeds,
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualce" / "__init__.py").is_file():
        print(f"error: no dualce package under {SRC}", file=sys.stderr)
        return 2

    pin_blas_threads()
    t0 = time.perf_counter()
    dualce, bench, workload, reference = set_up(args.workload)
    setup_here = time.perf_counter() - t0
    calibrate = bench.Calibration()
    setup_here *= calibrate.factor(calibrate())
    if args.setup_probe:
        print(repr(setup_here))
        return 0
    setup_samples = [setup_here] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(spans.trace_points(dualce))
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            run = bench.measure(dualce, workload, args.seed, args.seconds, Path(scratch),
                                reference, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment([a.seed for a in run.analyses])
    print("environment " + json.dumps(env, sort_keys=True))
    untraced = run.timed(traced=False)
    analysis_s = statistics.median(a.norm_seconds for a in untraced)
    wall_s = statistics.median(a.seconds for a in untraced)
    setup_s = statistics.median(setup_samples)
    print(f"summary {workload.name}: setup_s={setup_s:.4f} s (median of "
          f"{len(setup_samples)}) analysis_s={analysis_s:.4f} s (median of {len(untraced)}; "
          f"wall {wall_s:.4f} s) peak_rss_mb={peak_rss_mb:.1f} MB "
          f"error_rate={run.failed / run.attempted:.4g} ({run.failed}/{run.attempted})")

    if args.trace:
        traced_ids = [(workload.name, a.seed, a.repeat) for a in run.analyses
                      if a.traced and not a.failures]
        ratios = [t / u for u, t in run.overhead_pairs]
        metrics = spans.layer_metrics(tracer, traced_ids, statistics.median(ratios))
        totals = tracer.layer_totals()
        for aid in traced_ids:
            layer = totals[aid]
            print(f"layers {aid[0]} seed={aid[1]} repeat={aid[2]}: "
                  f"fit_standard.iters={tracer.counters[(aid, 'fitting.fit_standard.iters')]:.0f} "
                  f"fit_infinitesimal.iters="
                  f"{tracer.counters[(aid, 'fitting.fit_infinitesimal.iters')]:.0f} "
                  f"linalg.svd.calls={layer['linalg.svd']['calls']}")
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "environment": env,
            "metrics": metrics,
            "layers": [{"analysis": list(aid), "layers": totals[aid]} for aid in traced_ids],
            "spans": tracer.span_records(),
        }))
        print(f"trace written to {trace_file}")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "analysis_s": metric(analysis_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
