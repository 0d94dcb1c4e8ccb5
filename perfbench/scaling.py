"""Scaling curve over n: one traced analyze() per point, each with a time cap.

    python3 perfbench/scaling.py [--cap 120]

far_weight 25, 68, 195 and 407 give n = 85, 171, 425 and 849 states (seed
0, every other setting at its default).  Each point runs in a fresh process;
a point that outlives the cap is stopped and recorded as skipped, not as
failed.  The stage split comes from the same wrappers as the traced
benchmark run.  Not gated: the last line is a JSON report with the
environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import run

FAR_WEIGHTS = (25, 68, 195, 407)
STAGES = {
    "generate": "markov.dumbbell_tpm",
    "simulate": "markov.simulate",
    "fit": "fitting.fit_dtpm",
    "sweep": "pipeline.norm_sweep",
    "detect": "pipeline.detect_k",
    "coarse_grain": "pipeline.coarse_grain",
    "effective_information": "markov.effective_information",
}


def point(far_weight: int) -> dict:
    """One traced analyze() at this far_weight, in this process."""
    run.pin_blas_threads()
    dualce, _ = run.import_checkout()
    import spans

    tracer = spans.Tracer()
    tracer.install(spans.trace_points(dualce))
    cfg = dualce.PipelineConfig(far_weight=far_weight)
    aid = ("scaling", cfg.seed, 0)
    tracer.open(aid)
    start = time.perf_counter()
    try:
        result = dualce.pipeline.analyze(cfg)
    finally:
        elapsed = time.perf_counter() - start
        tracer.close()
        tracer.uninstall()
    layers = tracer.layer_totals()[aid]
    return {
        "far_weight": far_weight,
        "n": cfg.dumbbell().n,
        "analysis_s": elapsed,
        "k_star": result.detection.k_star,
        "fit_iterations": list(result.report.iterations),
        "stages_s": {stage: layers[span]["s"] for stage, span in STAGES.items()},
        "linalg.svd.calls": layers["linalg.svd"]["calls"],
        "svd.cdsvd.s": layers["svd.cdsvd"]["s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cap", type=float, default=120.0, help="seconds allowed per point")
    ap.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point is not None:
        print(json.dumps(point(args.point)))
        return 0

    points = []
    for fw in FAR_WEIGHTS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--point", str(fw)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=args.cap, cwd=run.ROOT)
        except subprocess.TimeoutExpired:
            entry = {"far_weight": fw, "skipped": f"over the {args.cap:g} s cap"}
        else:
            entry = json.loads(done.stdout.splitlines()[-1])
        points.append(entry)
        print(json.dumps(entry), flush=True)
    run.pin_blas_threads()
    run.import_checkout()
    print(json.dumps({"environment": run.environment([0]), "cap_s": args.cap,
                      "points": points}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
