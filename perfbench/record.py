"""Record the reference outputs that a workload's analyses are checked against.

    python3 perfbench/record.py pipeline-n175

Runs every seed of the pool once, untimed, with the benchmark's BLAS
setting, and rewrites ``reference/<workload>.json``.  Re-record only when a
change is meant to move k*, the fitted matrix or the effective information,
and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import run

POOL = range(10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=run.WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    run.pin_blas_threads()
    dualce, bench = run.import_checkout()
    workload = bench.WORKLOADS[args.workload]
    seeds = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
        for cfg in (workload.config(dualce, seed) for seed in POOL):
            out = workload.outputs(dualce, workload.analyse(dualce, cfg, Path(scratch)))
            seeds[str(cfg.seed)] = {
                "k_star": out.k_star,
                "ei_micro": out.ei_micro,
                "ei_macro": out.ei_macro,
            }
            print(cfg.seed, seeds[str(cfg.seed)], flush=True)
    path = bench.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "environment": run.environment(list(POOL)), "seeds": seeds},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
