"""Print setup_s, analysis_s, peak_rss_mb and error_rate for every workload.

    python3 perfbench/report.py [--seconds 45] [--seed 0]

Each workload runs in a fresh process through run.py, one after the other,
so they never share the two cores.  pipeline-n175 is included although
BENCHMARK.json does not gate it (see README.md).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rows = []
    env = None
    for name in run.WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=args.seconds + 300, cwd=run.ROOT)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        env = json.loads(next(ln for ln in lines if ln.startswith("environment "))[12:])
        row = {"workload": name, "attempted": result["attempted"], "failed": result["failed"],
               "error_rate": result["failed"] / result["attempted"],
               "metrics": result["metrics"], "seeds": env.pop("seeds")}
        rows.append(row)
        m = result["metrics"]
        print(f"{name:14s} setup_s={m['setup_s']['value']:.4f} s  "
              f"analysis_s={m['analysis_s']['value']:.4f} s  "
              f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB  "
              f"error_rate={row['error_rate']:.4g} ({row['failed']}/{row['attempted']})",
              flush=True)
    print(json.dumps({"environment": env, "seconds": args.seconds, "workloads": rows},
                     sort_keys=True))
    return 0 if all(r["failed"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
