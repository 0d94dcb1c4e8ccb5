"""Command-line interface for the causal-emergence pipeline.

Every subcommand runs `pipeline.stages` on the resolved configuration
(config file defaults, overridden by flags) up to its own stage, so running
`sweep` does not require having run `fit` first, and writes each file with
the writer `pipeline` uses for it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import DualMatrix
from .pipeline import (
    PipelineConfig,
    StageError,
    _write_json,
    _write_matrix,
    analyze,
    stages,
    write_artifacts,
    write_coarse,
    write_fit,
    write_sweep_csv,
)


def _parse_p_list(text: str):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad p-list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualce",
        description="Causal-emergence analysis of Markov chains via dual norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": "write the benchmark transition matrix",
        "simulate": "write the simulated trajectories",
        "fit": "fit the dual transition matrix and write both parts",
        "sweep": "write the dual Ky Fan (k, p) norm sweep",
        "detect": "write the detected class count",
        "coarse-grain": "write the coarse-grained reduced matrices",
        "pipeline": "run every stage and write the full artifact set",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=None, help="master seed")
        cmd.add_argument(
            "--config", type=Path, default=None, help="JSON config file"
        )
        cmd.add_argument(
            "--out", type=Path, default=Path("out"), help="output directory"
        )
        cmd.add_argument(
            "--p-list",
            type=_parse_p_list,
            default=None,
            help="comma-separated p values in [1, 2), e.g. 1.3,1.6,1.9",
        )
        cmd.add_argument(
            "--group-tol",
            type=float,
            default=None,
            help="relative gap for grouping repeated singular values",
        )
        cmd.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="matrix output format",
        )
    return parser


def resolve_config(args) -> PipelineConfig:
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
    overrides = {"seed": args.seed, "p_list": args.p_list, "group_tol": args.group_tol}
    data.update((k, v) for k, v in overrides.items() if v is not None)
    return PipelineConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: bad configuration: {err}", file=sys.stderr)
        return 2

    # Run the stages up to this subcommand's own; --out is made only once
    # they have all succeeded.
    try:
        if args.command == "pipeline":
            result = analyze(cfg)
        else:
            done = {}
            for name, output in stages(cfg):
                done[name] = output
                if name == args.command:
                    break
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "pipeline":
            write_artifacts(result, out, fmt=args.format)
            print(
                f"pipeline complete: k_star={result.detection.k_star}, "
                f"artifacts in {out}"
            )
        elif args.command == "generate":
            chain = done["generate"]
            if isinstance(chain, DualMatrix):
                _write_matrix(out, "generator_drift", chain.i, args.format)
                chain = chain.s
            path = _write_matrix(out, "generator", chain, args.format)
            _write_json(out / "config.json", cfg.to_dict())
            print(f"wrote {path}")
        elif args.command == "simulate":
            # Trajectories side by side; a drifting chain's also carry an
            # infinitesimal part.
            trajs = done["simulate"]
            if isinstance(trajs[0], DualMatrix):
                traj = np.hstack([t.s for t in trajs])
                _write_matrix(
                    out, "trajectory_infinitesimal", np.hstack([t.i for t in trajs]),
                    args.format,
                )
            else:
                traj = np.hstack(trajs)
            path = _write_matrix(out, "trajectory", traj, args.format)
            print(
                f"wrote {path} ({traj.shape[0]} states, "
                f"{len(trajs)} x {cfg.t + 2} steps)"
            )
        elif args.command == "fit":
            report = done["fit"]
            write_fit(out, report, args.format)
            print(
                f"fit done: objectives ({report.objective_s:.6g}, "
                f"{report.objective_i:.6g}), wrote 3 files to {out}"
            )
        elif args.command == "sweep":
            table = done["sweep"]
            write_sweep_csv(out / "sweep.csv", table)
            print(f"wrote {out / 'sweep.csv'} ({len(table.records)} rows)")
        elif args.command == "detect":
            detection = done["detect"]
            write_sweep_csv(out / "sweep.csv", done["sweep"])
            _write_json(out / "detection.json", detection.to_dict())
            print(f"k_star={detection.k_star} (unanimous={detection.unanimous})")
        else:  # coarse-grain
            write_coarse(out, *done["coarse-grain"])
            k_star = done["detect"].k_star
            print(f"coarse-grained to k={k_star}, wrote {out / 'coarse.json'}")
    except OSError as err:
        print(f"error in {args.command}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
