"""Command-line interface for the causal-emergence pipeline.

Every subcommand runs `pipeline.analyze` on the resolved configuration
(the config file's settings, with --seed overriding its seed) up to its own
stage, so running `sweep` does not require having run `fit` first;
`pipeline` runs every stage.  It then writes its stage's files with that
stage's writer in `pipeline.WRITERS`, or for `pipeline` the full artifact
set with `write_artifacts`, and prints one line naming the files written,
with k_star once detect has run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .pipeline import WRITERS, PipelineConfig, StageError, analyze, write_artifacts


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
    return parser


def resolve_config(args) -> PipelineConfig:
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    return PipelineConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as err:
        print(f"error: bad configuration: {err}", file=sys.stderr)
        return 2

    # Run the stages up to this subcommand's own; --out is made only once
    # they have all succeeded.
    command = args.command
    try:
        result = analyze(cfg, "coarse-grain" if command == "pipeline" else command)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out, outputs = args.out, result.outputs
    try:
        out.mkdir(parents=True, exist_ok=True)
        if command == "pipeline":
            paths = write_artifacts(result, out)
        else:
            paths = WRITERS[command](out, outputs[command])
    except OSError as err:
        print(f"error in {command}: {err}", file=sys.stderr)
        return 1
    detection = outputs.get("detect")
    k_star = "" if detection is None else f"k_star={detection.k_star}, "
    names = ", ".join(path.name for path in paths)
    print(f"{command} complete: {k_star}wrote {names} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
