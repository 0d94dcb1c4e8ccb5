"""Command-line interface for the causal-emergence pipeline.

Every subcommand re-derives its inputs deterministically from the resolved
configuration (config file defaults, overridden by flags), so running
`sweep` does not require having run `fit` first; the stages always agree
for a given seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .fitting import build_snapshots, fit_dtpm
from .markov import dumbbell_tpm, simulate
from .pipeline import (
    PipelineConfig,
    StageError,
    _write_json,
    _write_matrix,
    analyze,
    coarse_grain_methods,
    detect_k,
    norm_sweep,
    random_initial_state,
    write_artifacts,
    write_sweep_csv,
)


def _parse_p_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad p-list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("p-list must contain at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualce",
        description="Causal-emergence analysis of Markov chains via dual norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": "write the benchmark transition matrix",
        "simulate": "write the simulated trajectory",
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
    cfg = PipelineConfig.from_dict(data)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.p_list is not None:
        overrides["p_list"] = args.p_list
    if args.group_tol is not None:
        overrides["group_tol"] = args.group_tol
    if overrides:
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _prepared(cfg: PipelineConfig):
    seeds = cfg.child_seeds()
    m = dumbbell_tpm(cfg.dumbbell())
    x1 = random_initial_state(m.shape[0], seeds["x1"])
    traj = simulate(m, x1, cfg.t)
    return seeds, m, traj


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: bad configuration: {err}", file=sys.stderr)
        return 2
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "pipeline":
            result = analyze(cfg)
            write_artifacts(result, out, fmt=args.format)
            print(
                f"pipeline complete: k_star={result.detection.k_star}, "
                f"artifacts in {out}"
            )
            return 0

        if args.command == "generate":
            _, m, _ = _prepared(cfg)
            path = _write_matrix(out, "generator", m, args.format)
            _write_json(out / "config.json", cfg.to_dict())
            print(f"wrote {path}")
            return 0

        if args.command == "simulate":
            _, _, traj = _prepared(cfg)
            path = _write_matrix(out, "trajectory", traj, args.format)
            print(f"wrote {path} ({traj.shape[0]} states, {traj.shape[1]} steps)")
            return 0

        _, _, traj = _prepared(cfg)
        report = fit_dtpm(build_snapshots(traj), cfg.fit_options())

        if args.command == "fit":
            _write_matrix(out, "p_standard", report.p.s, args.format)
            _write_matrix(out, "p_infinitesimal", report.p.i, args.format)
            _write_json(out / "fit.json", report.to_dict())
            print(
                f"fit done: objectives ({report.objective_s:.6g}, "
                f"{report.objective_i:.6g}), wrote 3 files to {out}"
            )
            return 0

        table = norm_sweep(report.p, cfg.p_list, group_tol=cfg.group_tol)

        if args.command == "sweep":
            write_sweep_csv(out / "sweep.csv", table)
            print(f"wrote {out / 'sweep.csv'} ({len(table.records)} rows)")
            return 0

        detection = detect_k(table)

        if args.command == "detect":
            write_sweep_csv(out / "sweep.csv", table)
            _write_json(out / "detection.json", detection.to_dict())
            print(f"k_star={detection.k_star} (unanimous={detection.unanimous})")
            return 0

        # coarse-grain
        coarse = coarse_grain_methods(report.p, detection.k_star, cfg)
        payload = {method: cg.to_dict() for method, cg in coarse.items()}
        _write_json(out / "coarse.json", payload)
        print(f"coarse-grained to k={detection.k_star}, wrote {out / 'coarse.json'}")
        return 0

    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error in {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
