"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners. Exit codes: 0 on
success, 2 for an invalid configuration (including prior artifacts whose
size does not fit its geometry), 3 for a solver failure, 4 for I/O problems
(unreadable config, missing or unreadable prior artifacts, unwritable
output).
Set MORPHBEAM_LOG_LEVEL (DEBUG, INFO, ...) to control logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    MissingInputError,
    SolverFailure,
    run_beampattern,
    run_compare,
    run_optimize,
    run_sweep_power,
    run_sweep_range,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

LOG_LEVEL_ENV = "MORPHBEAM_LOG_LEVEL"


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _size_list(text: str) -> list[tuple[int, int]]:
    sizes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"sizes look like 10x10, got {tok!r}")
        try:
            sizes.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"sizes look like 10x10, got {tok!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphbeam",
        description="Waveform and surface-shape optimization for a morphable "
                    "planar sensing array.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON experiment config")
    common.add_argument("--out", default=None,
                        help="output directory (default: output.dir from the config)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override the config seed")

    sub.add_parser("optimize", parents=[seeded], help="run the configured scheme once")

    # the grid reads the optimize artifacts, so it takes no seed
    sub.add_parser("beampattern", parents=[common],
                   help="evaluate the angle grid for a previous optimize run").set_defaults(seed=None)

    p = sub.add_parser("sweep-power", parents=[seeded],
                       help="cumulated power of all schemes vs transmit power")
    p.add_argument("--p-t-dbm", type=_float_list, default=None,
                   help="comma-separated dBm levels (default: the config power)")

    p = sub.add_parser("sweep-range", parents=[seeded],
                       help="cumulated power vs morphing range, warm-started")
    p.add_argument("--d-max", type=_float_list, default=[0.0, 0.25, 0.5, 1.0],
                   help="comma-separated ranges in wavelengths")
    p.add_argument("--sizes", type=_size_list, default=None,
                   help="comma-separated array sizes like 10x10,8x8 "
                        "(default: the config geometry)")

    sub.add_parser("compare-schemes", parents=[seeded], help="run all four schemes and summarize")

    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is None:
        return cfg
    raw = cfg.to_dict()
    raw["seed"] = args.seed
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get(LOG_LEVEL_ENV, "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = Path(args.out) if args.out is not None else Path(cfg.output.dir)

    try:
        if args.command == "optimize":
            record = run_optimize(cfg, out_dir)
            print(f"{record.scheme}: {record.objective_dbm:.3f} dBm cumulated "
                  f"({record.objective_mw:.6g} mW), min target "
                  f"{record.min_target_dbm:.3f} dBm -> {out_dir}")
        elif args.command == "beampattern":
            dest = run_beampattern(cfg, out_dir)
            print(f"beampattern grid -> {dest}")
        elif args.command == "sweep-power":
            levels = args.p_t_dbm if args.p_t_dbm is not None else [cfg.p_t_dbm]
            rows = run_sweep_power(cfg, out_dir, levels)
            print(f"{len(rows)} sweep rows -> {out_dir / 'sweep_power.csv'}")
        elif args.command == "sweep-range":
            rows = run_sweep_range(cfg, out_dir, args.d_max, args.sizes)
            print(f"{len(rows)} sweep rows -> {out_dir / 'sweep_range.csv'}")
        elif args.command == "compare-schemes":
            records = run_compare(cfg, out_dir)
            for record in records:
                print(f"{record.scheme:9s} {record.objective_dbm:8.3f} dBm cumulated, "
                      f"min target {record.min_target_dbm:8.3f} dBm")
            print(f"summary -> {out_dir / 'summary.csv'}")
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, SolverFailure, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
