"""Command-line front door.

Subcommands: audit, eigen-defense, fairness, init-compare, efficiency,
spectrum, validate.  Exit codes: 0 success, 1 check failure, 2 config
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigError, load_config
from .influence import SingularSpectrumError
from .models import BudgetError
from . import experiments


def _with_overrides(cfg, args):
    """cfg with each flag given; a value ExperimentConfig rejects names its flag."""
    limit = None if args.limit is None else min(args.limit, cfg.samples)
    for flag, key, value in (("--seed", "seed", args.seed), ("--out", "output_dir", args.out),
                             ("--limit", "samples", limit)):
        if value is not None:
            try:
                cfg = dataclasses.replace(cfg, **{key: value})
            except ConfigError as e:
                raise ConfigError(f"{flag}: {e}") from e
    return cfg


def seed(text):
    """validate's --seed: an integer >= 0 (argparse names this type in its errors)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="gradleak",
                                     description="Gradient-leakage privacy auditing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    runners = {
        "audit": experiments.run_audit,
        "eigen-defense": experiments.run_eigen_defense,
        "fairness": experiments.run_fairness,
        "init-compare": experiments.run_init_compare,
        "efficiency": experiments.run_efficiency,
        "spectrum": experiments.run_spectrum,
    }
    for name in runners:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--limit", type=int, default=None, help="cap the number of samples")
        p.set_defaults(runner=runners[name])
    v = sub.add_parser("validate")
    v.add_argument("--seed", type=seed, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        ok, lines = experiments.run_validate(seed=args.seed)
        for line in lines:
            print(line)
        return 0 if ok else 1
    try:
        cfg = _with_overrides(load_config(args.config), args)
        args.runner(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SingularSpectrumError, BudgetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"wrote results to {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
