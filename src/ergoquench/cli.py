"""Command-line entry point.

    ergoquench run --experiment <name> [--config <path>] [--out <dir>] [--svg]
    ergoquench list

Exit codes: 0 success, 2 configuration error (including an unreadable
--config or an output that cannot be written), 3 numerical invariant
violation during propagation.

`list`, `--help` and a config error, an experiment's name or chain size
included, answer from `config` and `registry` alone; the engine, and with
it numpy, loads only once `run` has a config `registry.resolve` accepts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, validate_config
from .registry import DESCRIPTIONS, resolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ergoquench",
                                     description="dissipative-quench battery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its CSV")
    run.add_argument("--experiment", required=True, help="registry name (see `ergoquench list`)")
    run.add_argument("--config", default=None, help="key=value config file (optional)")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--svg", action="store_true", help="also write SVG line plots")

    sub.add_parser("list", help="print the experiment registry")
    return parser


def run_experiment(config):
    """`experiments.run_experiment`, importing the engine on the first call."""
    from .experiments import run_experiment as run
    return run(config)


def _cmd_list() -> int:
    width = max(len(name) for name in DESCRIPTIONS)
    for name, description in DESCRIPTIONS.items():
        print(f"{name:<{width}}  {description}")
    return EXIT_OK


def _cmd_run(args) -> int:
    raw = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        config = validate_config(raw)
        explicit = set(config.explicit) | {"experiment"}
        updates = {"experiment": args.experiment}
        if args.out is not None:
            updates["output_dir"] = args.out
            explicit.add("output_dir")
        if args.svg:
            updates["emit_svg"] = True
            explicit.add("emit_svg")
        config = resolve(replace(config, explicit=frozenset(explicit), **updates))
        from .dynamics import InvariantViolation  # the engine loads only for a valid run
        try:
            paths = run_experiment(config)
        except InvariantViolation as exc:
            print(f"numerical invariant violation: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # creating the output directory or writing a file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in paths:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
