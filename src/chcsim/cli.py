"""Command-line entry point.

    chc-sim <kind> --config FILE [--seed S] [--out DIR] [--threads K]
    chc-sim plot --manifest FILE --series NAME [--out FILE]

Exit codes: 0 all in-run assertions passed, 2 configuration error, 3 stiff
event, 4 assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import ConfigError, parse_config, with_overrides
from .dynamics import StiffEventError
from .kinds import KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STIFF = 3
EXIT_ASSERTION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chc-sim",
        description="Spectral simulator and ergodicity test-bench for the "
        "conserved stochastic Cahn-Hilliard equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", default=None, help="override the worker threads")

    plot = sub.add_parser("plot", help="extract a plot-ready series from a run")
    plot.add_argument("--manifest", required=True)
    plot.add_argument("--series", required=True)
    plot.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "plot":
        try:
            path = runner.emit_plotdata(args.manifest, args.series, args.out)
        except (KeyError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(path)
        return EXIT_OK

    try:
        cfg = parse_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"kind: config declares {cfg.kind!r} but the command was {args.command!r}"
            )
        cfg = with_overrides(cfg, seed=args.seed, threads=args.threads)
        manifest = runner.run(cfg, override_out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StiffEventError as exc:
        print(f"stiff event: {exc}", file=sys.stderr)
        return EXIT_STIFF

    for name, ok in manifest.checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(manifest.path)
    return EXIT_OK if manifest.passed else EXIT_ASSERTION


if __name__ == "__main__":
    raise SystemExit(main())
