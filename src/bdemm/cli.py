"""Command line front end.

Two subcommands:

``bdemm toy``
    Run the robust-filtering benchmark and write summary.txt, runs.csv and
    weights.csv into --out.
``bdemm stream``
    Filter a CSV of observations through an engine described by a config
    file; write a per-step CSV.

Exit codes: 0 on success, 1 on usage, config, parse or file errors (a bad
config value is caught before any row is read), 2 on numeric failures (a
library error raised by an engine mid-run) and when memory runs out (a
particle count too large to allocate, say), each with the command's own
one-line message and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BdemmError, ConfigError, ParseError
from .toy import ToyConfig, run_toy_experiment, summary_text, write_report
from .wtt import KINDS


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bdemm",
                     description="dynamic Bayesian model ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="run the robust-filtering benchmark")
    toy.add_argument("--runs", type=int, default=ToyConfig.runs,
                     help="independent Monte Carlo runs (default %(default)s)")
    toy.add_argument("--particles", type=int, default=ToyConfig.particles,
                     help="particles per filter (default %(default)s)")
    toy.add_argument("--seed", type=int, default=ToyConfig.seed,
                     help="master seed (default %(default)s)")
    toy.add_argument("--alpha", type=float, default=ToyConfig.forgetting_alpha,
                     help="forgetting exponent (default %(default)s)")
    toy.add_argument("--wtt", default=ToyConfig.wtt_kind,
                     choices=KINDS,
                     help="weight-transition operator (default %(default)s)")
    toy.add_argument("--out", required=True, metavar="DIR",
                     help="directory for summary.txt, runs.csv, weights.csv")

    stream = sub.add_parser("stream", help="filter a CSV of observations")
    stream.add_argument("--config", required=True, metavar="FILE",
                        help="flat key-value engine config")
    stream.add_argument("--input", required=True, metavar="CSV",
                        help="headerless CSV, one observation per row")
    stream.add_argument("--out", required=True, metavar="CSV",
                        help="per-step output CSV")
    return parser


def _cmd_toy(args) -> int:
    try:
        config = ToyConfig(runs=args.runs, particles=args.particles,
                           seed=args.seed, forgetting_alpha=args.alpha,
                           wtt_kind=args.wtt)
        os.makedirs(args.out, exist_ok=True)  # fail before the batch runs
    except (BdemmError, OSError) as exc:
        print("bdemm toy: %s" % exc, file=sys.stderr)
        return 1
    try:
        report = run_toy_experiment(config)
        paths = write_report(report, args.out)
    except OSError as exc:
        print("bdemm toy: %s" % exc, file=sys.stderr)
        return 1
    except BdemmError as exc:
        print("bdemm toy: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(summary_text(report))
    print("wrote: " + ", ".join(paths))
    return 0


def _cmd_stream(args) -> int:
    from .stream import run_stream

    try:
        rows = run_stream(args.config, args.input, args.out)
    except (ConfigError, ParseError, OSError) as exc:
        print("bdemm stream: %s" % exc, file=sys.stderr)
        return 1
    except BdemmError as exc:
        print("bdemm stream: numeric failure: %s" % exc, file=sys.stderr)
        return 2
    print("wrote %d row(s) to %s" % (rows, args.out))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return (_cmd_toy if args.command == "toy" else _cmd_stream)(args)
    except MemoryError as exc:  # a size read from input, say
        print("bdemm %s: out of memory: %s" % (args.command, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
