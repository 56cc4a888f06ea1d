"""
Command-line front end: `wplab <experiment> [flags]`.

Exit codes: 0 success, 1 usage error, 2 budget exceeded, 3 internal
check failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .lab import (
    BUDGET_HARD_WARNING,
    EXPERIMENTS,
    LabConfig,
    load_config_file,
    render_input,
    resolve_config,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from .random_model import BudgetExceeded, CutoffLength

USAGE_EXIT = 1
BUDGET_EXIT = 2
INTERNAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}")


def _cutoff(text: str) -> CutoffLength:
    try:
        return CutoffLength.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> _Parser:
    docs = "\n".join(f"  {name:<20} {exp.doc}" for name, exp in EXPERIMENTS.items())
    parser = _Parser(
        prog="wplab",
        description="Exact volume engine and asymptotics verification lab.",
        epilog="experiments (columns: experiment,input,exact,numeric,reference,"
        f"deviation,status,warnings):\n{docs}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", help="experiment name (see below)")
    parser.add_argument("--budget", type=int, default=None, help="max 3g-3+n (default 18)")
    parser.add_argument("--digits", type=int, default=None, help="evaluation digits (default 30)")
    parser.add_argument("--gmin", type=int, default=None)
    parser.add_argument("--gmax", type=int, default=None)
    parser.add_argument("--nmin", type=int, default=None)
    parser.add_argument("--nmax", type=int, default=None)
    parser.add_argument("--a", type=_fraction, default=None, help="puncture growth rate a (rational)")
    parser.add_argument("--C", type=_fraction, default=None, help="ratio threshold C (rational)")
    parser.add_argument("--u", type=_fraction, default=None, help="split-sum scale u (rational)")
    parser.add_argument("--L", type=_cutoff, default=None, help="cutoff length, RAT or RATpi (e.g. 1/5pi)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--threads", type=int, default=None, help="accepted (>= 1); does not change the output"
    )
    parser.add_argument("--config", default=None, help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment not in EXPERIMENTS:
        parser.error(f"unknown experiment {args.experiment!r}; valid names: {', '.join(sorted(EXPERIMENTS))}")

    try:
        file_values = load_config_file(args.config) if args.config else None
        # one flag per LabConfig field; cache_dir has none
        flags = {f.name: getattr(args, f.name, None) for f in fields(LabConfig)}
        cfg = resolve_config(flags, file_values)
    except (OSError, ValueError) as exc:
        print(f"wplab: error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    if args.out:
        # fail before computing; an existing file keeps its content until the end
        existed = os.path.exists(args.out)
        try:
            with open(args.out, "a"):
                pass
        except OSError as exc:
            print(f"wplab: error: cannot write --out: {exc}", file=sys.stderr)
            return USAGE_EXIT
        if not existed:
            os.unlink(args.out)

    # only cache-warm builds the whole closure; the others compute what they read
    if args.experiment == "cache-warm" and cfg.budget > BUDGET_HARD_WARNING:
        print(
            f"wplab: warning: budget {cfg.budget} > {BUDGET_HARD_WARNING}; "
            "the bracket closure grows steeply",
            file=sys.stderr,
        )

    try:
        rows = run_experiment(args.experiment, cfg)
    except BudgetExceeded as exc:
        print(f"wplab: budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except AssertionError as exc:
        print(f"wplab: internal check failure: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except ValueError as exc:
        # an experiment rejected an input value outside its domain
        print(f"wplab: error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"wplab: error: cannot write --out: {exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(text)

    if EXPERIMENTS[args.experiment].hard_check:
        row = next((row for row in rows if row.status == "FAIL"), None)
        if row is not None:
            print(
                f"wplab: internal check failure: {row.experiment} row "
                f"{render_input(row.input)} failed, residual {row.exact}",
                file=sys.stderr,
            )
            return INTERNAL_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
