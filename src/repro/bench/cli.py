"""Command-line entry point for the experiment harness.

Installed as ``tpq-bench`` (alias: ``repro-bench``)::

    tpq-bench fig8a                      # one experiment
    tpq-bench all --repeat 5             # everything
    tpq-bench fig9b --csv out.csv        # machine-readable dump
    tpq-bench all --json DIR             # one JSON file per figure
    tpq-bench --list
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import ALL_EXPERIMENTS, run_experiment
from .report import format_csv, format_json, format_markdown, format_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``tpq-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tpq-bench",
        description=(
            "Regenerate the evaluation figures of 'Minimization of Tree "
            "Pattern Queries' (SIGMOD 2001)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (see --list) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--repeat", type=int, default=None, help="timing repetitions per point (best-of)"
    )
    parser.add_argument("--no-plot", action="store_true", help="omit the ASCII plots")
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR_OR_FILE",
        help="also write CSV (a file for one experiment, a directory for several)",
    )
    parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write all results as one markdown report",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="DIR_OR_FILE",
        help=(
            "also write machine-readable JSON (a file for one experiment, "
            "a directory for several)"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the harness; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.list:
        for name, driver in ALL_EXPERIMENTS.items():
            doc = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {doc}")
        return 0

    names = args.experiments or []
    if "all" in names or not names:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}, all", file=sys.stderr)
        return 2

    results = []
    for name in names:
        result = run_experiment(name, repeat=args.repeat)
        results.append(result)
        print(format_report(result, plot=not args.no_plot))

    if args.csv is not None:
        if len(results) == 1 and (args.csv.suffix or not args.csv.exists()):
            targets = {results[0].name: args.csv}
        else:
            args.csv.mkdir(parents=True, exist_ok=True)
            targets = {r.name: args.csv / f"{r.name}.csv" for r in results}
        for result in results:
            path = targets[result.name]
            path.write_text(format_csv(result))
            print(f"wrote {path}")

    if args.json is not None:
        if len(results) == 1 and (args.json.suffix or not args.json.exists()):
            targets = {results[0].name: args.json}
        else:
            args.json.mkdir(parents=True, exist_ok=True)
            targets = {r.name: args.json / f"{r.name}.json" for r in results}
        for result in results:
            path = targets[result.name]
            path.write_text(format_json(result))
            print(f"wrote {path}")

    if args.markdown is not None:
        args.markdown.write_text(
            "\n".join(format_markdown(result) for result in results)
        )
        print(f"wrote {args.markdown}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
