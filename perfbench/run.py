"""Run one benchmark workload and print its result as one JSON line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off (CPU-bound
times normalized to a nominal vCPU speed, see ``host.py``); ``--trace 1``
runs the workload half untraced, half traced and reports the per-layer
metrics instead. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; problems go to
standard error. Exit code 0 means every answer checked out and every
workload guard held, 1 a failed check, 2 a missing program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "solo_p50_ms": "ms",
    "equiv_p50_ms": "ms",
    "update_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Workload name -> module in this package.
WORKLOADS = {"cold-paper": "cold_paper", "hot-serve": "hot_serve", "churn-certified": "churn"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process multiprocessing starts for
    the spawned reference and prelude processes, so no process outlives
    the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        common.use_checkout_sources()
    except (common.ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import trace

    runner = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    os.makedirs(common.WORK, exist_ok=True)
    try:
        outcome = runner.run(args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()

    units = ({name: unit for name, unit, _ in trace.PER_LAYER} if args.trace
             else END_TO_END)
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    if outcome.tracer is not None:
        outcome.tracer.dump(os.path.join(
            common.WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for problem in outcome.problems:
        print(problem, file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in outcome.metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
