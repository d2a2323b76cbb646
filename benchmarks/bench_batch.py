"""Batch minimization benchmark: memoized backend + worker scaling.

Compares :class:`~repro.batch.BatchMinimizer` (constraint closure
computed once per repository, isomorphic queries replayed from the
fingerprint cache, distinct queries optionally fanned across worker
processes) against the naive serial loop ``[minimize(q, ics) for q in
workload]`` on the Figure 7/8-flavoured workloads of
:func:`repro.workloads.batch_workload`, and records the worker-scaling
curve at jobs 1/2/4/8 with memoization disabled (so every query is real
work for the pool).

Run as a script (or via ``benchmarks/run_all.py``) to write the
machine-readable ``BENCH_batch.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_batch.py
    PYTHONPATH=src python benchmarks/bench_batch.py --fast --out /tmp/b.json

All workloads are deterministic (fixed seeds); only the timings vary
between machines. The JSON schema is validated by ``tests/test_bench.py``.

The module doubles as a pytest-benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import MinimizeOptions
from repro.batch import BatchMinimizer
from repro.bench.timing import best_of
from repro.core.pipeline import minimize
from repro.parsing.sexpr import to_sexpr
from repro.workloads.batchgen import BATCH_WORKLOAD_KINDS, batch_workload

__all__ = ["SCHEMA_VERSION", "DEFAULT_OUTPUT", "run_comparison", "main"]

SCHEMA_VERSION = 1

#: Default output artifact, at the repo root so the perf trajectory is
#: tracked in-tree.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_batch.json"

#: Deterministic workload seed.
SEED = 7

_N_QUERIES, _DISTINCT, _SIZE = 40, 8, 40
_FAST_N_QUERIES, _FAST_DISTINCT, _FAST_SIZE = 12, 4, 20

_SCALING_JOBS = (1, 2, 4, 8)


def _grid(fast: bool) -> tuple[int, int, int]:
    return (
        (_FAST_N_QUERIES, _FAST_DISTINCT, _FAST_SIZE)
        if fast
        else (_N_QUERIES, _DISTINCT, _SIZE)
    )


def _minimize_all(constraints, options: MinimizeOptions, queries):
    """One cold batch run: a fresh minimizer (closure, memo and, for
    ``jobs > 1``, its worker pool), closed before it returns."""
    with BatchMinimizer(constraints, options) as minimizer:
        return minimizer.minimize_all(queries)


def run_comparison(*, repeat: int = 3, fast: bool = False) -> dict:
    """Run the full comparison; return the ``BENCH_batch.json`` payload
    as a dict."""
    n_queries, distinct, size = _grid(fast)
    target_jobs = min(4, os.cpu_count() or 1)

    rows: list[dict] = []
    for kind in BATCH_WORKLOAD_KINDS:
        queries, constraints = batch_workload(
            n_queries, kind=kind, distinct=distinct, size=size, seed=SEED
        )
        serial_seconds = best_of(
            lambda: [minimize(q, constraints) for q in queries], repeat=repeat
        )
        batch_options = MinimizeOptions(jobs=target_jobs)
        batch_seconds = best_of(
            lambda: _minimize_all(constraints, batch_options, queries), repeat=repeat
        )
        run = _minimize_all(constraints, batch_options, queries)
        # The backend must be a drop-in for the loop: identical minimal
        # patterns, in order, for every jobs setting.
        serial_patterns = [minimize(q, constraints).pattern for q in queries]
        assert [to_sexpr(p) for p in run.patterns()] == [
            to_sexpr(p) for p in serial_patterns
        ], f"batch backend diverged from the serial loop on {kind!r}"
        rows.append(
            {
                "workload": kind,
                "n_queries": n_queries,
                "distinct_requested": distinct,
                "query_size": size,
                "serial_seconds": serial_seconds,
                "batch_seconds": batch_seconds,
                "speedup": serial_seconds / max(batch_seconds, 1e-12),
                "distinct_structures": run.stats.distinct,
                "cache_hits": run.stats.cache_hits,
                "hit_rate": run.stats.hit_rate,
                "removed": sum(item.removed_count for item in run),
                "jobs": run.stats.jobs,
            }
        )

    # Worker-scaling curve with memoization off, so all queries are
    # fresh work for the pool (on a 1-core machine this is flat — the
    # point of recording it is the trajectory across machines).
    queries, constraints = batch_workload(
        n_queries, kind="fig8", distinct=distinct, size=size, seed=SEED
    )
    scaling: list[dict] = []
    for jobs in _SCALING_JOBS:
        scaling_options = MinimizeOptions(jobs=jobs, memoize=False)
        seconds = best_of(
            lambda: _minimize_all(constraints, scaling_options, queries), repeat=repeat
        )
        scaling.append({"jobs": jobs, "seconds": seconds})
    base = scaling[0]["seconds"]
    for row in scaling:
        row["speedup_vs_serial"] = base / max(row["seconds"], 1e-12)

    at_target = max(r["speedup"] for r in rows)
    return {
        "benchmark": "batch",
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "repeat": repeat,
        "fast": fast,
        "cpu_count": os.cpu_count() or 1,
        "workloads": rows,
        "scaling": scaling,
        "summary": {
            "target_jobs": target_jobs,
            "speedup_at_target_jobs": at_target,
            "best_hit_rate": max(r["hit_rate"] for r in rows),
            "meets_2x_target": at_target >= 2.0,
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Write ``BENCH_batch.json``; exit 1 if the 2x target is missed
    (so CI catches regressions of the batch backend)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--fast", action="store_true", help="small grid (smoke tests / CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUTPUT, help="output JSON path"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    payload = run_comparison(repeat=args.repeat, fast=args.fast)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    summary = payload["summary"]
    print(
        f"wrote {args.out}: {summary['speedup_at_target_jobs']:.1f}x over the "
        f"serial loop at jobs={summary['target_jobs']} "
        f"(best hit rate {summary['best_hit_rate']:.0%})"
    )
    return 0 if summary["meets_2x_target"] else 1


# ---------------------------------------------------------------------------
# pytest-benchmark rows (same workloads, per-point timings)
# ---------------------------------------------------------------------------

# Defined only when pytest collects this module: a script run, and every
# pool worker that re-imports the script as its main module, skips the
# pytest import.
pytest = sys.modules.get("pytest")

if pytest is not None:

    @pytest.mark.benchmark(group="batch: memoized backend (fig8 workload)")
    @pytest.mark.parametrize("n_queries", [10, 20, 40])
    def test_batch_backend(benchmark, n_queries):
        queries, constraints = batch_workload(
            n_queries, kind="fig8", distinct=_FAST_DISTINCT, size=_FAST_SIZE, seed=SEED
        )
        minimizer = BatchMinimizer(constraints)
        result = benchmark(minimizer.minimize_all, queries)
        assert len(result) == n_queries

    @pytest.mark.benchmark(group="batch: serial minimize loop baseline")
    @pytest.mark.parametrize("n_queries", [10, 20, 40])
    def test_serial_loop(benchmark, n_queries):
        queries, constraints = batch_workload(
            n_queries, kind="fig8", distinct=_FAST_DISTINCT, size=_FAST_SIZE, seed=SEED
        )
        result = benchmark(lambda: [minimize(q, constraints) for q in queries])
        assert len(result) == n_queries


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
