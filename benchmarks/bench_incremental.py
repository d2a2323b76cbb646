"""Rebuild-vs-incremental engine maintenance benchmark.

Compares the historical from-scratch elimination loop (a fresh
:class:`~repro.core.engine_v2.FlatImagesEngine` per deletion,
``incremental=False``) against the maintained-engine loop
(:meth:`~repro.core.engine_v2.FlatImagesEngine.delete_leaf`) on the Figure 7 and
Figure 8 workload generators, and records the containment-oracle cache
rates on a duplicated-branch oracle workload.

Run as a script (or via ``benchmarks/run_all.py``) to write the
machine-readable ``BENCH_incremental.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_incremental.py
    PYTHONPATH=src python benchmarks/bench_incremental.py --fast --out /tmp/b.json

All workloads are deterministic (fixed seeds); only the timings vary
between machines. The JSON schema is validated by
``tests/test_bench.py``.

The module doubles as a pytest-benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.experiments import incremental_workload
from repro.bench.timing import best_of
from repro.constraints.closure import closure
from repro.core.acim import acim_minimize
from repro.core.containment import ContainmentStats, mapping_targets
from repro.core.pattern import TreePattern
from repro.workloads.querygen import (
    chain_constraints,
    chain_query,
    duplicate_random_branch,
    random_query,
    redundancy_query,
)

__all__ = ["SCHEMA_VERSION", "DEFAULT_OUTPUT", "run_comparison", "main"]

SCHEMA_VERSION = 1

#: Default output artifact, at the repo root so the perf trajectory is
#: tracked in-tree from this PR onward.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_incremental.json"

#: Deterministic workload seed (redundancy_query placement).
SEED = 90

_FIG7_CHAIN_SIZES = (20, 50, 80, 101)
_FIG7_REDUNDANCY_PRODUCTS = (30, 60, 90)
_FIG8_SIZES = (20, 50, 80, 110, 140)

_FAST_FIG7_CHAIN_SIZES = (20, 40)
_FAST_FIG7_REDUNDANCY_PRODUCTS = (30,)
_FAST_FIG8_SIZES = (20, 40)


def _workloads(fast: bool) -> Iterator[tuple[str, float, TreePattern, object]]:
    """Yield ``(workload, x, query, closed_repo)`` rows, fixed seeds."""
    chain_sizes = _FAST_FIG7_CHAIN_SIZES if fast else _FIG7_CHAIN_SIZES
    products = _FAST_FIG7_REDUNDANCY_PRODUCTS if fast else _FIG7_REDUNDANCY_PRODUCTS
    fig8_sizes = _FAST_FIG8_SIZES if fast else _FIG8_SIZES

    for size in chain_sizes:
        yield "fig7-chain", size, chain_query(size), closure(chain_constraints(size))
    for product in products:
        query, driving = redundancy_query(
            101, red_nodes=product // 10, red_degree=10, seed=SEED
        )
        yield "fig7-redundancy", product, query, closure(driving)
    for shape in ("right-deep", "bushy"):
        for size in fig8_sizes:
            query, repo = incremental_workload(size, shape=shape)
            yield f"fig8-{shape}", size, query, repo


def _oracle_cache_rates(fast: bool) -> dict:
    """Containment-oracle cache rates on a duplicated-branch workload
    (same-type source classes and repeated d-child target sets — the
    regime the memoization exists for)."""
    stats = ContainmentStats()
    size = 16 if fast else 40
    base = random_query(size, types=["a", "b", "c"], seed=SEED)
    bloated = duplicate_random_branch(base, seed=SEED)
    # cache=None: this section measures the *per-run* memoization inside
    # one DP; the cross-query oracle cache (benchmarked separately in
    # bench_oracle_cache.py) would otherwise serve repeats 2-3 whole.
    elapsed = best_of(
        lambda: mapping_targets(bloated, base, stats=stats, cache=None), repeat=3
    )
    payload = dict(stats.counters())
    payload["mapping_targets_seconds"] = elapsed
    probes = stats.base_cache_hits + stats.base_cache_misses
    payload["base_hit_rate"] = stats.base_cache_hits / probes if probes else 0.0
    reaches = stats.reach_cache_hits + stats.reach_cache_misses
    payload["reach_hit_rate"] = stats.reach_cache_hits / reaches if reaches else 0.0
    return payload


def run_comparison(*, repeat: int = 3, fast: bool = False) -> dict:
    """Run the full comparison; return the ``BENCH_incremental.json``
    payload as a dict."""
    rows: list[dict] = []
    for workload, x, query, repo in _workloads(fast):
        rebuild_seconds = best_of(
            lambda: acim_minimize(query, repo, incremental=False), repeat=repeat
        )
        incremental_seconds = best_of(
            lambda: acim_minimize(query, repo), repeat=repeat
        )
        instrumented = acim_minimize(query, repo)
        counters = instrumented.images_stats.counters()
        rows.append(
            {
                "workload": workload,
                "x": x,
                "query_size": query.size,
                "removed": instrumented.removed_count,
                "virtual_targets": instrumented.virtual_count,
                "rebuild_seconds": rebuild_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup": rebuild_seconds / max(incremental_seconds, 1e-12),
                "engine_builds": counters["engine_builds"],
                "incremental_deletes": counters["incremental_deletes"],
                "base_cache_hits": counters["base_cache_hits"],
                "base_cache_misses": counters["base_cache_misses"],
            }
        )

    fig8 = [r for r in rows if r["workload"] == "fig8-right-deep"]
    largest = max(fig8, key=lambda r: r["x"])
    return {
        "benchmark": "incremental",
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "repeat": repeat,
        "fast": fast,
        "workloads": rows,
        "containment_cache": _oracle_cache_rates(fast),
        "summary": {
            "max_speedup": max(r["speedup"] for r in rows),
            "fig8_largest_size": largest["x"],
            "fig8_speedup_at_largest": largest["speedup"],
            "meets_3x_target": largest["speedup"] >= 3.0,
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Write ``BENCH_incremental.json``; exit 1 if the 3x target is
    missed (so CI catches regressions of the incremental path)."""
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
        f"wrote {args.out}: fig8 speedup at size {summary['fig8_largest_size']} "
        f"= {summary['fig8_speedup_at_largest']:.1f}x "
        f"(max across workloads {summary['max_speedup']:.1f}x)"
    )
    return 0 if summary["meets_3x_target"] else 1


# ---------------------------------------------------------------------------
# pytest-benchmark rows (same workloads, per-point timings)
# ---------------------------------------------------------------------------

try:  # pragma: no cover - optional dependency in script mode
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="incremental: ACIM maintained engine (fig8 right-deep)")
    @pytest.mark.parametrize("size", [20, 60, 100, 140])
    def test_incremental_engine(benchmark, size):
        query, repo = incremental_workload(size)
        result = benchmark(acim_minimize, query, repo)
        assert result.pattern.size == 1

    @pytest.mark.benchmark(group="incremental: ACIM rebuild-per-deletion baseline")
    @pytest.mark.parametrize("size", [20, 60, 100])
    def test_rebuild_engine(benchmark, size):
        query, repo = incremental_workload(size)
        result = benchmark(acim_minimize, query, repo, incremental=False)
        assert result.pattern.size == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
