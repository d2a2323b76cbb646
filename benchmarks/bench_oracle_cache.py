"""Containment-oracle cache benchmark: cached vs uncached.

Measures the content-keyed
:class:`~repro.core.oracle_cache.ContainmentOracleCache`, which serves
whole ``mapping_targets`` DP tables by isomorphism remap, against the
raw DP on the Figure 8(b) repeated-structure pair stream
(:func:`~repro.bench.experiments.oracle_cache_workload`), asserting
byte-for-byte equal tables. Minimization never consults this cache, so
there is no minimizer section.

Run as a script (or via ``benchmarks/run_all.py``) to write the
machine-readable ``BENCH_oracle_cache.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_oracle_cache.py
    PYTHONPATH=src python benchmarks/bench_oracle_cache.py --fast --out /tmp/b.json

All workloads are deterministic (fixed seeds); only the timings vary
between machines. The JSON schema is validated by ``tests/test_bench.py``.

The module doubles as a pytest-benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_oracle_cache.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.experiments import oracle_cache_workload
from repro.bench.timing import best_of
from repro.core.containment import mapping_targets
from repro.core.oracle_cache import ContainmentOracleCache

__all__ = ["SCHEMA_VERSION", "DEFAULT_OUTPUT", "run_comparison", "main"]

SCHEMA_VERSION = 3

#: Default output artifact, at the repo root so the perf trajectory is
#: tracked in-tree from this PR onward.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_oracle_cache.json"

#: Deterministic workload seed.
SEED = 91

_ORACLE_COUNTS = (8, 16, 24, 32)
_FAST_ORACLE_COUNTS = (8, 16)


def _run_pairs(pairs, cache):
    return [mapping_targets(s, t, cache=cache) for s, t in pairs]


def _oracle_section(*, repeat: int, fast: bool) -> dict:
    """Cross-query cache vs raw DP on the fig8 repeated-structure pair
    stream; a fresh cache per timed pass, so cold stores are included."""
    counts = _FAST_ORACLE_COUNTS if fast else _ORACLE_COUNTS
    rows: list[dict] = []
    for count in counts:
        pairs = oracle_cache_workload(count)
        uncached_seconds = best_of(lambda: _run_pairs(pairs, None), repeat=repeat)
        cached_seconds = best_of(
            lambda: _run_pairs(pairs, ContainmentOracleCache()), repeat=repeat
        )
        cache = ContainmentOracleCache()
        cached_tables = _run_pairs(pairs, cache)
        if cached_tables != _run_pairs(pairs, None):
            raise AssertionError(
                f"oracle cache diverged from the uncached DP (count {count})"
            )
        row = {
            "queries": count,
            "pairs": len(pairs),
            "uncached_seconds": uncached_seconds,
            "cached_seconds": cached_seconds,
            "speedup": uncached_seconds / max(cached_seconds, 1e-12),
        }
        row.update(cache.stats.counters())
        rows.append(row)
    return {"rows": rows}


def run_comparison(*, repeat: int = 3, fast: bool = False) -> dict:
    """Run the comparison; return the ``BENCH_oracle_cache.json`` payload."""
    oracle = _oracle_section(repeat=repeat, fast=fast)

    largest = max(oracle["rows"], key=lambda r: r["queries"])
    return {
        "benchmark": "oracle_cache",
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "repeat": repeat,
        "fast": fast,
        "oracle": oracle,
        "summary": {
            "oracle_speedup_at_largest": largest["speedup"],
            "oracle_hit_rate_at_largest": largest["oracle_cache_hit_rate"],
            "oracle_hits_at_largest": largest["oracle_cache_hits"],
            "results_identical": True,
            "meets_target": largest["speedup"] > 1.0
            and largest["oracle_cache_hits"] > 0,
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Write ``BENCH_oracle_cache.json``; exit 1 when the cached oracle
    fails to beat the raw DP on the repeated-structure stream (so CI
    catches regressions of the cache fast paths)."""
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
        f"wrote {args.out}: oracle cache speedup "
        f"{summary['oracle_speedup_at_largest']:.1f}x at hit rate "
        f"{summary['oracle_hit_rate_at_largest']:.0%}; "
        f"results identical to uncached"
    )
    return 0 if summary["meets_target"] else 1


# ---------------------------------------------------------------------------
# pytest-benchmark rows (same workloads, per-point timings)
# ---------------------------------------------------------------------------

try:  # pragma: no cover - optional dependency in script mode
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="oracle: cross-query pair stream (fig8, cached)")
    @pytest.mark.parametrize("count", [8, 16, 32])
    def test_cached_oracle_stream(benchmark, count):
        pairs = oracle_cache_workload(count)
        tables = benchmark(lambda: _run_pairs(pairs, ContainmentOracleCache()))
        assert len(tables) == len(pairs)

    @pytest.mark.benchmark(group="oracle: cross-query pair stream (fig8, uncached)")
    @pytest.mark.parametrize("count", [8, 16, 32])
    def test_uncached_oracle_stream(benchmark, count):
        pairs = oracle_cache_workload(count)
        tables = benchmark(lambda: _run_pairs(pairs, None))
        assert len(tables) == len(pairs)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
