"""Single entry point regenerating every machine-readable benchmark
artifact.

Writes, at the repo root (all workloads use fixed seeds, so everything
but the timings is deterministic):

- ``BENCH_incremental.json`` — rebuild-vs-incremental engine comparison
  (:mod:`benchmarks.bench_incremental`);
- ``BENCH_batch.json`` — batch backend vs serial loop + worker scaling
  (:mod:`benchmarks.bench_batch`);
- ``BENCH_oracle_cache.json`` — the containment-oracle cache vs the raw
  DP (:mod:`benchmarks.bench_oracle_cache`);
- ``BENCH_service.json`` — micro-batched serving vs one-at-a-time
  clients at several arrival rates (:mod:`benchmarks.bench_service`);
- ``BENCH_persist.json`` — persistent-store warm-start vs cold-start,
  plus corruption/closure-churn degradation legs
  (:mod:`benchmarks.bench_persist`);
- ``BENCH_scenario.json`` — scenario-harness replay determinism,
  pacing/backend invariance, and live IC-churn gates
  (:mod:`benchmarks.bench_scenario`);
- ``BENCH_certify.json`` — sampled-audit and certify-all overhead on
  the serving stack plus the certificate differential sweep
  (:mod:`benchmarks.bench_certify`);
- ``BENCH_<figure>.json`` — one file per paper-figure experiment in
  :data:`repro.bench.experiments.ALL_EXPERIMENTS`, in the same schema as
  ``repro-bench <figure> --json``.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py
    PYTHONPATH=src python benchmarks/run_all.py --fast --out-dir /tmp/bench
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_batch  # noqa: E402  (sibling module, script mode)
import bench_certify  # noqa: E402  (sibling module, script mode)
import bench_incremental  # noqa: E402  (sibling module, script mode)
import bench_oracle_cache  # noqa: E402  (sibling module, script mode)
import bench_persist  # noqa: E402  (sibling module, script mode)
import bench_scenario  # noqa: E402  (sibling module, script mode)
import bench_service  # noqa: E402  (sibling module, script mode)

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment  # noqa: E402
from repro.bench.report import format_json  # noqa: E402

__all__ = ["main"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small grids, repeat=1 (smoke tests / CI)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT, help="directory for BENCH_*.json"
    )
    parser.add_argument(
        "--skip-figures",
        action="store_true",
        help="only run the incremental comparison",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    repeat = 1 if args.fast else args.repeat
    args.out_dir.mkdir(parents=True, exist_ok=True)

    status = bench_incremental.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_incremental.json"),
        ]
        + (["--fast"] if args.fast else [])
    )
    status = bench_batch.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_batch.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status
    status = bench_oracle_cache.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_oracle_cache.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status
    status = bench_service.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_service.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status
    status = bench_persist.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_persist.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status
    status = bench_scenario.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_scenario.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status
    status = bench_certify.main(
        [
            "--repeat",
            str(repeat),
            "--out",
            str(args.out_dir / "BENCH_certify.json"),
        ]
        + (["--fast"] if args.fast else [])
    ) or status

    if not args.skip_figures:
        for name in ALL_EXPERIMENTS:
            if name in ("incremental", "batch", "oracle_cache", "service"):
                continue  # their BENCH_*.json are the richer bench_*.py artifacts
            result = run_experiment(name, repeat=repeat)
            path = args.out_dir / f"BENCH_{name}.json"
            path.write_text(format_json(result))
            print(f"wrote {path}")

    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
