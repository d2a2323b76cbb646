"""Workload-level (batch) backends: parallel workers + cross-query memoization.

This subpackage turns the per-query library into a workload-serving
system. Entry points:

* :class:`~repro.batch.minimizer.BatchMinimizer` /
  :func:`~repro.batch.minimizer.minimize_batch` — minimize a whole
  workload of queries, closing the constraint repository once, memoizing
  isomorphic queries by structural fingerprint, and (optionally) fanning
  the distinct queries across a process pool;
* :func:`~repro.batch.evaluation.evaluate_batch` — evaluate many queries
  against a forest, fanning trees across workers;
* :func:`~repro.batch.executor.process_map` — the shared deterministic
  parallel map over a :class:`~repro.batch.executor.WorkerPool` (payloads
  that fail to pickle, and whatever the pool cannot finish, run in the
  calling process).
"""

from .executor import WorkerPool, process_map, resolve_jobs
from .evaluation import evaluate_batch
from .minimizer import BatchItemResult, BatchResult, BatchStats, BatchMinimizer, minimize_batch

__all__ = [
    "BatchItemResult",
    "BatchMinimizer",
    "BatchResult",
    "BatchStats",
    "WorkerPool",
    "evaluate_batch",
    "minimize_batch",
    "process_map",
    "resolve_jobs",
]
