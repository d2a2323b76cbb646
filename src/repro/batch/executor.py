"""Deterministic parallel map over a worker pool.

The batch backends share one dispatch utility: :func:`process_map` runs a
module-level function over a payload list on a :class:`WorkerPool`'s
worker processes, with chunked submission and results returned **in
input order** whatever the completion order. Only worker processes ever
run the pool's initializer. Whatever runs in the calling process — the
whole batch when :func:`use_pool` says no, payloads that cannot be
pickled, and the serial last resort — goes through the caller's
``local`` function on the caller's own state, so results are
independent of the ``jobs`` setting. Each payload is pickled exactly
once: the picklability probe's bytes are what the pool ships.

Failure is structured, not all-or-nothing: chunks are submitted as
individual futures, so when the pool breaks mid-run (a worker
hard-crashes) only the **not-yet-completed chunks** are retried on a
recreated pool — completed results are kept — with bounded retries
before the serial last resort. An optional per-chunk **watchdog**
bounds how long any chunk may run: a hung worker is SIGKILLed, the pool
recreated, and only the lost chunks requeued. Both paths are counted
separately in :class:`ExecutorStats`, and a
:class:`~repro.resilience.faults.FaultInjector` can be threaded in to
arm deterministic worker crashes, slow workers, and pickle failures at
the ``worker.chunk`` / ``executor.pickle`` injection points.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, TypeVar

from ..obs import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector

__all__ = [
    "AUTO_SERIAL_THRESHOLD",
    "ExecutorStats",
    "process_map",
    "resolve_jobs",
    "default_chunksize",
    "use_pool",
    "worker_context",
    "WorkerPool",
]

_P = TypeVar("_P")
_R = TypeVar("_R")

#: Rounds of chunk retry on a recreated pool before the serial fallback.
MAX_POOL_RETRIES = 2

#: ``jobs="auto"`` runs batches of at most this many payloads serially:
#: pool spin-up (worker start + initializer + repository unpickle per
#: worker) costs more than minimizing a handful of queries in-process.
AUTO_SERIAL_THRESHOLD = 8


def resolve_jobs(jobs: "Optional[int | str]") -> int:
    """Normalize a ``jobs`` request: ``None``/``0``/``"auto"`` means one
    worker per available core; negative values (and strings other than
    ``"auto"``) raise ``ValueError``.

    ``"auto"`` additionally lets :func:`use_pool` keep tiny batches in
    the calling process — that heuristic lives there, not here: this
    function only answers "how many workers *could* run".
    """
    if isinstance(jobs, str):
        if jobs != "auto":
            raise ValueError(f'jobs must be an int or "auto", got {jobs!r}')
        return os.cpu_count() or 1
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def use_pool(jobs: "Optional[int | str]", n_payloads: int) -> bool:
    """Whether a batch of ``n_payloads`` goes to a worker pool under
    ``jobs``; ``False`` means it runs in the calling process.

    One worker, or at most one payload, never pays for a pool.
    ``jobs="auto"`` also keeps batches of at most
    :data:`AUTO_SERIAL_THRESHOLD` payloads (and every batch on a
    single-core host) in process — pool spin-up would dominate. An
    explicit ``jobs=N`` always dispatches larger batches through the
    pool machinery, which the chaos/resilience paths rely on.
    """
    workers = resolve_jobs(jobs)
    if workers <= 1 or n_payloads <= 1:
        return False
    return jobs != "auto" or n_payloads > AUTO_SERIAL_THRESHOLD


def worker_context():
    """The multiprocessing context every pool worker starts from.

    Never ``fork``: by the time a worker starts, the parent may run
    threads (the store's write-behind thread, ``asyncio.to_thread``
    batches, audits), and a forked child inherits any lock one of them
    holds at that instant, then blocks on it forever; it would also
    inherit process-wide state such as the attached persistent store.
    ``forkserver`` forks from a single-threaded server instead;
    ``spawn`` is the fallback where ``forkserver`` is unavailable. The
    server preloads every module of this package the parent has
    imported when it starts (the worker modules among them), so a new
    worker — which re-imports the parent's main module — skips the
    package import.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    package = __name__.split(".")[0]
    context.set_forkserver_preload(
        sorted(name for name in sys.modules if name.split(".")[0] == package)
    )
    return context


def default_chunksize(n_items: int, jobs: int) -> int:
    """Chunk payloads so each worker sees ~4 chunks (amortizes pickling
    without starving the pool of work to steal)."""
    return max(1, n_items // (jobs * 4) or 1)


@dataclass
class ExecutorStats(Stats):
    """Counters of one (or many) :func:`process_map` dispatches.

    Attributes
    ----------
    dispatched_chunks:
        Chunks submitted to a pool (first submissions only).
    pool_retries:
        Retry **rounds** run on a recreated pool after a break/timeout.
    chunks_retried:
        Chunks resubmitted across all retry rounds.
    watchdog_kills:
        Times the per-chunk watchdog SIGKILLed a hung pool.
    serial_fallbacks:
        Payloads that ran serially in-process as the last resort.
    pickle_fallbacks:
        Payloads that ran in-process because they would not pickle
        (including injected pickle faults).
    """

    dispatched_chunks: int = 0
    pool_retries: int = 0
    chunks_retried: int = 0
    watchdog_kills: int = 0
    serial_fallbacks: int = 0
    pickle_fallbacks: int = 0


def _serialize(payload: object) -> Optional[bytes]:
    """Pickle ``payload`` once, or ``None`` when it cannot be pickled.

    The blob doubles as the pool submission: shipping already-serialized
    bytes re-pickles a flat ``bytes`` object (near-free) instead of
    walking the payload's object graph a second time.
    """
    try:
        return pickle.dumps(payload)
    except Exception:
        return None


def _execute_worker_fault(kind: str, delay: float) -> None:
    """Worker-side fault execution (``worker.chunk`` kinds)."""
    if kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "slow":
        time.sleep(delay)


def _run_chunk(task: "tuple[Callable, tuple[bytes, ...], Optional[tuple]]"):
    """Worker-side shim: unpickle each payload blob and apply ``fn``.

    ``fault`` (when set) is ``(kind, delay, position)`` — executed just
    before the ``position``-th payload, so a ``crash`` lands mid-chunk.
    """
    fn, blobs, fault = task
    position = fault[2] if fault is not None else -1
    results = []
    for index, blob in enumerate(blobs):
        if index == position:
            _execute_worker_fault(fault[0], fault[1])
        results.append(fn(pickle.loads(blob)))
    return results


def _kill_executor_workers(executor) -> None:
    """SIGKILL a pool's worker processes (the watchdog's hammer)."""
    processes = getattr(executor, "_processes", None) or {}
    for pid in list(processes):
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, TypeError):  # pragma: no cover - already gone
            pass


class WorkerPool:
    """A process pool for :func:`process_map`, alive until :meth:`close`.

    The pool pins its initializer and initargs: each worker runs the
    initializer once, when it starts, and never in the calling process.
    Callers own one pool for as long as their state lives — a
    :class:`~repro.batch.minimizer.BatchMinimizer` keeps one until it is
    closed, so micro-batches reuse warm workers (and their process-local
    containment-oracle caches) across requests. Workers start from
    :func:`worker_context`.

    The executor is created lazily and recreated after
    :meth:`invalidate` — :func:`process_map` invalidates the pool when
    it breaks (a worker hard-crashed or the watchdog fired) and retries
    the lost chunks on the fresh pool. Thread-safe; ``recreations``
    counts executor (re)builds for the stats surfaces.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Iterable[object] = (),
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._executor = None
        self._lock = threading.Lock()
        self.recreations = 0

    def executor(self):
        """The live ``ProcessPoolExecutor``, creating it if needed."""
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=worker_context(),
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
                self.recreations += 1
            return self._executor

    def invalidate(self) -> None:
        """Discard a broken executor; the next call builds a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down for good (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _RoundOutcome:
    """One dispatch round's completions and requeue list."""

    __slots__ = ("completed", "failed")

    def __init__(self):
        self.completed: dict[int, object] = {}
        #: Chunks to resubmit: lists of (payload_index, blob) pairs.
        self.failed: list[list[tuple[int, bytes]]] = []


def _dispatch_round(
    executor,
    fn: Callable,
    chunks: "list[list[tuple[int, bytes]]]",
    *,
    arm_faults: bool,
    injector: "Optional[FaultInjector]",
    watchdog: Optional[float],
    stats: ExecutorStats,
) -> _RoundOutcome:
    """Submit every chunk as its own future and collect results.

    A chunk whose future breaks the pool (``BrokenProcessPool``) or
    outlives the watchdog is queued on ``outcome.failed``; completed
    chunks keep their results either way. Faults are armed only on the
    first submission of a chunk (``arm_faults``) — a retried chunk runs
    clean, otherwise an injected crash would re-fire forever.
    """
    from concurrent.futures import TimeoutError as FutureTimeoutError

    outcome = _RoundOutcome()
    futures = []
    for items in chunks:
        fault_token = None
        if arm_faults and injector is not None:
            spec = injector.draw("worker.chunk")
            if spec is not None:
                fault_token = (spec.kind, spec.delay, len(items) // 2)
        blobs = tuple(blob for _, blob in items)
        futures.append((executor.submit(_run_chunk, (fn, blobs, fault_token)), items))
    for future, items in futures:
        try:
            chunk_results = future.result(timeout=watchdog)
        except FutureTimeoutError:
            # The chunk outlived its watchdog: kill the (hung) workers.
            # The pool breaks, this chunk and everything still in flight
            # land on the requeue list, completed chunks keep results.
            stats.watchdog_kills += 1
            _kill_executor_workers(executor)
            future.cancel()
            outcome.failed.append(items)
        except (OSError, RuntimeError):
            # BrokenProcessPool (a worker died mid-chunk) and other pool
            # machinery failures: requeue the chunk and let the
            # retry/serial ladder decide. App-level errors from ``fn``
            # raise other exception types and propagate to the caller.
            outcome.failed.append(items)
        else:
            for (index, _), result in zip(items, chunk_results):
                outcome.completed[index] = result
    return outcome


def process_map(
    fn: Callable[[_P], _R],
    payloads: Sequence[_P],
    *,
    pool: WorkerPool,
    local: Optional[Callable[[_P], _R]] = None,
    injector: "Optional[FaultInjector]" = None,
    watchdog: Optional[float] = None,
    stats: Optional[ExecutorStats] = None,
    max_pool_retries: int = MAX_POOL_RETRIES,
) -> list[_R]:
    """Run ``fn`` over ``payloads`` on ``pool``'s workers; results in
    input order.

    ``fn`` must be a module-level function so it can be pickled by the
    pool; it may read the worker globals the pool's initializer set.
    ``local`` is its in-process counterpart (default: ``fn`` itself),
    which must compute the same result from the caller's own state:
    payloads that fail to pickle run through it, spliced back into
    their original positions, and so does whatever the pool never
    completes. Whether to use a pool at all is the caller's decision
    (:func:`use_pool`).

    Resilience knobs:

    - ``watchdog`` — per-chunk wall-clock bound in seconds; a chunk that
      exceeds it has its workers SIGKILLed and is requeued on a fresh
      pool (``None`` waits forever, the legacy behavior);
    - ``max_pool_retries`` — rounds of requeue-on-recreated-pool after a
      break before the not-yet-completed payloads run serially
      in-process (the last resort, as before);
    - ``injector`` — a :class:`~repro.resilience.faults.FaultInjector`
      arming ``worker.chunk`` (crash/slow, shipped to the worker inside
      the chunk task) and ``executor.pickle`` (forces the pickle
      fallback);
    - ``stats`` — an :class:`ExecutorStats` the call adds its retry /
      watchdog / fallback counters into.
    """
    local = local if local is not None else fn
    stats = stats if stats is not None else ExecutorStats()

    # Pickle each payload exactly once: the probe's serialized bytes ARE
    # what gets submitted (via `_run_chunk`), instead of probing with one
    # pickling pass and letting the pool repeat it.
    pool_items: list[tuple[int, bytes]] = []
    local_items: list[tuple[int, _P]] = []
    for index, payload in enumerate(payloads):
        blob = _serialize(payload)
        if blob is not None and injector is not None and injector.draw("executor.pickle"):
            blob = None  # injected pickle failure: force the fallback path
        if blob is None:
            local_items.append((index, payload))
            stats.pickle_fallbacks += 1
        else:
            pool_items.append((index, blob))
    if not pool_items:
        return [local(p) for p in payloads]

    results: list[Optional[_R]] = [None] * len(payloads)
    chunk = default_chunksize(len(pool_items), pool.jobs)
    pending = [pool_items[i : i + chunk] for i in range(0, len(pool_items), chunk)]
    stats.dispatched_chunks += len(pending)

    for round_no in range(1 + max(max_pool_retries, 0)):
        try:
            outcome = _dispatch_round(
                pool.executor(),
                fn,
                pending,
                arm_faults=(round_no == 0),
                injector=injector,
                watchdog=watchdog,
                stats=stats,
            )
        except (OSError, PermissionError, RuntimeError):
            # No usable process pool at all (process creation
            # forbidden on sandboxed hosts, missing start method,
            # interpreter shutting down): serial last resort below.
            break
        for index, result in outcome.completed.items():
            results[index] = result
        pending = outcome.failed
        if not pending:
            break
        # A worker died or hung: recreate the pool and retry only
        # the chunks that never completed.
        if round_no < max_pool_retries:
            stats.pool_retries += 1
            stats.chunks_retried += len(pending)
        pool.invalidate()
    if pending:
        pool.invalidate()

    # Serial last resort: whatever never completed on a pool runs
    # in-process, on the caller's own state.
    for items in pending:
        for index, _ in items:
            results[index] = local(payloads[index])
            stats.serial_fallbacks += 1

    for index, payload in local_items:
        results[index] = local(payload)
    return results  # type: ignore[return-value]
