"""The asyncio minimization service: queue → micro-batcher → warm pool.

:class:`MinimizationService` fronts the batch backend
(:class:`~repro.batch.minimizer.BatchMinimizer` via
:class:`~repro.api.Session`) with an asyncio request path:

* a **bounded request queue** — when it is full, :meth:`submit` raises
  :class:`~repro.errors.ServiceOverloadedError` immediately with a
  ``retry_after`` hint instead of buffering without limit (backpressure
  is explicit, not silent latency);
* an **adaptive micro-batcher** — one background task drains the queue
  into batches, flushing when ``max_batch_size`` requests have
  accumulated *or* the oldest request has waited ``max_wait`` seconds,
  whichever comes first. Single requests under light load pay at most
  ``max_wait`` of added latency; bursts amortize the constraint closure,
  fingerprint memo, and pool dispatch across the whole batch;
* a **warm worker pool** — with ``jobs != 1`` the underlying session's
  batch backend builds one worker pool on its first pooled batch and
  keeps it until the service closes, so worker processes (and their
  process-local containment-oracle caches) survive between micro-batches
  instead of being respawned per request; batches too small for the pool
  run in the calling process against the session's own closure;
* **per-request timeouts and cancellation** — a request that times out
  or is cancelled is dropped from the batch if it has not started, and
  its result is discarded if it has; either way the worker pool is never
  torn down for it;
* **graceful drain** — :meth:`aclose` stops accepting new requests,
  processes everything already queued, then releases the pool.

The service is exposed two ways: in-process (``async with
MinimizationService(...)``) and over a JSON-lines stdio/TCP protocol
(:mod:`repro.service.protocol`, the ``repro-serve`` console script).
"""

from __future__ import annotations

import asyncio
import bisect
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..api import ConstraintUpdateResult, MinimizeOptions, QueryResult, Session
from ..core.pattern import TreePattern
from ..errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..obs import Stats

__all__ = [
    "LatencyHistogram",
    "MinimizationService",
    "ServiceStats",
]


class LatencyHistogram:
    """A fixed-bucket latency histogram, a field of :class:`ServiceStats`.

    Buckets are cumulative-friendly upper bounds in seconds (Prometheus
    convention); :meth:`counters` flattens to ``{prefix}_le_{bound}``
    keys plus count/sum, :meth:`add` merges bucket by bucket, and
    :meth:`quantile` interpolates within the winning bucket.
    """

    #: Upper bounds in seconds; the implicit last bucket is +inf.
    BOUNDS = (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(self) -> None:
        self._buckets = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        self._buckets[bisect.bisect_left(self.BOUNDS, seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def add(self, other: "LatencyHistogram") -> None:
        """Merge another histogram's samples into this one."""
        self._buckets = [a + b for a, b in zip(self._buckets, other._buckets)]
        self.count += other.count
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    @property
    def mean_seconds(self) -> float:
        """Average latency over all samples (0 when empty)."""
        return self.sum_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 < q <= 1``), interpolated
        linearly within the winning bucket; +inf-bucket samples report
        the observed maximum."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            if bucket_count == 0:
                continue
            seen += bucket_count
            if seen >= rank:
                if index >= len(self.BOUNDS):
                    return self.max_seconds
                lower = self.BOUNDS[index - 1] if index else 0.0
                upper = self.BOUNDS[index]
                # Linear interpolation of the rank inside this bucket.
                into = (rank - (seen - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.max_seconds  # pragma: no cover - unreachable

    def counters(self, prefix: str = "latency") -> dict[str, float]:
        """The histogram as a flat dict (for JSON reports)."""
        out: dict[str, float] = {}
        cumulative = 0
        for bound, bucket_count in zip(self.BOUNDS, self._buckets):
            cumulative += bucket_count
            out[f"{prefix}_le_{bound:g}"] = cumulative
        out[f"{prefix}_le_inf"] = self.count
        out[f"{prefix}_count"] = self.count
        out[f"{prefix}_sum_seconds"] = self.sum_seconds
        out[f"{prefix}_mean_seconds"] = self.mean_seconds
        out[f"{prefix}_max_seconds"] = self.max_seconds
        out[f"{prefix}_p50_seconds"] = self.quantile(0.50)
        out[f"{prefix}_p95_seconds"] = self.quantile(0.95)
        out[f"{prefix}_p99_seconds"] = self.quantile(0.99)
        return out


@dataclass
class ServiceStats(Stats):
    """The service's own counters: request admission, micro-batching and
    latency. :meth:`MinimizationService.counters` reports them beside the
    session's counters, which cover the work the batches do."""

    ratios = ("mean_batch_size",)

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    cancelled: int = 0
    failed: int = 0
    #: Requests shed because their end-to-end deadline had already
    #: elapsed — at submission or at micro-batch assembly, always
    #: *before* any minimization work ran for them.
    sheds: int = 0
    #: Requests that arrived marked as client retries (the protocol's
    #: ``retry`` field — the resilient client's idempotent resends).
    client_retries: int = 0
    batches: int = 0
    #: Flush cause tallies: the batch filled up vs. the oldest request's
    #: ``max_wait`` deadline expired vs. flushed early so a queued
    #: constraint update stays ordered vs. drained at shutdown.
    flushes_full: int = 0
    flushes_deadline: int = 0
    flushes_churn: int = 0
    flushes_drain: int = 0
    #: Deepest the request queue has been.
    max_queue_depth: int = 0
    #: Requests summed over batches; over ``batches``, the
    #: micro-batching payoff (``mean_batch_size``).
    batched_requests: int = 0
    #: End-to-end latency (enqueue → result set) per completed request.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Time requests spent queued before their batch started.
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def mean_batch_size(self) -> float:
        """Average micro-batch occupancy (1.0 = no batching happened)."""
        return self.batched_requests / self.batches if self.batches else 0.0


@dataclass
class _Request:
    """One queued minimization request."""

    pattern: TreePattern
    future: "asyncio.Future[QueryResult]"
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` deadline, or ``None``.
    deadline: Optional[float] = None


class _Drain:
    """Queue sentinel: process everything ahead of it, then stop."""


@dataclass
class _IcUpdate:
    """A queued live-constraint update.

    Travels through the same bounded queue as requests so ordering is
    exact: requests enqueued before it are flushed (and served under the
    old closure) first, requests after it see the new closure.
    """

    add: object
    drop: object
    future: "asyncio.Future[ConstraintUpdateResult]"


class MinimizationService:
    """An async façade serving minimization requests through micro-batches.

    Parameters
    ----------
    options:
        Session configuration (:class:`~repro.api.MinimizeOptions`).
        With ``jobs != 1`` the session's pool stays warm between
        micro-batches.
    constraints:
        The integrity constraints every request is minimized under (one
        repository per service; closure computed once).
    max_batch_size:
        Flush a micro-batch as soon as this many requests accumulate.
    max_wait:
        ... or as soon as the oldest queued request has waited this many
        seconds — the latency ceiling batching may add under light load.
    max_queue:
        Bound on queued-but-unbatched requests; a full queue rejects
        submissions with :class:`~repro.errors.ServiceOverloadedError`.
    default_timeout:
        Per-request timeout (seconds) used when :meth:`submit` is not
        given an explicit one; ``None`` waits forever.

    Usage::

        async with MinimizationService(MinimizeOptions(jobs=2)) as svc:
            result = await svc.submit(parse_xpath("a/b[c][c]"))
            print(result.summary())
    """

    def __init__(
        self,
        options: Optional[MinimizeOptions] = None,
        *,
        constraints=None,
        max_batch_size: int = 16,
        max_wait: float = 0.01,
        max_queue: int = 256,
        default_timeout: Optional[float] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        options = options if options is not None else MinimizeOptions()
        self.options = options
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.stats = ServiceStats()
        self._session = Session(options, constraints=constraints)
        #: Shared fault injector (``None`` unless the session's options
        #: carry a fault plan); the batcher arms ``batcher.flush`` and
        #: the protocol layer arms ``protocol.send`` through this.
        self.injector = self._session.injector
        self._queue: "asyncio.Queue[_Request | _Drain]" = asyncio.Queue(
            maxsize=max_queue
        )
        self._batcher_task: Optional[asyncio.Task] = None
        self._closing = False
        self._started = False
        #: Background audit bookkeeping: a deterministic served-answer
        #: counter drives 1-in-``audit_rate`` sampling (never wall-clock
        #: randomness), and in-flight audit tasks are tracked so a
        #: graceful drain finishes them before the session closes.
        self._audit_seen = 0
        self._audit_tasks: "set[asyncio.Task]" = set()
        # Recent batch wall-clock (EWMA) → the retry_after hint.
        self._recent_batch_seconds = max_wait or 0.01

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "MinimizationService":
        """Spawn the micro-batcher task (idempotent)."""
        if not self._started:
            self._batcher_task = asyncio.ensure_future(self._batcher())
            self._started = True
        return self

    async def aclose(self) -> None:
        """Graceful drain: stop accepting requests, finish everything
        already queued, then release the worker pool (idempotent)."""
        if self._closing:
            if self._batcher_task is not None:
                await asyncio.shield(self._batcher_task)
            return
        self._closing = True
        if self._started and self._batcher_task is not None:
            await self._queue.put(_Drain())
            await self._batcher_task
            self._batcher_task = None
        if self._audit_tasks:
            # Finish in-flight background audits before the session (and
            # its store) goes away.
            await asyncio.gather(*list(self._audit_tasks), return_exceptions=True)
        self._session.close()

    async def __aenter__(self) -> "MinimizationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def submit(
        self,
        pattern: TreePattern,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Minimize one query through the service; awaits the result.

        ``deadline`` is an end-to-end budget in seconds: a request whose
        deadline has already elapsed is **shed** — rejected before any
        queueing, batching, or minimization work happens for it (at
        submission when the budget is non-positive, at micro-batch
        assembly when it expires while queued). Unlike ``timeout`` (a
        caller-side wait bound), the deadline travels with the request:
        the protocol layer forwards client deadlines here, so shedding
        happens server-side where it saves actual work.

        Raises
        ------
        ServiceClosedError
            The service is draining or was never started.
        ServiceOverloadedError
            The request queue is full; ``exc.retry_after`` suggests a
            back-off based on recent batch latency.
        DeadlineExceededError
            The request's ``deadline`` elapsed — before submission,
            while queued (shed), or while awaiting the result.
        TimeoutError
            The request's ``timeout`` (or the service default) elapsed;
            the request is dropped from its batch if still queued.
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "service is closed" if self._closing else "service not started"
            )
        now = time.perf_counter()
        deadline_at: Optional[float] = None
        if deadline is not None:
            if deadline <= 0:
                # Already past deadline: shed before any work or queueing.
                self.stats.sheds += 1
                raise DeadlineExceededError(
                    f"deadline of {deadline}s already elapsed at submission; "
                    "request shed"
                )
            deadline_at = now + deadline
        future: "asyncio.Future[QueryResult]" = asyncio.get_running_loop().create_future()
        request = _Request(pattern, future, now, deadline_at)
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue} pending)",
                retry_after=round(self._recent_batch_seconds * 2, 4),
            ) from None
        self.stats.submitted += 1
        depth = self._queue.qsize()
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        timeout = timeout if timeout is not None else self.default_timeout
        wait = timeout
        if deadline is not None:
            wait = deadline if wait is None else min(wait, deadline)
        try:
            if wait is None:
                return await future
            return await asyncio.wait_for(future, wait)
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            if deadline is not None and (timeout is None or deadline <= timeout):
                raise DeadlineExceededError(
                    f"deadline of {deadline}s elapsed awaiting the result"
                ) from None
            raise
        except asyncio.CancelledError:
            # Caller-side cancellation: drop the request from its batch.
            if not future.done():
                future.cancel()
            self.stats.cancelled += 1
            raise

    async def submit_many(
        self,
        patterns: Sequence[TreePattern],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        """Submit a group of queries concurrently; results in input
        order. They micro-batch together (plus whatever else is queued)."""
        return list(
            await asyncio.gather(
                *(self.submit(p, timeout=timeout, deadline=deadline) for p in patterns)
            )
        )

    # ------------------------------------------------------------------
    # Live constraint updates
    # ------------------------------------------------------------------

    async def update_constraints(
        self, add=None, drop=None
    ) -> ConstraintUpdateResult:
        """Apply a live integrity-constraint update to the running service.

        The update travels through the same bounded queue as requests,
        so ordering against in-flight work is exact: every request
        enqueued before this call is served under the old closure, every
        request enqueued after it under the new one. The batcher flushes
        any partially-accumulated batch before applying the update
        (tallied as ``flushes_churn``).

        ``add``/``drop`` accept anything ``Session.update_constraints``
        does: constraint objects, notation strings, or iterables of
        either.

        Raises
        ------
        ServiceClosedError
            The service is draining or was never started.
        ConstraintError
            The staged update is invalid (e.g. dropping a derived
            constraint); the repository is left unchanged.
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "service is closed" if self._closing else "service not started"
            )
        future: "asyncio.Future[ConstraintUpdateResult]" = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put(_IcUpdate(add, drop, future))
        return await future

    def constraints_info(self) -> dict:
        """The live constraint repository's digest / sizes / update count
        — the protocol's parameterless ``constraints`` op."""
        return self._session.constraints_info()

    async def _apply_ic_update(self, update: _IcUpdate) -> None:
        """Run one queued constraint update on the session (in a thread,
        like batches) and resolve its future."""
        try:
            result = await asyncio.to_thread(
                self._session.update_constraints, update.add, update.drop
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to the caller
            if not update.future.done():
                update.future.set_exception(exc)
            return
        if not update.future.done():
            update.future.set_result(result)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """The session's counters plus the service's own
        (:class:`ServiceStats`) as one flat dict — the ``stats`` op."""
        out = self._session.counters()
        out.update(self.stats.counters())
        return out

    def fault_events(self) -> list[list]:
        """Fired faults as ``[point, kind, hit]`` rows, in firing order
        (empty without a fault plan) — the protocol's ``faults`` op."""
        if self.injector is None:
            return []
        return [[e.point, e.kind, e.hit] for e in self.injector.events()]

    # ------------------------------------------------------------------
    # Micro-batcher
    # ------------------------------------------------------------------

    async def _batcher(self) -> None:
        """The background drain loop: accumulate → flush → repeat."""
        draining = False
        while not draining:
            head = await self._queue.get()
            if isinstance(head, _Drain):
                break
            if isinstance(head, _IcUpdate):
                await self._apply_ic_update(head)
                continue
            batch = [head]
            pending_update: Optional[_IcUpdate] = None
            deadline = asyncio.get_running_loop().time() + self.max_wait
            flush_reason = "full"
            while len(batch) < self.max_batch_size:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    flush_reason = "deadline"
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    flush_reason = "deadline"
                    break
                if isinstance(item, _Drain):
                    draining = True
                    flush_reason = "drain"
                    break
                if isinstance(item, _IcUpdate):
                    # Flush what accumulated under the old closure, then
                    # apply the update before touching the queue again.
                    pending_update = item
                    flush_reason = "churn"
                    break
                batch.append(item)
            if flush_reason == "full":
                self.stats.flushes_full += 1
            elif flush_reason == "deadline":
                self.stats.flushes_deadline += 1
            elif flush_reason == "churn":
                self.stats.flushes_churn += 1
            else:
                self.stats.flushes_drain += 1
            if self.injector is not None:
                fault = self.injector.draw("batcher.flush")
                if fault is not None and fault.kind == "stall":
                    # A stalled flush: the queue keeps accepting (and
                    # deadlines keep ticking) while this batch waits.
                    await asyncio.sleep(fault.delay)
            await self._run_batch(batch)
            if pending_update is not None:
                await self._apply_ic_update(pending_update)

    async def _run_batch(self, batch: list[_Request]) -> None:
        """Execute one micro-batch on the session (in a thread, so the
        event loop keeps accepting submissions) and resolve futures."""
        started = time.perf_counter()
        # Timed-out / cancelled requests never reach the backend, and
        # requests whose deadline expired while queued are shed here —
        # their futures resolve to DeadlineExceededError without any
        # minimization work running for them.
        live = []
        for request in batch:
            if request.future.done():
                continue
            if request.deadline is not None and started >= request.deadline:
                self.stats.sheds += 1
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline elapsed while queued; request shed "
                        "before batch dispatch"
                    )
                )
                continue
            live.append(request)
        for request in live:
            self.stats.queue_wait.observe(started - request.enqueued_at)
        if not live:
            return
        self.stats.batches += 1
        self.stats.batched_requests += len(live)
        patterns = [r.pattern for r in live]
        try:
            results = await asyncio.to_thread(self._process_batch, patterns)
        except Exception as exc:  # noqa: BLE001 - forwarded to callers
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
                    self.stats.failed += 1
            return
        finished = time.perf_counter()
        elapsed = finished - started
        self._recent_batch_seconds = 0.5 * self._recent_batch_seconds + 0.5 * max(
            elapsed, 1e-6
        )
        for request, result in zip(live, results):
            if request.future.done():
                continue  # timed out / cancelled mid-batch: discard
            request.future.set_result(result)
            self.stats.completed += 1
            self.stats.latency.observe(finished - request.enqueued_at)
            self._maybe_audit(result)

    def _maybe_audit(self, result: QueryResult) -> None:
        """Sample one served answer into the background auditor.

        Every ``audit_rate``-th completed request (deterministic
        counter, so replayed request streams replay the audit schedule)
        is re-verified off the hot path by
        :meth:`repro.api.Session.audit_result` — the response has
        already been sent; a failed audit quarantines the offending
        cache record so the wrong answer can never be served *again*.
        Under ``certify=True`` every answer was already checked
        synchronously, so sampling adds nothing and is skipped.
        """
        rate = self.options.audit_rate
        if rate < 1 or self.options.certify:
            return
        self._audit_seen += 1
        if (self._audit_seen - 1) % rate:
            return
        task = asyncio.ensure_future(self._audit_one(result))
        self._audit_tasks.add(task)
        task.add_done_callback(self._audit_tasks.discard)

    async def _audit_one(self, result: QueryResult) -> None:
        """Run one sampled audit in a worker thread; the session counts
        it."""
        try:
            await asyncio.to_thread(self._session.audit_result, result)
        except Exception:  # noqa: BLE001 - audits never take the service down
            # An audit that *errored* (e.g. a close racing it) proved
            # nothing either way; it is simply not counted as audited.
            pass

    def _process_batch(self, patterns: list[TreePattern]) -> list[QueryResult]:
        """Synchronous batch execution — the seam tests override to
        inject slow or crashing backends."""
        return self._session.minimize_many(patterns)
