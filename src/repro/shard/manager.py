"""The sharded serving tier: N worker processes behind one async front-end.

:class:`ShardManager` converts the single-process serving ceiling into
hardware-limited throughput without sacrificing the per-query cache wins
the earlier layers built. Each shard is a child process owning a full
:class:`~repro.api.Session` (constraint closure, fingerprint replay
memo, containment-oracle cache, optionally its own warm pool); the
front-end routes every request by **consistent-hashing its structural
fingerprint** onto a :class:`~repro.shard.ring.HashRing`, so isomorphic
queries always land on the shard that already replayed their
elimination — the one scaling strategy that multiplies throughput by
core count *and* preserves memo/oracle hit rates.

Routing policies (``policy=``):

* ``"affinity"`` — strict ring routing; a query's fingerprint fully
  determines its shard.
* ``"overflow"`` (default) — affinity, but a hot shard past
  ``spill_threshold`` queued requests spills **cache-miss-only**
  traffic (fingerprints the shard has never seen) to the least-loaded
  shard. Repeat structures stay on their memoized shard even under
  load, because moving them would trade a ~free replay for a full
  recomputation elsewhere.
* ``"round-robin"`` — ignore fingerprints entirely. Exists as the
  benchmark baseline that shows what affinity buys: round-robin
  scatters isomorphic queries across shards and divides the fleet hit
  rate accordingly.

Operational behaviors:

* **backpressure** — per-shard pending bounds (``max_queue`` split
  across shards) aggregate into one coherent
  :class:`~repro.errors.ServiceOverloadedError` whose ``retry_after``
  estimates when the least-loaded shard will next have capacity;
* **deadline propagation** — each request's remaining budget travels
  to its shard, which sheds expired work before minimizing (the same
  shed-early contract as the single-process service), and the
  front-end sheds before dispatch when the budget is already gone;
* **rolling restart** — :meth:`rolling_restart` drains one shard at a
  time (the ring redistributes its range), restarts it, replays its
  hottest fingerprints to re-warm the new process, and rejoins it —
  the fleet keeps serving throughout;
* **shard-kill chaos** — the ``shard.kill`` fault point
  (:mod:`repro.resilience.faults`) SIGKILLs the routed shard at
  planned dispatch hits; the manager detects the death, respawns the
  shard, and requeues every request that was pending on it
  (``chunks_retried``), so results stay byte-identical to the serial
  loop;
* **a breaker per shard** — a shard that keeps dying is routed around
  (its :class:`~repro.resilience.client.CircuitBreaker` opens) until
  its cooldown lets a probe through;
* **sampled certification audit** — each shard worker re-verifies
  1-in-``audit_rate`` of its served answers off the reply path
  (:class:`~repro.shard.worker._SampledAuditor`); a failed audit
  quarantines the offending memo/store record, the next request for
  that fingerprint recomputes cold, and the fresh record spools back
  here — the single writer — overwriting the bad row, so the shared
  store self-heals. ``audited`` / ``audit_failures`` /
  ``quarantined_records`` aggregate fleet-wide in :meth:`counters`;
* **live constraint churn** — :meth:`update_constraints` stages the
  update manager-side, swaps the boot constraints (so respawns come up
  post-churn), fans ``("constraints", id, add, drop)`` out to every
  shard, digest-checks each ack, and bumps ``constraint_epoch`` only
  once the whole fleet has switched — no worker serves a stale-closure
  answer to requests submitted after the epoch bump.

The manager duck-types :class:`~repro.service.MinimizationService`
(``submit``/``stats``/``counters``/``fault_events``/``injector``), so
the JSON-lines protocol and ``repro-serve`` multiplex over it
unchanged — ``repro-serve --shards N`` is the only switch.
"""

from __future__ import annotations

import asyncio
import os
import queue as queue_module
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from ..api import MinimizeOptions, QueryResult, _coerce_constraint_list
from ..batch.executor import worker_context
from ..constraints.closure import closure
from ..constraints.repository import coerce_repository
from ..core.fingerprint import fingerprint
from ..core.pattern import TreePattern
from ..errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from ..resilience.client import CircuitBreaker
from ..resilience.faults import FaultInjector
from ..service.service import ServiceStats
from .ring import HashRing
from .worker import ShardWorkerConfig, shard_worker_main

__all__ = ["SHARD_POLICIES", "ShardManager", "resolve_shards"]

#: Routing policies understood by :class:`ShardManager`.
SHARD_POLICIES = ("affinity", "overflow", "round-robin")

#: Sentinel telling a shard's sender thread to exit.
_SENDER_STOP = object()


def resolve_shards(value, *, cpu_count: Optional[int] = None) -> int:
    """Resolve a ``--shards`` argument to a worker-process count.

    ``"auto"`` means one shard per core **minus one for the front-end**
    (the asyncio router is itself CPU-bound on fingerprinting and
    framing). Returns ``0`` — "don't shard, use the single-process
    service" — for ``None``/``0``/``1`` and whenever auto resolution
    would yield fewer than two shards: a 1-shard manager is a strictly
    worse single-process service (same serialization, extra hop), so
    one-core machines degrade to :class:`~repro.service.MinimizationService`
    instead of a 1-shard wrapper.
    """
    if value is None:
        return 0
    if value == "auto":
        cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        resolved = cores - 1
        return resolved if resolved >= 2 else 0
    count = int(value)
    if count < 0:
        raise ValueError(f"shards must be >= 0 or 'auto', got {count}")
    return 0 if count <= 1 else count


@dataclass
class _ShardRequest:
    """One in-flight request at the front-end."""

    kind: str  # "minimize" | "stats" | "ping" | "shutdown"
    future: "asyncio.Future"
    pattern: Optional[TreePattern] = None
    fingerprint: Optional[str] = None
    enqueued_at: float = 0.0
    deadline_at: Optional[float] = None
    #: Dispatch attempts so far (bumped when a shard death requeues it).
    attempts: int = 0
    #: Internal warm-up replay after a restart: excluded from stats.
    warm: bool = False


class _LruSet:
    """A bounded set with least-recently-added/touched eviction.

    Backs :attr:`_ShardHandle.seen_fps`: an unbounded set there leaks
    one entry per distinct fingerprint for the life of the manager. The
    bound is safe because membership only steers the overflow policy —
    a forgotten fingerprint merely lets an old structure spill to a
    less-loaded shard, never changes any result.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, None]" = OrderedDict()

    def add(self, value: str) -> None:
        self._entries[value] = None
        self._entries.move_to_end(value)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, value: object) -> bool:
        return value in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class _ShardHandle:
    """Front-end state for one shard: process, pipe, threads, routing."""

    def __init__(self, index: int, seen_fps_cap: int = 4096) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.sender_queue: "queue_module.Queue" = queue_module.Queue()
        self.sender_thread: Optional[threading.Thread] = None
        self.reader_thread: Optional[threading.Thread] = None
        #: request_id -> _ShardRequest awaiting this shard's response.
        self.pending: "dict[int, _ShardRequest]" = {}
        #: Fingerprints this shard has been routed (≈ its memo contents),
        #: LRU-bounded so a long-running manager cannot leak one entry
        #: per distinct structure forever.
        self.seen_fps: _LruSet = _LruSet(seen_fps_cap)
        #: fingerprint -> exemplar pattern, LRU-bounded; replayed to
        #: re-warm the shard after a planned restart.
        self.exemplars: "OrderedDict[str, TreePattern]" = OrderedDict()
        self.breaker = CircuitBreaker(failure_threshold=3, cooldown=0.25)
        #: EWMA of per-request e2e seconds served by this shard.
        self.ewma_seconds = 0.01
        self.live = False
        self.draining = False
        #: Planned stop in progress: EOF is expected, not a death.
        self.shutting_down = False
        #: Bumped on every (re)spawn so stale thread callbacks no-op.
        self.generation = 0

    @property
    def pending_minimize(self) -> int:
        return sum(1 for r in self.pending.values() if r.kind == "minimize")

    def routable(self) -> bool:
        return self.live and not self.draining and self.breaker.state != "open"


class ShardManager:
    """Async front-end over N shard worker processes.

    Parameters
    ----------
    options:
        Session configuration for every shard. The fault plan (if any)
        stays at the front-end — it arms ``shard.kill`` and the
        protocol-level points; worker processes run without injection
        so the fleet's fired-fault log lives in one place.
    constraints:
        The integrity constraints every request is minimized under.
    shards:
        Worker-process count (>= 1; use :func:`resolve_shards` to map
        user input, which returns 0 to mean "don't shard at all").
    policy:
        One of :data:`SHARD_POLICIES` (default ``"overflow"``).
    max_batch_size:
        Per-shard micro-batch bound (the worker drains its pipe up to
        this many requests per ``minimize_many`` burst).
    max_queue:
        Fleet-wide pending bound, split evenly across shards; a full
        fleet rejects with :class:`~repro.errors.ServiceOverloadedError`.
    spill_threshold:
        Queue depth past which the ``overflow`` policy spills
        cache-miss-only traffic off a hot shard.
    default_timeout:
        Per-request timeout used when :meth:`submit` is not given one.
    exemplar_cap:
        Hottest-fingerprint exemplars kept per shard for post-restart
        warm replay.
    seen_fps_cap:
        Bound on the per-shard routed-fingerprint set that steers the
        overflow policy (LRU-evicted beyond it).
    """

    def __init__(
        self,
        options: Optional[MinimizeOptions] = None,
        *,
        constraints=None,
        shards: int = 2,
        policy: str = "overflow",
        max_batch_size: int = 16,
        max_queue: int = 256,
        spill_threshold: int = 8,
        default_timeout: Optional[float] = None,
        exemplar_cap: int = 128,
        seen_fps_cap: int = 4096,
        max_dispatch_attempts: int = 4,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {policy!r} (expected one of {SHARD_POLICIES})"
            )
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < shards:
            raise ValueError(
                f"max_queue must be >= shards ({shards}), got {max_queue}"
            )
        if spill_threshold < 1:
            raise ValueError(f"spill_threshold must be >= 1, got {spill_threshold}")
        options = options if options is not None else MinimizeOptions()
        self.options = options
        self.constraints = constraints
        self.n_shards = shards
        self.policy = policy
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.max_pending_per_shard = max(1, max_queue // shards)
        self.spill_threshold = spill_threshold
        self.default_timeout = default_timeout
        self.exemplar_cap = exemplar_cap
        if seen_fps_cap < 1:
            raise ValueError(f"seen_fps_cap must be >= 1, got {seen_fps_cap}")
        self.seen_fps_cap = seen_fps_cap
        self.max_dispatch_attempts = max_dispatch_attempts
        #: Front-end (end-to-end) counters, in the service's own shape.
        self.stats = ServiceStats()
        #: Chaos/fault-replay injector (``None`` without a fault plan);
        #: arms ``shard.kill`` here and ``protocol.send`` in the
        #: protocol layer.
        self.injector: Optional[FaultInjector] = (
            FaultInjector(options.fault_plan)
            if options.fault_plan is not None and options.fault_plan
            else None
        )
        # Shards run their sessions *without* the plan: the front-end
        # owns chaos, so the whole fleet reports one fired-fault log.
        # They also run without store_path: the manager is the store's
        # single writer (DESIGN.md §9); workers get the path through
        # ShardWorkerConfig.store_path and open it read-only.
        self._worker_options = options.with_overrides(
            fault_plan=None, store_path=None
        )
        #: The fleet's persistent store (single writable handle); shard
        #: workers read the same file and spool their writes back here.
        self.store = None
        if options.store_path is not None:
            from ..store import PersistentStore

            self.store = PersistentStore(
                options.store_path, injector=self.injector
            )
        #: Monotone fleet-wide constraint epoch: bumped once after every
        #: shard has acked a live IC update, so ``constraint_epoch`` in
        #: the counters proves no worker can still serve a stale-closure
        #: answer for requests submitted after the bump.
        self.constraint_epoch = 0
        # Shard-tier counters (the manager's own, merged into counters()).
        self.shard_restarts = 0
        self.chunks_retried = 0
        self.routed_affinity = 0
        self.routed_overflow = 0
        self.routed_round_robin = 0
        self.parked_total = 0
        self._handles = [_ShardHandle(i, seen_fps_cap) for i in range(shards)]
        self._ring = HashRing()
        self._rr_next = 0
        self._request_seq = 0
        self._parked: "list[_ShardRequest]" = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._closing = False
        self._restart_lock: Optional[asyncio.Lock] = None
        self._mp_context = worker_context()
        self._last_worker_stats: "list[ServiceStats]" = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ShardManager":
        """Spawn every shard process (idempotent)."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._restart_lock = asyncio.Lock()
        for handle in self._handles:
            self._spawn(handle)
        self._started = True
        return self

    async def aclose(self) -> None:
        """Graceful drain: finish in-flight work, stop every shard."""
        if self._closing:
            return
        self._closing = True
        if not self._started:
            if self.store is not None:
                self.store.close()
            return
        # Let queued work finish (bounded: a hung shard must not hang
        # shutdown forever).
        deadline = time.perf_counter() + 30.0
        while (
            any(h.pending_minimize for h in self._handles)
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(0.005)
        for handle in self._handles:
            await self._stop_shard(handle)
        leftovers = self._parked + [
            r for h in self._handles for r in h.pending.values()
        ]
        self._parked = []
        for request in leftovers:
            if not request.future.done():
                request.future.set_exception(
                    ServiceClosedError("shard manager closed")
                )
        if self.store is not None:
            self.store.close()

    async def __aenter__(self) -> "ShardManager":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Spawn / stop / death plumbing
    # ------------------------------------------------------------------

    def _spawn(self, handle: _ShardHandle) -> None:
        """(Re)start one shard: process, pipe, sender+reader threads."""
        parent_conn, child_conn = self._mp_context.Pipe(duplex=True)
        config = ShardWorkerConfig(
            index=handle.index,
            options=self._worker_options,
            constraints=self.constraints,
            max_batch_size=self.max_batch_size,
            store_path=self.options.store_path,
        )
        process = self._mp_context.Process(
            target=shard_worker_main,
            args=(child_conn, config),
            name=f"repro-shard-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.generation += 1
        handle.sender_queue = queue_module.Queue()
        handle.shutting_down = False
        handle.live = True
        generation = handle.generation
        handle.sender_thread = threading.Thread(
            target=self._sender_loop,
            args=(handle, parent_conn, handle.sender_queue, generation),
            name=f"repro-shard-{handle.index}-sender",
            daemon=True,
        )
        handle.reader_thread = threading.Thread(
            target=self._reader_loop,
            args=(handle, parent_conn, generation),
            name=f"repro-shard-{handle.index}-reader",
            daemon=True,
        )
        handle.sender_thread.start()
        handle.reader_thread.start()
        self._ring.add(handle.index)

    def _sender_loop(self, handle, conn, send_queue, generation) -> None:
        """Per-shard sender thread: serialize pipe writes off the loop.

        ``Connection.send`` can block when the pipe buffer fills under
        burst load; doing it here keeps the event loop free to accept
        and route. A failed send means the shard is gone — the death
        handler (scheduled once) requeues everything pending.
        """
        broken = False
        while True:
            message = send_queue.get()
            if message is _SENDER_STOP:
                return
            if broken:
                continue  # death already scheduled; drain and drop
            try:
                conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                broken = True
                self._schedule(self._on_shard_death, handle, generation)

    def _reader_loop(self, handle, conn, generation) -> None:
        """Per-shard reader thread: pump responses onto the event loop."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._schedule(self._on_shard_death, handle, generation)
                return
            self._schedule(self._on_message, handle, generation, message)

    def _schedule(self, callback, *args) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # loop already closed (interpreter exit)
            pass

    async def _stop_shard(self, handle: _ShardHandle) -> None:
        """Planned stop: shutdown handshake, then join (bounded)."""
        if not handle.live:
            return
        handle.shutting_down = True
        handle.live = False
        self._ring.remove(handle.index)
        request = _ShardRequest(
            kind="shutdown", future=self._new_future(), warm=True
        )
        self._dispatch_control(handle, request)
        try:
            await asyncio.wait_for(asyncio.shield(request.future), 5.0)
        except Exception:  # noqa: BLE001 - worker hung or gone: terminate below
            pass
        handle.sender_queue.put(_SENDER_STOP)
        process = handle.process
        if process is not None:
            await asyncio.to_thread(process.join, 2.0)
            if process.is_alive():
                process.terminate()
                await asyncio.to_thread(process.join, 2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    def _on_shard_death(self, handle: _ShardHandle, generation: int) -> None:
        """An unplanned shard exit (crash, SIGKILL chaos, broken pipe):
        respawn it and requeue everything that was pending on it."""
        if handle.generation != generation or handle.shutting_down:
            return
        if not handle.live:
            return
        handle.live = False
        self._ring.remove(handle.index)
        handle.breaker.record_failure()
        handle.seen_fps.clear()  # the new process boots cold
        handle.sender_queue.put(_SENDER_STOP)
        orphans = list(handle.pending.values())
        handle.pending.clear()
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        process = handle.process
        if process is not None:
            process.join(timeout=0.5)
        if self._closing:
            for request in orphans:
                if not request.future.done():
                    request.future.set_exception(
                        ServiceClosedError("shard manager closed")
                    )
            return
        self._spawn(handle)
        self.shard_restarts += 1
        # Requeue lost work through normal routing (minimization is
        # pure, so a re-run is byte-identical); control requests fail
        # fast — their callers re-ask a live fleet.
        for request in orphans:
            if request.future.done():
                continue
            if request.kind != "minimize":
                request.future.set_exception(
                    ServiceError(f"shard {handle.index} died mid-request")
                )
                continue
            request.attempts += 1
            if request.attempts >= self.max_dispatch_attempts:
                request.future.set_exception(
                    ServiceUnavailableError(
                        "request lost to repeated shard deaths",
                        attempts=request.attempts,
                    )
                )
                continue
            self.chunks_retried += 1
            self._route_and_dispatch(request)
        self._drain_parked()

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
        """Minimize one query through the fleet; awaits the result.

        Same contract as :meth:`repro.service.MinimizationService.submit`
        (timeouts, deadlines, shedding, backpressure) — plus routing:
        the request lands on the shard owning its structural
        fingerprint unless overflow or restarts say otherwise.
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "shard manager is closed" if self._closing else "shard manager not started"
            )
        now = time.perf_counter()
        deadline_at: Optional[float] = None
        if deadline is not None:
            if deadline <= 0:
                self.stats.sheds += 1
                raise DeadlineExceededError(
                    f"deadline of {deadline}s already elapsed at submission; "
                    "request shed"
                )
            deadline_at = now + deadline
        request = _ShardRequest(
            kind="minimize",
            future=self._new_future(),
            pattern=pattern,
            fingerprint=fingerprint(pattern),
            enqueued_at=now,
            deadline_at=deadline_at,
        )
        self._route_and_dispatch(request)  # raises Overloaded on a full fleet
        self.stats.submitted += 1
        depth = sum(h.pending_minimize for h in self._handles) + len(self._parked)
        if depth > self.stats.queue_high_watermark:
            self.stats.queue_high_watermark = depth
        timeout = timeout if timeout is not None else self.default_timeout
        wait = timeout
        if deadline is not None:
            wait = deadline if wait is None else min(wait, deadline)
        try:
            if wait is None:
                return await request.future
            return await asyncio.wait_for(request.future, wait)
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            if deadline is not None and (timeout is None or deadline <= timeout):
                raise DeadlineExceededError(
                    f"deadline of {deadline}s elapsed awaiting the result"
                ) from None
            raise
        except asyncio.CancelledError:
            if not request.future.done():
                request.future.cancel()
            self.stats.cancelled += 1
            raise

    async def submit_many(
        self,
        patterns: Sequence[TreePattern],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> "list[QueryResult]":
        """Submit a group concurrently; results in input order."""
        return list(
            await asyncio.gather(
                *(self.submit(p, timeout=timeout, deadline=deadline) for p in patterns)
            )
        )

    def _new_future(self) -> "asyncio.Future":
        assert self._loop is not None, "manager not started"
        return self._loop.create_future()

    def _next_id(self) -> int:
        self._request_seq += 1
        return self._request_seq

    def _route_and_dispatch(self, request: _ShardRequest) -> None:
        """Pick a shard for ``request`` and send it (or park it when no
        shard is routable — a mid-restart lull, not an error)."""
        live = [h for h in self._handles if h.routable()]
        if not live:
            self._parked.append(request)
            self.parked_total += 1
            return
        handle = self._pick(request, live)
        self._dispatch(handle, request)

    def _pick(self, request: _ShardRequest, live: "list[_ShardHandle]") -> _ShardHandle:
        if self.policy == "round-robin":
            handle = live[self._rr_next % len(live)]
            self._rr_next += 1
            self.routed_round_robin += 1
            return self._bounded(handle, live)
        owner = self._ring.lookup(request.fingerprint or "")
        primary = next((h for h in live if h.index == owner), None)
        if primary is None:  # ring/membership race: fall back to load
            primary = min(live, key=lambda h: h.pending_minimize)
        target = primary
        if (
            self.policy == "overflow"
            and primary.pending_minimize >= self.spill_threshold
            and (request.fingerprint or "") not in primary.seen_fps
        ):
            # Hot shard + never-seen structure: no memo to lose by
            # spilling, so take the shortest queue instead.
            target = min(live, key=lambda h: h.pending_minimize)
        if target is primary:
            self.routed_affinity += 1
        else:
            self.routed_overflow += 1
        return self._bounded(target, live)

    def _bounded(self, target: _ShardHandle, live: "list[_ShardHandle]") -> _ShardHandle:
        """Apply per-shard pending bounds; reject when the fleet is full."""
        if target.pending_minimize < self.max_pending_per_shard:
            return target
        fallback = min(live, key=lambda h: h.pending_minimize)
        if fallback.pending_minimize < self.max_pending_per_shard:
            if fallback is not target:
                self.routed_overflow += 1
            return fallback
        self.stats.rejected += 1
        raise ServiceOverloadedError(
            f"all {len(live)} shard queues full "
            f"({self.max_pending_per_shard} pending each)",
            retry_after=self._retry_after(live),
        )

    def _retry_after(self, live: "list[_ShardHandle]") -> float:
        """One coherent fleet-wide back-off: the estimated time until
        the least-loaded shard drains one slot of its queue."""
        best = min(
            (h.pending_minimize * max(h.ewma_seconds, 1e-3) for h in live),
            default=0.05,
        )
        return round(max(best, 1e-3), 4)

    def _dispatch(self, handle: _ShardHandle, request: _ShardRequest) -> None:
        request_id = self._next_id()
        handle.pending[request_id] = request
        if request.fingerprint is not None:
            handle.seen_fps.add(request.fingerprint)
            exemplars = handle.exemplars
            exemplars[request.fingerprint] = request.pattern
            exemplars.move_to_end(request.fingerprint)
            while len(exemplars) > self.exemplar_cap:
                exemplars.popitem(last=False)
        if self.injector is not None and request.kind == "minimize" and not request.warm:
            fault = self.injector.draw("shard.kill")
            if fault is not None and fault.kind == "kill":
                self._kill_shard(handle)
        budget = None
        if request.deadline_at is not None:
            budget = request.deadline_at - time.perf_counter()
            if budget <= 0:
                handle.pending.pop(request_id, None)
                self.stats.sheds += 1
                if not request.future.done():
                    request.future.set_exception(
                        DeadlineExceededError(
                            "deadline elapsed before dispatch; request shed"
                        )
                    )
                return
        handle.sender_queue.put(("minimize", request_id, request.pattern, budget))

    def _dispatch_control(
        self, handle: _ShardHandle, request: _ShardRequest, *extra
    ) -> None:
        request_id = self._next_id()
        handle.pending[request_id] = request
        handle.sender_queue.put((request.kind, request_id, *extra))

    def _kill_shard(self, handle: _ShardHandle) -> None:
        """Execute a ``shard.kill`` fault: SIGKILL the worker process.

        Detection and recovery run through the normal death path — the
        reader thread sees EOF, the manager respawns and requeues."""
        process = handle.process
        if process is None or process.pid is None:
            return
        try:
            os.kill(process.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced exit
            pass

    def _drain_parked(self) -> None:
        parked, self._parked = self._parked, []
        for request in parked:
            if not request.future.done():
                self._route_and_dispatch(request)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _on_message(self, handle: _ShardHandle, generation: int, message) -> None:
        if handle.generation != generation:
            return  # stale thread from a previous incarnation
        try:
            status, request_id, payload = message
        except (TypeError, ValueError):
            return  # malformed: ignore (never tear the fleet down)
        if status == "store":
            # Unsolicited spool hand-off from a read-only worker store:
            # the manager is the single writer and commits for the fleet.
            if self.store is not None:
                self.store.apply_rows(payload)
            return
        request = handle.pending.pop(request_id, None)
        if request is None:
            return  # raced a timeout/cancel/requeue: discard
        handle.breaker.record_success()
        now = time.perf_counter()
        if status == "ok":
            if request.kind == "minimize":
                elapsed = now - request.enqueued_at
                handle.ewma_seconds = 0.7 * handle.ewma_seconds + 0.3 * max(
                    elapsed, 1e-6
                )
                if not request.warm:
                    self.stats.completed += 1
                    self.stats.latency.observe(elapsed)
            if not request.future.done():
                request.future.set_result(payload)
            return
        # status == "err": the payload is the worker-side exception.
        exc = payload if isinstance(payload, BaseException) else ServiceError(
            f"shard {handle.index} error: {payload!r}"
        )
        if request.kind == "minimize" and not request.warm:
            if isinstance(exc, DeadlineExceededError):
                self.stats.sheds += 1
            else:
                self.stats.failed += 1
        if not request.future.done():
            request.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Live constraint updates
    # ------------------------------------------------------------------

    async def update_constraints(self, add=None, drop=None) -> dict:
        """Apply a live IC update to every shard; awaits full fan-out.

        The update is staged on a manager-side repository copy first —
        an invalid update (dropping a derived constraint, add/drop
        overlap) raises here before any worker is touched. Then
        ``self.constraints`` is swapped so any respawn or rolling
        restart boots post-churn, and the update fans out to each shard
        in turn (each worker flushes its drained burst, switches
        closure, and acks with its new digest). Every ack's digest is
        cross-checked against the manager's; ``constraint_epoch`` is
        bumped only after the last shard acks, so once this returns no
        worker can serve a stale-closure answer to a later submit.

        A shard that dies mid-push is fine: its replacement boots from
        the already-swapped ``self.constraints`` and the re-push is
        idempotent (re-adding an existing constraint and dropping an
        absent one are both no-ops).

        Returns an aggregate JSON-shaped dict (the ``constraints``
        protocol op's response for sharded backends).
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "shard manager is closed"
                if self._closing
                else "shard manager not started"
            )
        assert self._restart_lock is not None
        async with self._restart_lock:
            adds = _coerce_constraint_list(add)
            drops = _coerce_constraint_list(drop)
            repo = coerce_repository(self.constraints).copy()
            if not repo.is_closed:
                # Close first so old_digest is the served closure digest
                # (what Session reports), not the open base-set digest.
                repo = closure(repo)
            with repo.begin_update() as update:
                for constraint in adds:
                    update.add(constraint)
                for constraint in drops:
                    update.drop(constraint)
            self.constraints = repo
            shard_payloads = []
            for handle in self._handles:
                payload = await self._push_constraints(handle, adds, drops)
                if payload.get("new_digest") != update.new_digest:
                    raise ServiceError(
                        f"shard {handle.index} closure digest diverged after "
                        f"constraint update ({payload.get('new_digest')!r} != "
                        f"{update.new_digest!r})"
                    )
                shard_payloads.append(payload)
            self.constraint_epoch += 1
            self.stats.ic_updates += 1
            return {
                "constraint_epoch": self.constraint_epoch,
                "old_digest": update.old_digest,
                "new_digest": update.new_digest,
                "changed": update.old_digest != update.new_digest,
                "mode": update.mode,
                "added": [c.notation() for c in update.added],
                "dropped": [c.notation() for c in update.dropped],
                "closure_size": len(repo),
                "shards_updated": len(shard_payloads),
                "shard_modes": [p.get("mode") for p in shard_payloads],
                "invalidated_replays": sum(
                    p.get("invalidated_replays", 0) for p in shard_payloads
                ),
                "surviving_oracle_entries": sum(
                    p.get("surviving_oracle_entries", 0) for p in shard_payloads
                ),
            }

    async def _push_constraints(
        self, handle: _ShardHandle, adds, drops, *, timeout: float = 15.0
    ) -> dict:
        """Push one constraint update to one shard, riding out deaths
        (the re-push after a respawn is idempotent)."""
        deadline = time.perf_counter() + timeout
        attempts = 0
        while True:
            if not handle.live:
                if time.perf_counter() >= deadline:
                    break
                await asyncio.sleep(0.02)
                continue
            request = _ShardRequest(
                kind="constraints", future=self._new_future(), warm=True
            )
            self._dispatch_control(handle, request, adds, drops)
            attempts += 1
            try:
                return await asyncio.wait_for(
                    asyncio.shield(request.future),
                    max(0.05, deadline - time.perf_counter()),
                )
            except (asyncio.TimeoutError, ServiceError):
                # Shard death mid-push (or a hung worker): the respawn
                # boots post-churn; retry until the budget runs out so
                # the digest cross-check still happens.
                if time.perf_counter() >= deadline:
                    break
                await asyncio.sleep(0.02)
        raise ServiceUnavailableError(
            f"shard {handle.index} failed to ack the constraint update",
            attempts=attempts,
        )

    def constraints_info(self) -> dict:
        """The fleet's constraint repository digest / sizes / epoch —
        the protocol's parameterless ``constraints`` op."""
        repo = coerce_repository(self.constraints)
        if not repo.is_closed:
            repo = closure(repo)
        return {
            "digest": repo.digest(),
            "closure_size": len(repo),
            "base_size": len(repo.base),
            "ic_updates": self.stats.ic_updates,
            "constraint_epoch": self.constraint_epoch,
        }

    # ------------------------------------------------------------------
    # Rolling restart
    # ------------------------------------------------------------------

    async def rolling_restart(self, *, drain_timeout: float = 30.0) -> int:
        """Restart every shard one at a time, without dropping requests.

        For each shard: leave the ring (new traffic redistributes to
        the ring successors), drain its pending queue, shut the process
        down cleanly, boot a fresh one, **re-warm it** by replaying its
        hottest exemplar fingerprints through ``minimize`` (results
        discarded — the point is repopulating the memo), then rejoin
        the ring. Returns the number of shards restarted.
        """
        if not self._started or self._closing:
            raise ServiceClosedError("shard manager not serving")
        assert self._restart_lock is not None
        restarted = 0
        async with self._restart_lock:
            for handle in self._handles:
                if not handle.live:
                    continue  # death path is already rebuilding it
                handle.draining = True
                self._ring.remove(handle.index)
                drain_deadline = time.perf_counter() + drain_timeout
                while handle.pending and time.perf_counter() < drain_deadline:
                    await asyncio.sleep(0.002)
                await self._stop_shard(handle)
                if self._closing:
                    handle.draining = False
                    return restarted
                exemplars = list(handle.exemplars.items())
                self._spawn(handle)
                # Stay off the ring until the warm replay lands: new
                # traffic keeps flowing to the survivors while the
                # restarted shard repopulates its memo.
                self._ring.remove(handle.index)
                await self._warm_replay(handle, exemplars)
                self._ring.add(handle.index)
                handle.draining = False
                self.shard_restarts += 1
                restarted += 1
                self._drain_parked()
        return restarted

    async def _warm_replay(self, handle: _ShardHandle, exemplars) -> None:
        """Replay exemplar patterns into a freshly restarted shard so it
        rejoins the ring warm (memo repopulated) instead of cold."""
        if not exemplars:
            return
        requests = []
        for fp, pattern in exemplars:
            request = _ShardRequest(
                kind="minimize",
                future=self._new_future(),
                pattern=pattern,
                fingerprint=fp,
                enqueued_at=time.perf_counter(),
                warm=True,
            )
            self._dispatch(handle, request)
            requests.append(request)
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(r.future for r in requests), return_exceptions=True
                ),
                timeout=30.0,
            )
        except asyncio.TimeoutError:  # pragma: no cover - hung warmup
            pass

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    async def counters_async(self) -> "dict[str, float]":
        """Fleet-wide flat counters, refreshed from every live shard.

        Layout: session/cache counters summed across shards at the top
        level (``cache_hits``, ``queries``, ``oracle_cache_hits``, ...,
        so single-process dashboards keep working), the front-end's
        end-to-end stats under their usual names, worker-side aggregates
        under ``shard_*`` (including merged fleet ``shard_latency_p99``
        built by :meth:`LatencyHistogram.merge`), per-shard hit counters
        under ``shard{i}_*``, and the shard-tier counters
        (``shard_restarts``, ``chunks_retried``, ``routed_*``).
        """
        snapshots: "list[tuple[int, ServiceStats]]" = []
        for handle in self._handles:
            if not handle.live:
                continue
            request = _ShardRequest(
                kind="stats", future=self._new_future(), warm=True
            )
            self._dispatch_control(handle, request)
            try:
                payload = await asyncio.wait_for(
                    asyncio.shield(request.future), 5.0
                )
                snapshots.append((handle.index, payload))
            except Exception:  # noqa: BLE001 - a dead/slow shard skips a snapshot
                continue
        self._last_worker_stats = [stats for _, stats in snapshots]
        return self._build_counters(snapshots)

    def counters(self) -> "dict[str, float]":
        """The last refreshed fleet counters (sync view; the protocol's
        ``stats`` op and :meth:`counters_async` refresh it)."""
        snapshots = list(enumerate(self._last_worker_stats))
        return self._build_counters(snapshots)

    def _build_counters(self, snapshots) -> "dict[str, float]":
        fleet = ServiceStats.aggregate([stats for _, stats in snapshots])
        out: "dict[str, float]" = dict(fleet.backend_counters)
        if out.get("queries"):
            out["hit_rate"] = out.get("cache_hits", 0) / out["queries"]
        backend_keys = set(fleet.backend_counters)
        for key, value in fleet.counters().items():
            if key in backend_keys:
                continue
            out[f"shard_{key}"] = value
        for index, stats in snapshots:
            backend = stats.backend_counters
            queries = backend.get("queries", 0)
            out[f"shard{index}_queries"] = queries
            out[f"shard{index}_cache_hits"] = backend.get("cache_hits", 0)
            out[f"shard{index}_oracle_cache_hits"] = backend.get(
                "oracle_cache_hits", 0
            )
            out[f"shard{index}_completed"] = stats.completed
            if queries:
                out[f"shard{index}_hit_rate"] = backend.get("cache_hits", 0) / queries
        if self.injector is not None:
            self.stats.faults_injected = self.injector.faults_injected
        # Certification/audit work happens inside the workers; mirror the
        # fleet sums into the front-end stats so the overlay below
        # reports them instead of the manager's own (always-zero) fields.
        self.stats.audited = fleet.audited
        self.stats.audit_failures = fleet.audit_failures
        self.stats.quarantined_records = fleet.quarantined_records
        if self.store is not None:
            # The manager-side (writable) store view, distinct from the
            # workers' read-only store_* counters summed above.
            for key, value in self.store.stats.counters().items():
                out[f"manager_{key}"] = value
        out.update(self.stats.counters())
        out.update(
            {
                "shards": self.n_shards,
                "constraint_epoch": self.constraint_epoch,
                "shard_restarts": self.shard_restarts,
                "chunks_retried": self.chunks_retried,
                "routed_affinity": self.routed_affinity,
                "routed_overflow": self.routed_overflow,
                "routed_round_robin": self.routed_round_robin,
                "parked_total": self.parked_total,
            }
        )
        return out

    def fault_events(self) -> "list[list]":
        """Fired faults as ``[point, kind, hit]`` rows (the ``faults``
        protocol op); empty without a fault plan."""
        if self.injector is None:
            return []
        return [[e.point, e.kind, e.hit] for e in self.injector.events()]
