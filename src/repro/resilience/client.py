"""Resilient clients for the JSON-lines minimization service.

The serial ``minimize`` loop never loses work; a networked service can —
connections break, responses truncate, queues overload, restarts drop
requests mid-flight. :class:`ServiceClient` (sync) and
:class:`AsyncServiceClient` (asyncio) close that gap so the chaos
suite's contract — *byte-identical results to the serial loop under
every injected fault* — holds end to end:

* **idempotent retries** — every logical request keeps one id across
  resends (the wire ``retry`` field marks attempt > 1), and responses
  are matched *by id*: a stale or duplicated response from an earlier
  attempt is counted and discarded, never delivered to the wrong
  caller;
* **capped exponential backoff with deterministic jitter** —
  :class:`RetryPolicy` honors the server's
  :class:`~repro.errors.ServiceOverloadedError` ``retry_after`` hint as
  a floor, and jitter comes from a seeded :class:`random.Random`, so a
  chaos run replays its exact timing decisions;
* **a circuit breaker** — :class:`CircuitBreaker` stops hammering a
  down service after ``failure_threshold`` consecutive transport
  failures and half-opens one probe per ``cooldown``;
* **garbage tolerance** — unparseable lines (fault injection, real
  corruption) are skipped and counted, not fatal.

Errors the *server* answered with are trusted: an ``ok: false``
response proves the service is up, so only transport failures and
overload feed the breaker. Non-retryable server errors
(:class:`~repro.errors.DeadlineExceededError`, parse failures, ...)
raise immediately; exhausted budgets raise
:class:`~repro.errors.ServiceUnavailableError` wrapping the last
underlying failure.

This module deliberately imports nothing above :mod:`repro.errors` and
:mod:`repro.obs` — it is the bottom of the resilience layer and must
stay importable from :mod:`repro.api` without cycles.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ProtocolError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from ..obs import Stats

__all__ = [
    "AsyncServiceClient",
    "CircuitBreaker",
    "ClientStats",
    "RetryPolicy",
    "ServiceClient",
]


@dataclass
class ClientStats(Stats):
    """Counters of one client's lifetime."""

    #: Logical requests issued through the client.
    requests: int = 0
    #: Wire attempts (>= requests; resends included).
    attempts: int = 0
    #: Resends of an already-attempted request (idempotent retries).
    retries: int = 0
    #: Fresh connections dialled after the first.
    reconnects: int = 0
    #: Unparseable response lines skipped (corruption / fault injection).
    garbage_lines: int = 0
    #: Well-formed responses discarded for carrying an unexpected id
    #: (stale duplicates from earlier attempts, misroutes).
    duplicate_responses: int = 0
    #: Times the circuit breaker transitioned closed -> open.
    breaker_opens: int = 0
    #: Attempts refused locally because the breaker was open.
    breaker_short_circuits: int = 0
    #: Total seconds slept across all backoffs.
    backoff_seconds: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter.

    ``delay(attempt)`` grows ``base_delay * multiplier**(attempt-1)``,
    capped at ``max_delay``, plus up to ``jitter`` of itself drawn from
    the caller's rng (seeded by the client — deterministic replay). A
    server-provided ``retry_after`` hint acts as a floor: the client
    never comes back sooner than the service asked.
    """

    max_attempts: int = 6
    base_delay: float = 0.02
    max_delay: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(
        self,
        attempt: int,
        *,
        retry_after: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        base = min(self.base_delay * self.multiplier ** max(attempt - 1, 0), self.max_delay)
        if self.jitter and rng is not None:
            base += base * self.jitter * rng.random()
        if retry_after is not None:
            base = max(base, retry_after)
        return base


class CircuitBreaker:
    """A minimal closed / open / half-open circuit breaker.

    ``failure_threshold`` consecutive :meth:`record_failure` calls open
    the circuit: :meth:`allow` returns ``False`` (fail fast, no network
    I/O) until ``cooldown`` seconds pass, then exactly one probe is let
    through (half-open). The probe's outcome closes or re-opens the
    circuit. The clock is injectable so tests never sleep.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        #: Times the circuit transitioned closed -> open.
        self.opens = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._probing or self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def retry_after(self) -> float:
        """Seconds until the circuit half-opens (0 when not open)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether an attempt may proceed right now.

        In the half-open state only the first caller gets a probe slot;
        it must report back through :meth:`record_success` /
        :meth:`record_failure`.
        """
        if self._opened_at is None:
            return True
        if self._probing:
            return False
        if self._clock() - self._opened_at >= self.cooldown:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """An attempt reached the service: close the circuit."""
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A transport-level failure; may open (or re-open) the circuit."""
        if self._probing or self._opened_at is not None:
            # Failed probe (or failure while open): restart the cooldown.
            self._opened_at = self._clock()
            self._probing = False
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self.opens += 1


#: Server error types worth retrying: the service is up but can't take
#: the request *right now*. Everything else the server answers with is
#: a real outcome and raises immediately.
_RETRYABLE_ERROR_TYPES = frozenset({"ServiceOverloadedError", "ServiceClosedError"})


def _error_from_payload(error: Any) -> ServiceError:
    """Rehydrate a structured ``ok: false`` error payload."""
    if not isinstance(error, dict):
        return ServiceError(f"malformed error payload: {error!r}")
    etype = error.get("type", "ServiceError")
    message = str(error.get("message", ""))
    if etype == "ServiceOverloadedError":
        try:
            retry_after = float(error.get("retry_after", 0.05))
        except (TypeError, ValueError):
            retry_after = 0.05
        return ServiceOverloadedError(message, retry_after=retry_after)
    if etype == "DeadlineExceededError":
        return DeadlineExceededError(message)
    if etype == "ServiceClosedError":
        return ServiceClosedError(message)
    if etype == "ProtocolError":
        return ProtocolError(message)
    return ServiceError(f"{etype}: {message}")


def _retryable(error: ServiceError) -> bool:
    return type(error).__name__ in _RETRYABLE_ERROR_TYPES


class _BaseClient:
    """State shared by the sync and asyncio clients."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout: float = 10.0,
        seed: int = 0,
        stats: Optional[ClientStats] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.timeout = timeout
        self.stats = stats if stats is not None else ClientStats()
        self._rng = random.Random(seed)
        self._seq = 0
        self._connected_once = False

    def _next_id(self) -> str:
        self._seq += 1
        return f"c{self._seq}"

    def _note_connect(self) -> None:
        if self._connected_once:
            self.stats.reconnects += 1
        self._connected_once = True

    def _sync_breaker_opens(self) -> None:
        self.stats.breaker_opens = self.breaker.opens

    def _decode_line(self, raw: bytes) -> Optional[dict]:
        """One wire line as a response dict, or ``None`` for garbage."""
        try:
            response = json.loads(raw.decode("utf-8", "replace"))
        except ValueError:
            self.stats.garbage_lines += 1
            return None
        if not isinstance(response, dict):
            self.stats.garbage_lines += 1
            return None
        return response

    def _minimize_payload(
        self,
        query: str,
        *,
        fmt: str = "xpath",
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        payload: dict = {"op": "minimize", "query": query, "format": fmt}
        if timeout is not None:
            payload["timeout"] = timeout
        if deadline is not None:
            payload["deadline"] = deadline
        return payload

    def _exhausted(self, attempts: int, last_error: Optional[BaseException]):
        self._sync_breaker_opens()
        return ServiceUnavailableError(
            f"request failed after {attempts} attempt(s): {last_error}",
            attempts=attempts,
            last_error=last_error,
        )


class ServiceClient(_BaseClient):
    """Synchronous resilient TCP client (one request in flight).

    Usage::

        with ServiceClient("127.0.0.1", 8777) as client:
            result = client.minimize("a/b[c][c]")
            print(result["minimized"])

    The connection is dialled lazily and redialled transparently after
    transport failures; see the module docstring for the retry /
    breaker / idempotency contract.
    """

    def __init__(self, host: str, port: int, **kwargs: Any) -> None:
        super().__init__(host, port, **kwargs)
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drop_connection(self) -> None:
        for closeable in (self._file, self._sock):
            if closeable is not None:
                try:
                    closeable.close()
                except OSError:  # pragma: no cover - already dead
                    pass
        self._file = None
        self._sock = None

    def _ensure_connection(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        self._note_connect()

    # -- request path --------------------------------------------------

    def ping(self) -> dict:
        """Round-trip a ``ping`` (health check)."""
        return self.request({"op": "ping"})

    def server_stats(self) -> dict:
        """The service's flat counter dict (the ``stats`` op)."""
        return self.request({"op": "stats"})

    def server_faults(self) -> list:
        """Fired fault-injection events (the ``faults`` op)."""
        return self.request({"op": "faults"})["fired"]

    def minimize(
        self,
        query: str,
        *,
        fmt: str = "xpath",
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Minimize one query; the unified ``QueryResult.to_json`` dict."""
        return self.request(
            self._minimize_payload(query, fmt=fmt, timeout=timeout, deadline=deadline)
        )

    def request(self, payload: dict) -> dict:
        """Send one op with retries; the response's ``result`` object."""
        self.stats.requests += 1
        request_id = payload.get("id", self._next_id())
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self.breaker.allow():
                self.stats.breaker_short_circuits += 1
                self._sync_breaker_opens()
                if attempt == self.retry.max_attempts:
                    raise CircuitOpenError(
                        "circuit breaker open; request not sent",
                        retry_after=self.breaker.retry_after(),
                    )
                # Exponential floor, not bare retry_after: while a probe
                # is in flight retry_after is 0, and a zero sleep would
                # burn every remaining attempt in a busy loop.
                self._sleep(
                    self.retry.delay(
                        attempt,
                        retry_after=self.breaker.retry_after(),
                        rng=self._rng,
                    )
                )
                continue
            self.stats.attempts += 1
            wire = dict(payload)
            wire["id"] = request_id
            if attempt > 1:
                wire["retry"] = attempt - 1
                self.stats.retries += 1
            try:
                response = self._send_and_receive(wire, request_id)
            except (OSError, EOFError) as exc:
                # Transport failure: could not prove the service is up.
                last_error = exc
                self.breaker.record_failure()
                self._sync_breaker_opens()
                self._drop_connection()
                self._sleep(self.retry.delay(attempt, rng=self._rng))
                continue
            self.breaker.record_success()
            if response.get("ok"):
                result = response.get("result")
                return result if isinstance(result, dict) else {"value": result}
            error = _error_from_payload(response.get("error"))
            if not _retryable(error):
                raise error
            last_error = error
            self._sleep(
                self.retry.delay(
                    attempt,
                    retry_after=getattr(error, "retry_after", None),
                    rng=self._rng,
                )
            )
        raise self._exhausted(self.retry.max_attempts, last_error)

    def _send_and_receive(self, wire: dict, request_id: str) -> dict:
        self._ensure_connection()
        assert self._sock is not None and self._file is not None
        self._sock.sendall(json.dumps(wire).encode("utf-8") + b"\n")
        while True:
            raw = self._file.readline()
            if not raw:
                raise EOFError("connection closed awaiting response")
            response = self._decode_line(raw)
            if response is None:
                continue  # garbage line: skip, keep reading
            if response.get("id") != request_id:
                # A stale response to an earlier attempt of some request
                # (or a misroute): never deliver it to this caller.
                self.stats.duplicate_responses += 1
                continue
            return response

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.stats.backoff_seconds += seconds
            time.sleep(seconds)


class AsyncServiceClient(_BaseClient):
    """Asyncio resilient TCP client with pipelined requests.

    Many :meth:`request` coroutines may be in flight at once over one
    connection — a background reader task routes each response line to
    its request by id. Connection loss fails every pending request's
    current attempt; each retries independently (same id, ``retry``
    marker) on the redialled connection.

    Usage::

        async with AsyncServiceClient("127.0.0.1", 8777) as client:
            results = await asyncio.gather(
                *(client.minimize(q) for q in queries)
            )
    """

    def __init__(self, host: str, port: int, **kwargs: Any) -> None:
        super().__init__(host, port, **kwargs)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: dict[str, asyncio.Future] = {}
        self._conn_lock: Optional[asyncio.Lock] = None

    # -- lifecycle -----------------------------------------------------

    async def aclose(self) -> None:
        """Drop the connection and fail pending attempts (idempotent)."""
        await self._drop_connection(EOFError("client closed"))

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def _drop_connection(self, exc: BaseException) -> None:
        task, self._reader_task = self._reader_task, None
        writer, self._writer = self._writer, None
        self._reader = None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _ensure_connection(self) -> None:
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop(reader))
            self._note_connect()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Route every incoming line to its pending request by id."""
        exc: BaseException = EOFError("connection closed by server")
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                response = self._decode_line(raw)
                if response is None:
                    continue
                future = self._pending.pop(str(response.get("id")), None)
                if future is None:
                    self.stats.duplicate_responses += 1
                    continue
                if not future.done():
                    future.set_result(response)
        except (OSError, asyncio.IncompleteReadError) as err:  # pragma: no cover
            exc = err
        except asyncio.CancelledError:
            return  # aclose() path: futures were already failed
        # EOF: fail pending attempts so their retry loops redial.
        if self._reader_task is asyncio.current_task():
            self._reader_task = None
        await self._drop_connection(exc)

    # -- request path --------------------------------------------------

    async def ping(self) -> dict:
        """Round-trip a ``ping`` (health check)."""
        return await self.request({"op": "ping"})

    async def server_stats(self) -> dict:
        """The service's flat counter dict (the ``stats`` op)."""
        return await self.request({"op": "stats"})

    async def server_faults(self) -> list:
        """Fired fault-injection events (the ``faults`` op)."""
        return (await self.request({"op": "faults"}))["fired"]

    async def minimize(
        self,
        query: str,
        *,
        fmt: str = "xpath",
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Minimize one query; the unified ``QueryResult.to_json`` dict."""
        return await self.request(
            self._minimize_payload(query, fmt=fmt, timeout=timeout, deadline=deadline)
        )

    async def request(self, payload: dict) -> dict:
        """Send one op with retries; the response's ``result`` object."""
        self.stats.requests += 1
        request_id = str(payload.get("id", self._next_id()))
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self.breaker.allow():
                self.stats.breaker_short_circuits += 1
                self._sync_breaker_opens()
                if attempt == self.retry.max_attempts:
                    raise CircuitOpenError(
                        "circuit breaker open; request not sent",
                        retry_after=self.breaker.retry_after(),
                    )
                # Exponential floor, not bare retry_after: while a probe
                # is in flight retry_after is 0, and a zero sleep would
                # burn every remaining attempt in a busy loop.
                await self._backoff(
                    self.retry.delay(
                        attempt,
                        retry_after=self.breaker.retry_after(),
                        rng=self._rng,
                    )
                )
                continue
            self.stats.attempts += 1
            wire = dict(payload)
            wire["id"] = request_id
            if attempt > 1:
                wire["retry"] = attempt - 1
                self.stats.retries += 1
            try:
                response = await self._send_and_await(wire, request_id)
            except (OSError, EOFError, asyncio.TimeoutError) as exc:
                last_error = exc
                self.breaker.record_failure()
                self._sync_breaker_opens()
                self._pending.pop(request_id, None)
                if not isinstance(exc, asyncio.TimeoutError):
                    await self._drop_connection(EOFError(str(exc)))
                await self._backoff(self.retry.delay(attempt, rng=self._rng))
                continue
            self.breaker.record_success()
            if response.get("ok"):
                result = response.get("result")
                return result if isinstance(result, dict) else {"value": result}
            error = _error_from_payload(response.get("error"))
            if not _retryable(error):
                raise error
            last_error = error
            await self._backoff(
                self.retry.delay(
                    attempt,
                    retry_after=getattr(error, "retry_after", None),
                    rng=self._rng,
                )
            )
        raise self._exhausted(self.retry.max_attempts, last_error)

    async def _send_and_await(self, wire: dict, request_id: str) -> dict:
        await self._ensure_connection()
        assert self._writer is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(json.dumps(wire).encode("utf-8") + b"\n")
        await self._writer.drain()
        return await asyncio.wait_for(future, self.timeout)

    async def _backoff(self, seconds: float) -> None:
        if seconds > 0:
            self.stats.backoff_seconds += seconds
            await asyncio.sleep(seconds)
