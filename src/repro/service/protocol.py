"""JSON-lines wire protocol over stdio or TCP for the service.

One request per line, one response per line, newline-delimited JSON —
trivially scriptable (``echo '{"op":"minimize","query":"a/b[c][c]"}' |
repro-serve``) and still concurrent: every incoming line is handled in
its own task, so requests arriving close together land in the same
micro-batch even over a single connection.

Request objects::

    {"op": "minimize", "query": "a/b[c][c]",
     "id": 1,                  # optional, echoed back verbatim
     "format": "xpath",        # or "sexpr" — parse AND render format
     "timeout": 2.5,           # optional per-request seconds
     "deadline": 0.5,          # optional end-to-end budget (seconds);
                               # expired requests are shed server-side
     "retry": 1}               # optional resend marker (idempotent
                               # client retries; counted, never re-run
                               # concurrently by well-behaved clients)
    {"op": "stats", "id": 2}
    {"op": "faults", "id": 3}
    {"op": "ping", "id": 4}
    {"op": "constraints", "id": 5,        # live integrity-constraint churn
     "add": ["Book -> Title"],            # optional notation strings
     "drop": ["Book ->> Chapter"]}        # optional notation strings

Responses::

    {"id": 1, "ok": true, "result": { ...QueryResult.to_json()... }}
    {"id": 1, "ok": false,
     "error": {"type": "ServiceOverloadedError",
               "message": "request queue full (256 pending)",
               "retry_after": 0.02}}

``result`` for ``minimize`` is exactly the unified
:meth:`repro.api.QueryResult.to_json` shape the CLIs' ``--json`` mode
emits; ``stats`` returns the service's flat counter dict;
``faults`` returns the fired fault-injection events (``{"fired":
[[point, kind, hit], ...]}``); ``ping`` returns ``{"pong": true}``;
``constraints`` with ``add``/``drop`` lists applies a live IC update
(ordered exactly against in-flight requests) and returns
:meth:`repro.api.ConstraintUpdateResult.to_json`, while a bare
``{"op": "constraints"}`` just reports the current repository's
digest / closure size / update count. Any other op is answered with
an ``ok: false`` error.

Robustness contract: a malformed line (bad JSON, garbage bytes, wrong
shape) or an oversized line (over :data:`MAX_LINE_BYTES`) produces a
structured ``ok: false`` response and the connection **stays up** —
only EOF or transport failure ends it. Oversized lines are discarded
without ever being buffered whole, so the cap also bounds memory.
"""

from __future__ import annotations

import asyncio
import json
import os
import stat
import sys
from typing import Callable, Optional

from ..errors import ProtocolError, ReproError, ServiceOverloadedError
from ..parsing.sexpr import parse_sexpr
from ..parsing.xpath import parse_xpath
from .service import MinimizationService

__all__ = [
    "MAX_LINE_BYTES",
    "handle_connection",
    "handle_line",
    "serve_stdio",
    "serve_tcp",
]

_PARSERS = {"xpath": parse_xpath, "sexpr": parse_sexpr}

#: Hard cap on one request line. Lines over it are consumed and
#: discarded (never buffered whole) and answered with a structured
#: ``ProtocolError`` — the connection survives.
MAX_LINE_BYTES = 1 << 20


def _error_response(request_id, exc: BaseException) -> dict:
    error: dict = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ServiceOverloadedError):
        error["retry_after"] = exc.retry_after
    return {"id": request_id, "ok": False, "error": error}


def _oversized_response() -> dict:
    return _error_response(
        None,
        ProtocolError(f"request line exceeds MAX_LINE_BYTES ({MAX_LINE_BYTES})"),
    )


async def _read_request_line(reader: asyncio.StreamReader) -> tuple[bytes, bool]:
    """One raw request line as ``(line, oversized)``.

    The stream's buffer limit is :data:`MAX_LINE_BYTES`; a longer line
    raises ``LimitOverrunError``, which we turn into an *in-band*
    outcome: the oversized line is consumed chunk-by-chunk through its
    newline (bounded memory) and reported as ``(b"", True)`` so the
    caller can answer with a structured error and keep reading."""
    try:
        return await reader.readuntil(b"\n"), False
    except asyncio.IncompleteReadError as exc:
        return exc.partial, False  # EOF without trailing newline
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
        while True:
            try:
                # Skip what readuntil already scanned, then look again.
                await reader.readexactly(max(1, consumed))
                await reader.readuntil(b"\n")
                return b"", True
            except asyncio.IncompleteReadError:
                return b"", True  # EOF mid-discard: report, then EOF out
            except asyncio.LimitOverrunError as more:
                consumed = more.consumed


async def handle_line(service: MinimizationService, line: str) -> Optional[dict]:
    """Dispatch one protocol line; the response dict, or ``None`` for
    blank/comment lines."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return _error_response(None, exc)
    if not isinstance(request, dict):
        return _error_response(None, ValueError("request must be a JSON object"))
    request_id = request.get("id")
    op = request.get("op", "minimize")
    try:
        if request.get("retry"):
            # An idempotent client resend (same id as the original
            # attempt). Tallied so chaos runs can prove retries happened.
            service.stats.client_retries += 1
        if op == "ping":
            return {"id": request_id, "ok": True, "result": {"pong": True}}
        if op == "stats":
            return {"id": request_id, "ok": True, "result": service.counters()}
        if op == "faults":
            return {
                "id": request_id,
                "ok": True,
                "result": {"fired": service.fault_events()},
            }
        if op == "constraints":
            add = request.get("add")
            drop = request.get("drop")
            for name, value in (("add", add), ("drop", drop)):
                if value is not None and not (
                    isinstance(value, list)
                    and all(isinstance(item, str) for item in value)
                ):
                    raise ValueError(
                        f"constraints {name!r} must be a list of notation strings"
                    )
            if not add and not drop:
                return {
                    "id": request_id,
                    "ok": True,
                    "result": service.constraints_info(),
                }
            update = await service.update_constraints(add=add, drop=drop)
            return {"id": request_id, "ok": True, "result": update.to_json()}
        if op == "minimize":
            fmt = request.get("format", "xpath")
            parser = _PARSERS.get(fmt)
            if parser is None:
                raise ValueError(
                    f"unknown format {fmt!r} (expected one of {sorted(_PARSERS)})"
                )
            query = request.get("query")
            if not isinstance(query, str):
                raise ValueError("minimize request needs a string 'query' field")
            deadline = request.get("deadline")
            if deadline is not None and not isinstance(deadline, (int, float)):
                raise ValueError("deadline must be a number of seconds")
            pattern = parser(query)
            result = await service.submit(
                pattern, timeout=request.get("timeout"), deadline=deadline
            )
            return {"id": request_id, "ok": True, "result": result.to_json(fmt=fmt)}
        raise ValueError(
            f"unknown op {op!r} "
            "(expected minimize/stats/faults/ping/constraints)"
        )
    except (ReproError, ValueError, TimeoutError, asyncio.TimeoutError) as exc:
        return _error_response(request_id, exc)
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # noqa: BLE001 - a bad request must never
        # tear down the connection; unexpected failures still go back
        # as structured errors.
        return _error_response(request_id, exc)


def _draw_send_fault(service: MinimizationService):
    """The ``protocol.send`` fault to execute for the next response
    write, if the service's fault plan says one fires."""
    if service.injector is None:
        return None
    return service.injector.draw("protocol.send")


async def handle_connection(
    service: MinimizationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    stop: Optional[asyncio.Event] = None,
) -> None:
    """Serve one JSON-lines connection until EOF (or ``stop``).

    Every line is dispatched in its own task — a client that writes N
    requests back-to-back gets them micro-batched — and a write lock
    keeps concurrent responses line-atomic. When ``stop`` is set
    (graceful drain) the handler stops reading new requests, flushes
    every in-flight response, then closes.
    """
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def _respond(line_bytes: bytes, oversized: bool) -> None:
        if oversized:
            response: Optional[dict] = _oversized_response()
        else:
            response = await handle_line(
                service, line_bytes.decode("utf-8", "replace")
            )
        if response is None:
            return
        payload = json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
        fault = _draw_send_fault(service)
        async with write_lock:
            try:
                if fault is not None and fault.kind == "broken_pipe":
                    # Drop the connection without answering; the client's
                    # idempotent retry resends on a fresh connection.
                    writer.close()
                    return
                if fault is not None and fault.kind == "truncate":
                    writer.write(payload[: max(1, len(payload) // 2)])
                    await writer.drain()
                    writer.close()
                    return
                if fault is not None and fault.kind == "garbage":
                    # A corrupt line *before* the real response; clients
                    # must skip unparseable lines, not die on them.
                    writer.write(b"\x00\xfe{not json)\x80\n")
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    stop_task: Optional[asyncio.Task] = (
        asyncio.ensure_future(stop.wait()) if stop is not None else None
    )
    try:
        while True:
            read_task = asyncio.ensure_future(_read_request_line(reader))
            if stop_task is None:
                await asyncio.wait({read_task})
            else:
                await asyncio.wait(
                    {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read_task.done():  # drain signalled mid-read
                    read_task.cancel()
                    try:
                        await read_task
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass
                    break
            try:
                line_bytes, oversized = read_task.result()
            except (ConnectionResetError, OSError):  # pragma: no cover
                break
            if not line_bytes and not oversized:
                break  # EOF
            task = asyncio.ensure_future(_respond(line_bytes, oversized))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            # Flush in-flight responses (drain and EOF paths alike).
            await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        if stop_task is not None and not stop_task.done():
            stop_task.cancel()
        try:
            writer.close()
        except Exception:  # pragma: no cover - transport already gone
            pass


async def serve_tcp(
    service: MinimizationService,
    host: str = "127.0.0.1",
    port: int = 8777,
    *,
    stop: Optional[asyncio.Event] = None,
    on_bound: Optional[Callable[[int], None]] = None,
) -> None:
    """Run a TCP JSON-lines server until cancelled (or ``stop``).

    ``on_bound`` receives the actually-bound port (useful with
    ``port=0``). When ``stop`` is set the server stops accepting,
    every open connection drains its in-flight requests, and this
    coroutine returns — the graceful-shutdown path ``repro-serve``
    wires to SIGTERM/SIGINT.
    """
    connections: set[asyncio.Task] = set()

    def _on_client(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(handle_connection(service, r, w, stop=stop))
        connections.add(task)
        task.add_done_callback(connections.discard)

    server = await asyncio.start_server(
        _on_client, host, port, limit=MAX_LINE_BYTES
    )
    if on_bound is not None and server.sockets:
        on_bound(server.sockets[0].getsockname()[1])
    async with server:
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()
            server.close()
            await server.wait_closed()
    if connections:
        await asyncio.gather(*connections, return_exceptions=True)


def _pipe_transport_capable(stream) -> bool:
    """Whether the event loop can attach a pipe transport to ``stream``.

    Regular files (``repro-serve < reqs.txt > out.json``) cannot be
    registered with the selector; probing *before* connecting matters
    because ``connect_read_pipe`` takes ownership of stdin — failing
    on stdout afterwards would leave stdin non-blocking and partially
    consumed, starving the thread-backed fallback.
    """
    try:
        mode = os.fstat(stream.fileno()).st_mode
    except (OSError, ValueError):
        return False
    return stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or stat.S_ISCHR(mode)


async def _stdio_streams() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Wrap this process's stdin/stdout as asyncio streams."""
    if not (
        _pipe_transport_capable(sys.stdin) and _pipe_transport_capable(sys.stdout)
    ):
        raise ValueError("stdin/stdout are not pipe-transport-capable")
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, proto = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, proto, reader, loop)
    return reader, writer


def _write_stdout_line(payload: str) -> None:
    sys.stdout.write(payload + "\n")
    sys.stdout.flush()


async def _serve_stdio_threads(
    service: MinimizationService, *, stop: Optional[asyncio.Event] = None
) -> None:
    """Thread-backed stdio loop for when stdin/stdout are regular files
    (redirection, CI logs) and pipe transports refuse them. Lines are
    still dispatched concurrently, so back-to-back requests micro-batch."""
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def _respond(line: str, oversized: bool) -> None:
        response = (
            _oversized_response() if oversized else await handle_line(service, line)
        )
        if response is None:
            return
        payload = json.dumps(response, sort_keys=True)
        async with write_lock:
            await asyncio.to_thread(_write_stdout_line, payload)

    while not (stop is not None and stop.is_set()):
        line = await asyncio.to_thread(sys.stdin.readline)
        if not line:
            break
        oversized = len(line.encode("utf-8", "replace")) > MAX_LINE_BYTES
        task = asyncio.ensure_future(_respond(line, oversized))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


async def serve_stdio(
    service: MinimizationService, *, stop: Optional[asyncio.Event] = None
) -> None:
    """Serve JSON-lines over stdin/stdout until EOF (or ``stop``)."""
    try:
        reader, writer = await _stdio_streams()
    except (ValueError, OSError):
        # stdin/stdout are not pipe-transport-capable (e.g. redirected
        # to regular files) — fall back to a thread-backed loop.
        await _serve_stdio_threads(service, stop=stop)
        return
    await handle_connection(service, reader, writer, stop=stop)
