"""hot-serve: the default ``repro-serve --tcp`` fed over one connection.

The requests are Zipf-skewed isomorphic variants of 64 fixed cold-paper
style families under the paper-sized IC set. A warm-up puts every family
in the memo; then a saturated phase keeps 32 requests in flight (twice
the default batch of 16) and a solo phase keeps one. Nearly every
request is a memo hit, so ``core`` is idle and the time goes to the
protocol, parsing, the micro-batcher and the per-call ``Session`` and
``batch`` work -- which the paper-sized closure makes visible.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from time import perf_counter

from . import host, inputs, reference, trace
from .common import ROOT, WORK, Outcome, median, min_samples, percentile

#: Server boots per run; ``setup_s`` is their median (spawn to warm).
SETUPS = 3
#: Rounds (a saturated then a solo phase) per run.
ROUNDS = 6
#: Requests in flight in the saturated phase, and its share of the run.
IN_FLIGHT = 32
SATURATED_SHARE = 0.7
#: Requests generated per run; the stream wraps around if exhausted.
STREAM_LENGTH = 30000
#: The measured phases must serve at least this share from the memo.
MIN_HIT_RATIO = 0.99
HOST = "127.0.0.1"
#: Seconds to wait for a server to start listening or to drain.
SERVER_WAIT = 120


class Server:
    """One ``perfbench/serve.py`` process wrapping ``repro-serve``."""

    def __init__(self, constraint_file: str, tag: str, trace_path: "str | None" = None):
        self.status_path = os.path.join(WORK, f"hot-serve-{os.getpid()}-{tag}.json")
        command = [sys.executable, os.path.join(ROOT, "perfbench", "serve.py"),
                   "--out", self.status_path]
        if trace_path is not None:
            command += ["--trace", trace_path]
        command += ["--", "--tcp", f"{HOST}:0", "-C", constraint_file]
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.log: list[str] = []
        lines: "queue.Queue[str | None]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, args=(lines,), daemon=True)
        self._drain.start()
        while True:
            line = lines.get(timeout=SERVER_WAIT)
            if line is None:
                self.proc.wait(timeout=SERVER_WAIT)
                raise RuntimeError("server exited before listening:\n" + "".join(self.log))
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break

    def _read_stderr(self, lines: "queue.Queue") -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            lines.put(line)
        lines.put(None)

    def stop(self) -> dict:
        """Drain the server with SIGTERM; its exit status and peak RSS."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=SERVER_WAIT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._drain.join(timeout=SERVER_WAIT)
        try:
            with open(self.status_path, encoding="utf-8") as status:
                return json.load(status)
        except FileNotFoundError:
            raise RuntimeError("server left no status:\n" + "".join(self.log)) from None
        finally:
            if os.path.exists(self.status_path):
                os.remove(self.status_path)


class Client:
    """A JSON-lines client on one connection; replies matched by id."""

    async def open(self, port: int) -> "Client":
        self.reader, self.writer = await asyncio.open_connection(HOST, port, limit=1 << 22)
        self.pending: dict[int, asyncio.Future] = {}
        self.ids = itertools.count(1)
        self._listener = asyncio.ensure_future(self._listen())
        return self

    async def _listen(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self.pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))

    async def call(self, payload: dict) -> dict:
        request_id = next(self.ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write((json.dumps({**payload, "id": request_id}) + "\n").encode())
        await self.writer.drain()
        return await future

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self._listener


async def _closed_loop(client: Client, text_at, start: int, in_flight: int, seconds: float):
    """``in_flight`` callers, each sending its next request when the last
    one is answered, for ``seconds``. Returns ``(records, elapsed,
    next_position)`` with records ``(position, latency, reply)``."""
    records: list = []
    cursor = itertools.count(start)
    begin = perf_counter()
    deadline = begin + seconds

    async def caller() -> None:
        while perf_counter() < deadline:
            position = next(cursor)
            sent = perf_counter()
            reply = await client.call({"op": "minimize", "query": text_at(position)})
            records.append((position, perf_counter() - sent, reply))

    await asyncio.gather(*(caller() for _ in range(in_flight)))
    return records, perf_counter() - begin, next(cursor)


def _pin_client(meter: host.Speedometer, server_cpu: int) -> None:
    """Keep the client off the server's vCPU (when there is another)."""
    os.sched_setaffinity(0, (set(meter.cpus) - {server_cpu}) or {server_cpu})


async def _boot(constraint_file: str, warmup: list[str], tag: str,
                meter: host.Speedometer, trace_path=None):
    """Spawn a server pinned to the fastest vCPU and warm its memo with
    every family; returns the server, a connected client and the seconds
    from spawn to warm, taken to the nominal vCPU speed."""
    server_cpu, before = meter.fastest()  # the server inherits this affinity
    started = perf_counter()
    server = Server(constraint_file, tag, trace_path)
    server.cpu = server_cpu
    _pin_client(meter, server_cpu)
    try:
        client = await Client().open(server.port)
        window = asyncio.Semaphore(IN_FLIGHT)

        async def send(text: str) -> dict:
            async with window:
                return await client.call({"op": "minimize", "query": text})

        replies = await asyncio.gather(*(send(text) for text in warmup))
    except BaseException:
        server.stop()
        raise
    elapsed = perf_counter() - started
    failed = [r for r in replies if not r.get("ok")]
    if failed:
        await client.close()
        server.stop()
        raise RuntimeError(f"warm-up failed: {failed[0]}")
    elapsed *= host.factor(before, meter.probe(server_cpu))
    _pin_client(meter, server_cpu)
    return server, client, elapsed


async def _shutdown(server: Server, client: Client) -> dict:
    await client.close()
    return server.stop()


def _texts(data):
    """Request text by stream position (the stream wraps around)."""
    stream = data.stream
    return lambda position: data.text(stream[position % len(stream)])


async def _untraced(data, constraint_file: str, seconds: float, pool):
    """Rounds of a saturated and a solo phase on the measured server; the
    other setup samples and the reference checks run between rounds, so
    each run samples the host over a longer span. Returns the setup
    times, the rounds, each round's speed factor, the reference answers
    and the server status."""
    text_at = _texts(data)
    families = [family.spec for family in data.families]
    parts = ROUNDS - SETUPS  # gaps left for the reference checks
    expected: list = []
    meter = host.Speedometer()
    server, client, elapsed = await _boot(constraint_file, data.warmup, "measured", meter)
    setups, rounds, factors, position = [elapsed], [], [], 0
    try:
        for number in range(ROUNDS):
            # Each round runs between two probes of the server's vCPU,
            # taken while the server is idle.
            before = meter.probe(server.cpu)
            _pin_client(meter, server.cpu)
            saturated = await _closed_loop(client, text_at, position, IN_FLIGHT,
                                           seconds * SATURATED_SHARE / ROUNDS)
            solo = await _closed_loop(client, text_at, saturated[2], 1,
                                      seconds * (1 - SATURATED_SHARE) / ROUNDS)
            factors.append(host.factor(before, meter.probe(server.cpu)))
            _pin_client(meter, server.cpu)
            position = solo[2]
            rounds.append((saturated, solo))
            if len(setups) < SETUPS:
                extra, extra_client, elapsed = await _boot(
                    constraint_file, data.warmup, f"boot{number}", meter)
                setups.append(elapsed)
                await _shutdown(extra, extra_client)
            elif number < ROUNDS - 1:
                part = number - (SETUPS - 1)
                size = -(-len(families) // parts)
                expected += pool.solve(families[part * size:(part + 1) * size])
    finally:
        status = await _shutdown(server, client)
        meter.release()
    expected += pool.solve(families[len(expected):])
    return setups, rounds, factors, expected, status


async def _traced(data, constraint_file: str, seconds: float, trace_path: str):
    text_at = _texts(data)

    meter = host.Speedometer()
    server, client, _ = await _boot(constraint_file, data.warmup, "plain", meter)
    try:
        plain = await _closed_loop(client, text_at, 0, IN_FLIGHT, seconds / 2)
    finally:
        await _shutdown(server, client)
    server, client, _ = await _boot(constraint_file, data.warmup, "traced", meter, trace_path)
    try:
        window_start = perf_counter()
        traced = await _closed_loop(client, text_at, plain[2], IN_FLIGHT, seconds / 2)
        window_end = perf_counter()
    finally:
        await _shutdown(server, client)
        meter.release()
    return plain, traced, (window_start, window_end)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    data = inputs.hot_serve_inputs(seed, STREAM_LENGTH)
    constraint_file = os.path.join(WORK, f"hot-serve-{os.getpid()}.ics")
    trace_path = os.path.join(WORK, f"trace-hot-serve-seed{seed}.jsonl")
    with open(constraint_file, "w", encoding="utf-8") as out:
        out.write("\n".join(inputs.paper_constraints()) + "\n")
    try:
        with reference.Pool(inputs.paper_constraints()) as pool:
            if traced:
                plain, measured, window = asyncio.run(
                    _traced(data, constraint_file, seconds, trace_path))
                phases = [plain, measured]
                expected = pool.solve([family.spec for family in data.families])
            else:
                setups, rounds, factors, expected, status = asyncio.run(
                    _untraced(data, constraint_file, seconds, pool))
                phases = [phase for pair in rounds for phase in pair]
    finally:
        os.remove(constraint_file)

    records = [record for phase in phases for record in phase[0]]
    outcome.attempted = len(records)
    hits = sum(bool(r[2].get("ok") and r[2]["result"]["cache_hit"]) for r in records)
    outcome.guard(hits >= MIN_HIT_RATIO * len(records),
                  f"memo hit ratio {hits}/{len(records)} below {MIN_HIT_RATIO}")
    _check(outcome, data, expected, records)

    if traced:
        spans, events = trace.load(trace_path)
        spans, events = trace.within(spans, events, *window)
        ops = len(measured[0])
        outcome.metrics = trace.layer_metrics(spans, events, ops, percentile)
        outcome.metrics["trace.overhead_ratio"] = (
            (ops / measured[1]) / (len(plain[0]) / plain[1]))
        return outcome

    # Both phases are taken to the nominal vCPU speed. A solo request also
    # waits out the batcher's 10 ms timer, about a third of its latency,
    # which scaling over-corrects in slow spells; raw, the host's speed
    # swings dominate it.
    latencies = [r[1] * f for (saturated, _), f in zip(rounds, factors) for r in saturated[0]]
    solo = [r[1] * f for (_, phase), f in zip(rounds, factors) for r in phase[0]]
    if len(latencies) < min_samples(90) or len(solo) < min_samples(50):
        outcome.problems.append("too few answers to report percentiles")
        return outcome
    p50 = percentile(latencies, 50) * 1e3
    outcome.metrics = {
        "throughput_ops_s": len(latencies) / sum(
            saturated[1] * f for (saturated, _), f in zip(rounds, factors)),
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "solo_p50_ms": percentile(solo, 50) * 1e3,
        # No equivalence checks or IC updates here: those carry latency_p50.
        "equiv_p50_ms": p50,
        "update_p50_ms": p50,
        "setup_s": median(setups),
        "peak_rss_mb": status["peak_rss_mb"],
    }
    return outcome


def _check(outcome: Outcome, data, expected, records) -> None:
    """Every reply against its family's cold certified reference."""
    from repro.parsing.xpath import parse_xpath

    for family, (key, size) in zip(data.families, expected):
        if family.expected_size is not None and size != family.expected_size:
            outcome.fail(f"reference for a {family.kind} family has {size} nodes, "
                         f"expected {family.expected_size}")
    served_keys: dict[str, str] = {}
    for position, _, reply in records:
        family = data.stream[position % len(data.stream)][0]
        if not reply.get("ok"):
            outcome.fail(f"request {position}: {reply.get('error')}")
            continue
        text = reply["result"]["minimized"]
        if text not in served_keys:
            served_keys[text] = parse_xpath(text).canonical_key()
        if served_keys[text] != expected[family][0]:
            outcome.fail(f"request {position}: served answer differs from the reference")
