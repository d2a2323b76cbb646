"""Tests for the async serving layer (``repro.service``).

The load-bearing guarantee mirrors the batch backend's: results served
through the micro-batching service are byte-identical to the serial
``minimize`` loop, whatever the concurrency, batching, timeouts, or
worker crashes along the way. The slow/crashing backends are injected
through the ``_process_batch`` seam.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import time

import pytest

from repro.api import MinimizeOptions, QueryResult
from repro.constraints.model import parse_constraints
from repro.core.pipeline import minimize
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.service import (
    MAX_LINE_BYTES,
    LatencyHistogram,
    MinimizationService,
    ServiceStats,
    handle_connection,
    handle_line,
    serve_tcp,
)
from repro.workloads import batch_workload, isomorphic_shuffle, random_query

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


def seeded_queries(n_queries: int, *, seed: int = 0, max_size: int = 8):
    """Random queries with isomorphic duplicates mixed in (the workload
    shape the fingerprint memo exists for)."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < n_queries:
        base = random_query(rng.randint(1, max_size), types=["a", "b", "c"], rng=rng)
        queries.append(base)
        if rng.random() < 0.5 and len(queries) < n_queries:
            queries.append(isomorphic_shuffle(base, rng=rng))
    rng.shuffle(queries)
    return queries


class SlowService(MinimizationService):
    """Backend that sleeps before answering (timeout/backpressure tests)."""

    def __init__(self, *args, delay: float = 0.2, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def _process_batch(self, patterns):
        time.sleep(self.delay)
        return super()._process_batch(patterns)


class ExplodingService(MinimizationService):
    """Backend that raises (failure-propagation tests)."""

    def _process_batch(self, patterns):
        raise ReproError("backend exploded")


class TestDifferential:
    """Service == serial minimize loop, byte for byte, under concurrency."""

    def test_concurrent_stream_matches_serial(self):
        queries = seeded_queries(240, seed=17)
        expected = [to_sexpr(minimize(q, CONSTRAINTS).pattern) for q in queries]

        async def scenario():
            async with MinimizationService(
                constraints=CONSTRAINTS, max_queue=512, max_wait=0.002
            ) as service:
                results = await service.submit_many(queries)
                stats = service.stats
                assert stats.submitted == stats.completed == 240
                assert stats.mean_batch_size > 1.0, "nothing micro-batched"
                return results

        results = run(scenario())
        assert [to_sexpr(r.pattern) for r in results] == expected
        assert all(isinstance(r, QueryResult) for r in results)

    def test_many_seeds_interleaved(self):
        """Several seeded workloads in flight at once still serve each
        request its own correct answer."""

        async def scenario():
            async with MinimizationService(
                constraints=CONSTRAINTS, max_queue=512
            ) as service:
                workloads = [seeded_queries(12, seed=s) for s in range(8)]
                groups = await asyncio.gather(
                    *(service.submit_many(w) for w in workloads)
                )
                return workloads, groups

        workloads, groups = run(scenario())
        for queries, results in zip(workloads, groups):
            assert [to_sexpr(r.pattern) for r in results] == [
                to_sexpr(minimize(q, CONSTRAINTS).pattern) for q in queries
            ]

    @pytest.mark.parametrize(
        "options",
        [
            MinimizeOptions(audit_rate=0),
            MinimizeOptions(),
            MinimizeOptions(certify=True),
        ],
        ids=["unaudited", "sampled-audit", "certified"],
    )
    def test_audit_postures_match_serial(self, options):
        """48 concurrent requests over 8 Figure 8 structures: every audit
        posture serves the serial loop's bytes, repeats replay from the
        fingerprint memo, no audit fails, and ``certify`` checks every
        answer it serves."""
        queries, constraints = batch_workload(
            48, kind="fig8", distinct=8, size=12, seed=17
        )

        async def scenario():
            service = MinimizationService(
                options, constraints=constraints, max_batch_size=16, max_wait=0.002
            )
            async with service:
                results = await asyncio.gather(*(service.submit(q) for q in queries))
            return results, service.counters()

        results, counters = run(scenario())
        assert [to_sexpr(r.pattern) for r in results] == [
            to_sexpr(minimize(q, constraints).pattern) for q in queries
        ]
        assert counters["cache_hits"] > 0
        assert counters.get("audit_failures", 0) == 0
        if options.certify:
            assert counters["certified"] >= len(queries)
        else:
            assert counters.get("certified", 0) == 0


class TestLifecycle:
    def test_submit_requires_start(self):
        async def scenario():
            service = MinimizationService(constraints=CONSTRAINTS)
            with pytest.raises(ServiceClosedError, match="not started"):
                await service.submit(parse_xpath("a/b"))

        run(scenario())

    def test_closed_service_rejects_submissions(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                pass
            with pytest.raises(ServiceClosedError, match="closed"):
                await service.submit(parse_xpath("a/b"))

        run(scenario())

    def test_graceful_drain_finishes_queued_work(self):
        """aclose() must answer everything already queued, not drop it."""

        async def scenario():
            service = SlowService(
                constraints=CONSTRAINTS, delay=0.05, max_batch_size=4, max_wait=0.5
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(parse_xpath("a/b[c][c]")))
                for _ in range(6)
            ]
            await asyncio.sleep(0)  # let them enqueue
            await service.aclose()
            return await asyncio.gather(*tasks)

        results = run(scenario())
        assert [to_sexpr(r.pattern) for r in results] == [
            to_sexpr(minimize(parse_xpath("a/b[c][c]"), CONSTRAINTS).pattern)
        ] * 6

    def test_aclose_is_idempotent(self):
        async def scenario():
            service = MinimizationService(constraints=CONSTRAINTS)
            await service.start()
            await service.aclose()
            await service.aclose()

        run(scenario())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MinimizationService(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait"):
            MinimizationService(max_wait=-1)
        with pytest.raises(ValueError, match="max_queue"):
            MinimizationService(max_queue=0)


class TestTimeoutsAndCancellation:
    def test_per_request_timeout(self):
        async def scenario():
            async with SlowService(
                constraints=CONSTRAINTS, delay=0.3, max_wait=0.0
            ) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(parse_xpath("a/b[c][c]"), timeout=0.02)
                assert service.stats.timed_out == 1
                # The service keeps serving after a timeout.
                result = await service.submit(parse_xpath("a/b[c][c]"))
                return result

        result = run(scenario())
        assert to_sexpr(result.pattern) == to_sexpr(
            minimize(parse_xpath("a/b[c][c]"), CONSTRAINTS).pattern
        )

    def test_default_timeout_applies(self):
        async def scenario():
            async with SlowService(
                constraints=CONSTRAINTS, delay=0.3, default_timeout=0.02, max_wait=0.0
            ) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(parse_xpath("a/b"))

        run(scenario())

    def test_cancellation_drops_request(self):
        async def scenario():
            async with SlowService(
                constraints=CONSTRAINTS, delay=0.2, max_wait=0.0
            ) as service:
                # Occupy the batcher so the next request stays queued.
                first = asyncio.ensure_future(service.submit(parse_xpath("a/b")))
                await asyncio.sleep(0.05)
                victim = asyncio.ensure_future(service.submit(parse_xpath("a/c")))
                await asyncio.sleep(0)
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                assert service.stats.cancelled == 1
                await first  # the batch that contained the victim completes
                result = await service.submit(parse_xpath("a/b[c][c]"))
                stats = service.stats
                return result, stats

        result, stats = run(scenario())
        assert to_sexpr(result.pattern) == to_sexpr(
            minimize(parse_xpath("a/b[c][c]"), CONSTRAINTS).pattern
        )
        # The cancelled request never produced a completion.
        assert stats.completed == stats.submitted - stats.cancelled

    def test_backend_failure_propagates_to_all_waiters(self):
        async def scenario():
            async with ExplodingService(constraints=CONSTRAINTS) as service:
                tasks = [
                    asyncio.ensure_future(service.submit(parse_xpath("a/b")))
                    for _ in range(3)
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, service.stats.failed

        outcomes, failed = run(scenario())
        assert all(isinstance(o, ReproError) for o in outcomes)
        assert failed == 3


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        async def scenario():
            async with SlowService(
                constraints=CONSTRAINTS,
                delay=0.25,
                max_batch_size=1,
                max_wait=0.0,
                max_queue=1,
            ) as service:
                # First request: picked up by the batcher (slow). Second:
                # fills the queue. Third: rejected.
                first = asyncio.ensure_future(service.submit(parse_xpath("a/b")))
                await asyncio.sleep(0.05)
                second = asyncio.ensure_future(service.submit(parse_xpath("a/c")))
                await asyncio.sleep(0)
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    await service.submit(parse_xpath("a/d"))
                assert excinfo.value.retry_after > 0
                assert isinstance(excinfo.value, ServiceError)
                assert service.stats.rejected == 1
                await asyncio.gather(first, second)

        run(scenario())


class TestCrashRecovery:
    def test_killed_pool_workers_through_service(self):
        """SIGKILLing every warm worker mid-service must not lose or
        corrupt results: the broken batch falls back to serial, the next
        one gets a fresh pool."""
        queries, constraints = batch_workload(
            8, kind="fig7", distinct=4, size=12, seed=5
        )
        more, _ = batch_workload(8, kind="fig7", distinct=4, size=12, seed=9)
        expected = [to_sexpr(minimize(q, constraints).pattern) for q in queries]
        expected_more = [to_sexpr(minimize(q, constraints).pattern) for q in more]

        async def scenario():
            async with MinimizationService(
                MinimizeOptions(jobs=2), constraints=constraints, max_wait=0.005
            ) as service:
                warm = await service.submit_many(queries)
                minimizer = next(iter(service._session._minimizers.values()))
                pool = minimizer._pool
                assert pool is not None, "persistent pool not wired through"
                executor = pool._executor
                assert executor is not None, "pool never warmed"
                for pid in list(executor._processes):
                    os.kill(pid, signal.SIGKILL)
                await asyncio.sleep(0.1)  # let the pool notice
                after = await service.submit_many(more)
                return warm, after, pool.recreations

        warm, after, recreations = run(scenario())
        assert [to_sexpr(r.pattern) for r in warm] == expected
        assert [to_sexpr(r.pattern) for r in after] == expected_more
        assert recreations >= 1


class TestStats:
    def test_latency_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.mean_seconds == 0.0 and histogram.quantile(0.5) == 0.0
        for value in (0.001, 0.002, 0.004, 0.2, 30.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.mean_seconds == pytest.approx(sum((0.001, 0.002, 0.004, 0.2, 30.0)) / 5)
        assert histogram.max_seconds == 30.0
        assert histogram.quantile(1.0) == 30.0  # +inf bucket → observed max
        assert 0.0 < histogram.quantile(0.5) <= 0.01
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        counters = histogram.counters("lat")
        assert counters["lat_count"] == 5
        assert counters["lat_le_inf"] == 5
        assert counters["lat_le_0.005"] == 3  # cumulative buckets

    def test_service_stats_counters_shape(self):
        stats = ServiceStats()
        stats.submitted = 4
        stats.batches = 2
        stats.batched_requests = 4
        counters = stats.counters()
        assert counters["submitted"] == 4
        assert counters["mean_batch_size"] == 2.0
        assert "latency_count" in counters and "queue_wait_count" in counters

    def test_stats_op_reports_the_sessions_counters(self):
        """The ``stats`` op is the session's counters plus the service's
        own. A certified service checks every answer inline and samples
        no audit, so it reports the session's ``audited`` (none), not
        that plus ``certified``."""

        async def scenario():
            async with MinimizationService(
                MinimizeOptions(certify=True), constraints=CONSTRAINTS
            ) as service:
                for query in ("a/b[c][c]", "a/b", "a[b][b]"):
                    line = json.dumps({"op": "minimize", "query": query})
                    assert (await handle_line(service, line))["ok"]
                stats = await handle_line(service, '{"op": "stats"}')
                return stats["result"], service._session.counters()

        served, session = run(scenario())
        assert served["certified"] == session["certified"] >= 3
        assert served["audited"] == session["audited"] == 0

    def test_flush_reasons_accounted(self):
        async def scenario():
            async with MinimizationService(
                constraints=CONSTRAINTS, max_batch_size=2, max_wait=0.01
            ) as service:
                await service.submit_many([parse_xpath("a/b")] * 4)
                await service.submit(parse_xpath("a/c"))
                stats = service.stats
                assert stats.flushes_full >= 1
                assert stats.flushes_deadline + stats.flushes_drain >= 1
                assert (
                    stats.flushes_full + stats.flushes_deadline + stats.flushes_drain
                    == stats.batches
                )

        run(scenario())


class TestProtocol:
    def test_minimize_roundtrip_and_unified_shape(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                response = await handle_line(
                    service, json.dumps({"op": "minimize", "query": "a/b[c][c]", "id": 7})
                )
                return response

        response = run(scenario())
        assert response["ok"] is True and response["id"] == 7
        result = response["result"]
        assert result["minimized"] == "a/b[c]"
        # Exactly QueryResult.to_json — the CLIs' --json shape.
        assert set(result) == set(
            QueryResult(
                pattern=parse_xpath("a"), input_pattern=parse_xpath("a")
            ).to_json()
        )

    def test_sexpr_format(self):
        async def scenario():
            async with MinimizationService() as service:  # no constraints
                return await handle_line(
                    service,
                    json.dumps(
                        {"op": "minimize", "query": "(a (/ b) (/ b))", "format": "sexpr"}
                    ),
                )

        response = run(scenario())
        assert response["ok"] and response["result"]["minimized"] == "(a* (/ b))"

    def test_ping_stats_blank_and_errors(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                ping = await handle_line(service, '{"op": "ping", "id": 1}')
                stats = await handle_line(service, '{"op": "stats"}')
                blank = await handle_line(service, "   ")
                comment = await handle_line(service, "# a comment")
                bad_json = await handle_line(service, "{nope")
                bad_type = await handle_line(service, '["not", "an", "object"]')
                bad_op = await handle_line(service, '{"op": "explode"}')
                bad_query = await handle_line(service, '{"op": "minimize"}')
                parse_fail = await handle_line(
                    service, '{"op": "minimize", "query": "///"}'
                )
                return ping, stats, blank, comment, bad_json, bad_type, bad_op, bad_query, parse_fail

        ping, stats, blank, comment, bad_json, bad_type, bad_op, bad_query, parse_fail = run(
            scenario()
        )
        assert ping == {"id": 1, "ok": True, "result": {"pong": True}}
        assert stats["ok"] and "submitted" in stats["result"]
        assert blank is None and comment is None
        for failure in (bad_json, bad_type, bad_op, bad_query, parse_fail):
            assert failure["ok"] is False and failure["error"]["message"]
        assert bad_op["error"]["type"] == "ValueError"

    def test_overload_error_carries_retry_after(self):
        async def scenario():
            async with SlowService(
                constraints=CONSTRAINTS,
                delay=0.25,
                max_batch_size=1,
                max_wait=0.0,
                max_queue=1,
            ) as service:
                first = asyncio.ensure_future(
                    handle_line(service, '{"op": "minimize", "query": "a/b"}')
                )
                await asyncio.sleep(0.05)
                second = asyncio.ensure_future(
                    handle_line(service, '{"op": "minimize", "query": "a/c"}')
                )
                await asyncio.sleep(0)
                rejected = await handle_line(
                    service, '{"op": "minimize", "query": "a/d", "id": 9}'
                )
                await asyncio.gather(first, second)
                return rejected

        rejected = run(scenario())
        assert rejected["ok"] is False and rejected["id"] == 9
        assert rejected["error"]["type"] == "ServiceOverloadedError"
        assert rejected["error"]["retry_after"] > 0

    def test_tcp_connection_roundtrip(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(service, r, w), "127.0.0.1", 0
                )
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    requests = [
                        {"op": "minimize", "query": "a/b[c][c]", "id": i}
                        for i in range(5)
                    ] + [{"op": "ping", "id": 99}]
                    for request in requests:
                        writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    writer.write_eof()
                    responses = []
                    while len(responses) < len(requests):
                        line = await asyncio.wait_for(reader.readline(), 10)
                        assert line, "connection closed early"
                        responses.append(json.loads(line))
                    writer.close()
                    return responses

        responses = run(scenario())
        by_id = {r["id"]: r for r in responses}
        assert by_id[99]["result"] == {"pong": True}
        for i in range(5):
            assert by_id[i]["ok"] and by_id[i]["result"]["minimized"] == "a/b[c]"


class TestServeCli:
    def test_parse_endpoint(self):
        from repro.service.cli import _parse_endpoint

        assert _parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _parse_endpoint(":9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            _parse_endpoint("nope:nope")
        with pytest.raises(ValueError):
            _parse_endpoint("9000")

    def test_parser_defaults(self):
        from repro.service.cli import build_parser

        args = build_parser().parse_args([])
        assert args.tcp is None and args.jobs == 1
        assert args.max_batch_size == 16 and args.max_queue == 256

    @pytest.mark.parametrize(
        "argv", [["--shards", "2"], ["--shard-policy", "overflow"]]
    )
    def test_fleet_flags_are_rejected(self, argv, capsys):
        from repro.service.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--engine", "dp"], ["--strategy", "acim"]])
    def test_retired_option_flags_are_rejected(self, argv, capsys):
        """The protocol evaluates nothing, and sessions always run the
        CDM-then-ACIM pipeline: neither flag has anything to set."""
        from repro.service.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestProtocolHardening:
    """Malformed input must get a structured error on the same
    connection — never tear the connection (or the server) down."""

    @staticmethod
    async def _serve(service):
        """serve_tcp on an ephemeral port; returns (stop, server_task, port)."""
        stop = asyncio.Event()
        bound: dict = {}
        task = asyncio.ensure_future(
            serve_tcp(
                service, "127.0.0.1", 0, stop=stop,
                on_bound=lambda p: bound.update(port=p),
            )
        )
        while "port" not in bound:
            await asyncio.sleep(0.005)
        return stop, task, bound["port"]

    def test_restart_op_is_unknown_and_connection_survives(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                stop, task, port = await self._serve(service)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                responses = []
                for request in ({"op": "restart", "id": 1}, {"op": "ping", "id": 2}):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 10)
                    assert line, "connection closed early"
                    responses.append(json.loads(line))
                writer.close()
                stop.set()
                await task
                return responses

        restart, ping = run(scenario())
        assert restart["id"] == 1 and restart["ok"] is False
        assert "unknown op 'restart'" in restart["error"]["message"]
        assert ping == {"id": 2, "ok": True, "result": {"pong": True}}

    def test_oversized_line_gets_structured_error_and_connection_survives(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                stop, task, port = await self._serve(service)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                # A single line well over the cap, never a valid request.
                writer.write(b'{"op": "minimize", "query": "' + b"a" * (MAX_LINE_BYTES + 64) + b'"}\n')
                writer.write(json.dumps({"op": "minimize", "query": "a/b[c][c]", "id": 1}).encode() + b"\n")
                await writer.drain()
                writer.write_eof()
                responses = []
                while len(responses) < 2:
                    line = await asyncio.wait_for(reader.readline(), 10)
                    assert line, "connection closed early"
                    responses.append(json.loads(line))
                writer.close()
                stop.set()
                await task
                return responses

        responses = run(scenario())
        by_ok = {bool(r["ok"]): r for r in responses}
        assert by_ok[False]["error"]["type"] == "ProtocolError"
        assert "MAX_LINE_BYTES" in by_ok[False]["error"]["message"]
        assert by_ok[True]["id"] == 1
        assert by_ok[True]["result"]["minimized"] == "a/b[c]"

    def test_garbage_bytes_roundtrip(self):
        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                stop, task, port = await self._serve(service)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"\x00\xfe{not json)\x80\n")
                writer.write(json.dumps({"op": "minimize", "query": "a/b[c][c]", "id": 2}).encode() + b"\n")
                await writer.drain()
                writer.write_eof()
                responses = []
                while len(responses) < 2:
                    line = await asyncio.wait_for(reader.readline(), 10)
                    assert line, "connection closed early"
                    responses.append(json.loads(line))
                writer.close()
                stop.set()
                await task
                return responses

        responses = run(scenario())
        by_ok = {bool(r["ok"]): r for r in responses}
        assert by_ok[False]["error"]["type"] == "JSONDecodeError"
        assert by_ok[True]["id"] == 2
        assert by_ok[True]["result"]["minimized"] == "a/b[c]"


class TestDrainRaces:
    """Graceful drain racing per-request timeouts and cancellations:
    every future resolves exactly once, nothing hangs, counters add up."""

    def test_drain_races_timeouts_and_cancellations_under_load(self):
        async def scenario():
            service = SlowService(
                constraints=CONSTRAINTS, delay=0.08, max_batch_size=4, max_wait=0.0
            )
            await service.start()
            pattern = parse_xpath("a/b[c][c]")
            # Three populations racing the drain: requests that will time
            # out while their batch is in flight, requests we cancel, and
            # requests that should complete normally.
            doomed = [
                asyncio.ensure_future(service.submit(pattern, timeout=0.02))
                for _ in range(4)
            ]
            victims = [
                asyncio.ensure_future(service.submit(pattern)) for _ in range(4)
            ]
            survivors = [
                asyncio.ensure_future(service.submit(pattern)) for _ in range(4)
            ]
            await asyncio.sleep(0)  # let everything enqueue
            for victim in victims:
                victim.cancel()
            # Drain while the first batch is mid-flight and the timeouts
            # are about to fire.
            await service.aclose()
            outcomes = await asyncio.gather(
                *doomed, *victims, *survivors, return_exceptions=True
            )
            return outcomes, service.stats

        outcomes, stats = run(scenario())
        doomed, victims, survivors = outcomes[:4], outcomes[4:8], outcomes[8:]
        # A double resolution of any future would have raised
        # InvalidStateError inside the service; reaching here with clean
        # per-population outcomes proves exactly-once resolution.
        assert all(isinstance(o, asyncio.TimeoutError) for o in doomed)
        assert all(isinstance(o, asyncio.CancelledError) for o in victims)
        assert all(isinstance(o, QueryResult) for o in survivors)
        expected = to_sexpr(minimize(parse_xpath("a/b[c][c]"), CONSTRAINTS).pattern)
        assert all(to_sexpr(o.pattern) == expected for o in survivors)
        assert stats.submitted == 12
        assert stats.timed_out == 4 and stats.cancelled == 4
        assert stats.completed >= 4  # survivors always complete


class TestMultiClientTCP:
    """Several concurrent TCP clients against one server: every client
    gets exactly its own responses (no cross-client bleed), and a
    protocol error on one connection never disturbs the others."""

    @staticmethod
    async def _serve(service):
        stop = asyncio.Event()
        bound: dict = {}
        task = asyncio.ensure_future(
            serve_tcp(
                service, "127.0.0.1", 0, stop=stop,
                on_bound=lambda p: bound.update(port=p),
            )
        )
        while "port" not in bound:
            await asyncio.sleep(0.005)
        return stop, task, bound["port"]

    # Two shapes with distinct minimized forms, so any response routed
    # to the wrong client would also carry a visibly wrong answer.
    SHAPES = [("a/b[c][c]", "a/b[c]"), ("a/b[c]/c", "a/b/c")]

    async def _client(self, port: int, client_id: int, n_requests: int):
        """One client connection: n interleaved requests with
        client-scoped ids; returns {id: (response, expected_minimized)}."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        expected = {}
        for j in range(n_requests):
            query, minimized = self.SHAPES[(client_id + j) % len(self.SHAPES)]
            request_id = f"client{client_id}-req{j}"
            expected[request_id] = minimized
            writer.write(
                json.dumps(
                    {"op": "minimize", "query": query, "id": request_id}
                ).encode() + b"\n"
            )
        await writer.drain()
        writer.write_eof()
        responses = {}
        while len(responses) < n_requests:
            line = await asyncio.wait_for(reader.readline(), 30)
            assert line, f"client {client_id}: connection closed early"
            response = json.loads(line)
            responses[response["id"]] = response
        writer.close()
        return expected, responses

    def test_concurrent_clients_get_their_own_responses(self):
        n_clients, n_requests = 5, 24

        async def scenario():
            async with MinimizationService(
                constraints=CONSTRAINTS, max_queue=512, max_wait=0.002
            ) as service:
                stop, task, port = await self._serve(service)
                pairs = await asyncio.gather(
                    *(self._client(port, c, n_requests) for c in range(n_clients))
                )
                stop.set()
                await task
                return pairs, service.stats

        pairs, stats = run(scenario())
        for client_id, (expected, responses) in enumerate(pairs):
            # Exactly this client's ids came back on this connection —
            # nothing missing, nothing leaked in from another client.
            assert set(responses) == set(expected), f"client {client_id} id bleed"
            for request_id, response in responses.items():
                assert response["ok"], response
                assert response["result"]["minimized"] == expected[request_id]
        assert stats.completed == n_clients * n_requests
        # Requests from different connections shared micro-batches.
        assert stats.mean_batch_size > 1.0

    def test_protocol_error_is_isolated_to_its_connection(self):
        async def scenario():
            async with MinimizationService(
                constraints=CONSTRAINTS, max_queue=512
            ) as service:
                stop, task, port = await self._serve(service)

                async def broken_client():
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b"\x00\xfe{not json)\x80\n")
                    writer.write(
                        json.dumps(
                            {"op": "minimize", "query": "a/b[c][c]", "id": "ok-after"}
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    writer.write_eof()
                    responses = []
                    while len(responses) < 2:
                        line = await asyncio.wait_for(reader.readline(), 30)
                        assert line, "broken client's connection died"
                        responses.append(json.loads(line))
                    writer.close()
                    return responses

                healthy, broken = await asyncio.gather(
                    self._client(port, 9, 16), broken_client()
                )
                stop.set()
                await task
                return healthy, broken

        (expected, responses), broken = run(scenario())
        assert set(responses) == set(expected)
        assert all(
            r["ok"] and r["result"]["minimized"] == expected[i]
            for i, r in responses.items()
        )
        by_ok = {bool(r["ok"]): r for r in broken}
        assert by_ok[False]["error"]["type"] == "JSONDecodeError"
        assert by_ok[True]["id"] == "ok-after"
        assert by_ok[True]["result"]["minimized"] == "a/b[c]"
