"""Tests for the sharded serving tier (:mod:`repro.shard`).

Covers the consistent-hash ring (determinism, balance, minimal
redistribution), histogram/stats aggregation, shard-count resolution,
the 2-shard differential against the serial ``minimize`` loop (the
paper's uniqueness theorem makes byte-identical the only acceptable
answer), rolling restarts mid-stream, backpressure and deadline
semantics through the fleet, the JSON-lines protocol over a sharded
backend, and — under ``-m chaos`` — seeded shard-kill recovery.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import MinimizeOptions, QueryResult
from repro.constraints.model import parse_constraints
from repro.core.pipeline import minimize
from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.resilience.faults import FaultPlan
from repro.service.protocol import serve_tcp
from repro.service.service import LatencyHistogram, ServiceStats
from repro.shard import (
    SHARD_POLICIES,
    HashRing,
    ShardManager,
    resolve_shards,
)
from repro.workloads import batch_workload

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


def sexprs(results) -> "list[str]":
    return [to_sexpr(r.pattern) for r in results]


def workload(count: int, *, distinct: int = 12, seed: int = 17):
    """A duplicated fig7 stream plus its serial-loop expected outputs."""
    queries, constraints = batch_workload(
        count, kind="fig7", distinct=distinct, size=20, seed=seed
    )
    expected = [to_sexpr(minimize(q, constraints).pattern) for q in queries]
    return queries, constraints, expected


class TestHashRing:
    """Deterministic, balanced, minimally-redistributing routing."""

    KEYS = [f"fingerprint-{i:04d}" for i in range(600)]

    def test_lookup_is_deterministic_across_instances(self):
        a, b = HashRing([0, 1, 2, 3]), HashRing([3, 1, 0, 2])
        assert [a.lookup(k) for k in self.KEYS] == [b.lookup(k) for k in self.KEYS]

    def test_balance_within_reason(self):
        ring = HashRing([0, 1, 2, 3])
        shares = {m: 0 for m in range(4)}
        for key in self.KEYS:
            shares[ring.lookup(key)] += 1
        for member, count in shares.items():
            share = count / len(self.KEYS)
            assert 0.10 <= share <= 0.45, f"member {member} owns {share:.0%}"

    def test_removal_only_moves_the_removed_members_keys(self):
        ring = HashRing([0, 1, 2, 3])
        before = {k: ring.lookup(k) for k in self.KEYS}
        ring.remove(2)
        for key, owner in before.items():
            if owner == 2:
                assert ring.lookup(key) != 2
            else:
                assert ring.lookup(key) == owner, "a surviving member's key moved"

    def test_rejoin_restores_the_original_mapping(self):
        ring = HashRing([0, 1, 2, 3])
        before = {k: ring.lookup(k) for k in self.KEYS}
        ring.remove(1)
        ring.add(1)
        assert {k: ring.lookup(k) for k in self.KEYS} == before

    def test_membership_operations(self):
        ring = HashRing()
        assert ring.lookup("anything") is None and len(ring) == 0
        ring.add(7)
        ring.add(7)  # idempotent
        assert 7 in ring and len(ring) == 1 and ring.members == {7}
        assert ring.lookup("anything") == 7
        ring.remove(3)  # idempotent on non-members
        ring.remove(7)
        assert len(ring) == 0 and ring.lookup("anything") is None

    def test_replicas_validation(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


class TestResolveShards:
    def test_auto_reserves_a_core_for_the_front_end(self):
        assert resolve_shards("auto", cpu_count=8) == 7
        assert resolve_shards("auto", cpu_count=3) == 2

    def test_auto_degrades_to_single_process_below_two_shards(self):
        assert resolve_shards("auto", cpu_count=1) == 0
        assert resolve_shards("auto", cpu_count=2) == 0

    def test_explicit_counts(self):
        assert resolve_shards(None) == 0
        assert resolve_shards(0) == 0
        assert resolve_shards(1) == 0  # a 1-shard wrapper is never built
        assert resolve_shards(4) == 4
        with pytest.raises(ValueError):
            resolve_shards(-1)


class TestLatencyHistogramMerge:
    """Satellite: fleet-wide percentiles need bucket-wise merging."""

    @staticmethod
    def _filled(samples) -> LatencyHistogram:
        hist = LatencyHistogram()
        for value in samples:
            hist.observe(value)
        return hist

    def test_merge_identity(self):
        hist = self._filled([0.001, 0.01, 0.1])
        before = (hist.count, hist.sum_seconds, hist.quantile(0.5))
        hist.merge(LatencyHistogram())
        assert (hist.count, hist.sum_seconds, hist.quantile(0.5)) == before

    def test_merge_is_commutative(self):
        left_samples = [0.0005, 0.002, 0.02, 0.4]
        right_samples = [0.001, 0.05, 1.5]
        a = self._filled(left_samples).merge(self._filled(right_samples))
        b = self._filled(right_samples).merge(self._filled(left_samples))
        assert a.count == b.count == len(left_samples) + len(right_samples)
        assert a.sum_seconds == pytest.approx(b.sum_seconds)
        assert a.max_seconds == pytest.approx(b.max_seconds)
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == pytest.approx(b.quantile(q))

    def test_merge_sums_like_one_big_histogram(self):
        left, right = [0.001] * 10, [0.2] * 10
        merged = self._filled(left).merge(self._filled(right))
        combined = self._filled(left + right)
        assert merged.count == combined.count
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == pytest.approx(combined.quantile(q))

    def test_mismatched_bounds_raise(self):
        class CoarseHistogram(LatencyHistogram):
            BOUNDS = (0.1, 1.0, float("inf"))

        with pytest.raises(ValueError, match="bucket bounds"):
            LatencyHistogram().merge(CoarseHistogram())
        with pytest.raises(ValueError, match="bucket bounds"):
            CoarseHistogram().merge(LatencyHistogram())


class TestServiceStatsAggregate:
    def test_aggregate_sums_and_merges(self):
        a, b = ServiceStats(), ServiceStats()
        a.submitted, a.completed, a.queue_high_watermark = 10, 9, 5
        b.submitted, b.completed, b.queue_high_watermark = 4, 4, 8
        a.latency.observe(0.01)
        b.latency.observe(0.5)
        a.backend_counters = {"cache_hits": 3, "queries": 9, "hit_rate": 0.33}
        b.backend_counters = {"cache_hits": 1, "queries": 4}
        out = ServiceStats.aggregate([a, b])
        assert out.submitted == 14 and out.completed == 13
        assert out.queue_high_watermark == 8  # max, not sum
        assert out.latency.count == 2
        assert out.latency.max_seconds == pytest.approx(0.5)
        assert out.backend_counters["cache_hits"] == 4
        assert out.backend_counters["queries"] == 13

    def test_aggregate_of_nothing_is_empty(self):
        out = ServiceStats.aggregate([])
        assert out.submitted == 0 and out.latency.count == 0


class TestShardManagerValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardManager(shards=0)
        with pytest.raises(ValueError):
            ShardManager(shards=2, policy="nope")
        with pytest.raises(ValueError):
            ShardManager(shards=2, max_batch_size=0)
        with pytest.raises(ValueError):
            ShardManager(shards=4, max_queue=2)
        assert set(SHARD_POLICIES) == {"affinity", "overflow", "round-robin"}

    def test_submit_before_start_is_closed(self):
        async def scenario():
            manager = ShardManager(constraints=CONSTRAINTS, shards=2)
            with pytest.raises(ServiceClosedError):
                await manager.submit(parse_xpath("a/b[c][c]"))

        run(scenario())


class TestShardDifferential:
    """Fleet == serial minimize loop, byte for byte, under concurrency."""

    def test_240_query_concurrent_stream_matches_serial(self):
        queries, constraints, expected = workload(240)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                max_queue=512,
            ) as manager:
                results = await asyncio.gather(
                    *(manager.submit(q) for q in queries)
                )
                counters = await manager.counters_async()
                return results, counters

        results, counters = run(scenario())
        assert sexprs(results) == expected
        assert all(isinstance(r, QueryResult) for r in results)
        assert counters["completed"] == 240
        assert counters["shards"] == 2
        # Both shards actually served work (the ring split the space).
        assert counters["shard0_queries"] > 0
        assert counters["shard1_queries"] > 0
        # Affinity kept the duplicated structures hitting the memo.
        assert counters["cache_hits"] > 0

    def test_every_policy_serves_identically(self):
        queries, constraints, expected = workload(60, distinct=8, seed=23)

        async def scenario(policy):
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                policy=policy,
                max_queue=256,
            ) as manager:
                return await manager.submit_many(queries)

        for policy in SHARD_POLICIES:
            assert sexprs(run(scenario(policy))) == expected, policy

    def test_rolling_restart_mid_stream_stays_identical(self):
        queries, constraints, expected = workload(240, seed=29)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                max_queue=512,
            ) as manager:
                first = asyncio.ensure_future(
                    manager.submit_many(queries[:120])
                )
                await asyncio.sleep(0.01)  # let the stream get going
                restarted = await manager.rolling_restart()
                second = await manager.submit_many(queries[120:])
                return await first, second, restarted, manager.shard_restarts

        first, second, restarted, restarts = run(scenario())
        assert sexprs(first) + sexprs(second) == expected
        assert restarted == 2 and restarts == 2

    def test_warm_replay_preserves_hit_rate_after_restart(self):
        queries, constraints, _ = workload(60, distinct=6, seed=31)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                max_queue=256,
            ) as manager:
                await manager.submit_many(queries)
                await manager.rolling_restart()
                before = await manager.counters_async()
                await manager.submit_many(queries)
                after = await manager.counters_async()
                return before, after

        before, after = run(scenario())
        served = after["queries"] - before["queries"]
        hits = after["cache_hits"] - before["cache_hits"]
        # The warm replay repopulated the fingerprint memos, so the
        # replayed stream is served overwhelmingly from cache.
        assert served > 0
        assert hits / served >= 0.8, f"post-restart hit rate {hits}/{served}"


class TestShardSemantics:
    """Service-contract semantics (deadlines, backpressure, shutdown)
    through the sharded front-end."""

    def test_expired_deadline_is_shed_at_submission(self):
        async def scenario():
            async with ShardManager(
                constraints=CONSTRAINTS, shards=2
            ) as manager:
                with pytest.raises(DeadlineExceededError):
                    await manager.submit(parse_xpath("a/b[c][c]"), deadline=0)
                assert manager.stats.sheds == 1

        run(scenario())

    def test_full_fleet_rejects_with_coherent_retry_after(self):
        queries, constraints, _ = workload(64, seed=37)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                max_queue=4,  # 2 pending per shard
            ) as manager:
                outcomes = await asyncio.gather(
                    *(manager.submit(q) for q in queries),
                    return_exceptions=True,
                )
                return outcomes, manager.stats.rejected

        outcomes, rejected = run(scenario())
        overloads = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if isinstance(o, QueryResult)]
        assert overloads, "nothing was rejected at max_queue=4 under a 64-burst"
        assert served, "backpressure must not reject everything"
        assert rejected == len(overloads)
        assert all(o.retry_after > 0 for o in overloads)

    def test_aclose_rejects_further_submissions(self):
        async def scenario():
            manager = ShardManager(constraints=CONSTRAINTS, shards=2)
            await manager.start()
            await manager.aclose()
            with pytest.raises(ServiceClosedError):
                await manager.submit(parse_xpath("a/b[c][c]"))

        run(scenario())


class TestShardProtocol:
    """The JSON-lines protocol multiplexes over the sharded backend."""

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

    def test_minimize_stats_restart_over_tcp(self):
        async def scenario():
            async with ShardManager(constraints=CONSTRAINTS, shards=2) as manager:
                stop, task, port = await self._serve(manager)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                requests = [
                    {"op": "minimize", "query": "a/b[c][c]", "id": 1},
                    {"op": "minimize", "query": "a[b][b]", "id": 2},
                    {"op": "stats", "id": 3},
                    {"op": "restart", "id": 4},
                    {"op": "ping", "id": 5},
                ]
                for request in requests:
                    writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                responses = {}
                for _ in requests:
                    line = await asyncio.wait_for(reader.readline(), 30)
                    response = json.loads(line)
                    responses[response["id"]] = response
                writer.close()
                stop.set()
                await task
                return responses

        responses = run(scenario())
        assert responses[1]["result"]["minimized"] == "a/b[c]"
        # a -> b makes the b-child predicates redundant: a[b][b] == a.
        assert responses[2]["result"]["minimized"] == "a"
        assert responses[3]["result"]["shards"] == 2
        assert "shard0_queries" in responses[3]["result"]
        assert responses[4]["result"]["restarted"] == 2
        assert responses[5]["result"]["pong"] is True

    def test_restart_op_rejected_on_single_process_backend(self):
        from repro.service import MinimizationService
        from repro.service.protocol import handle_line

        async def scenario():
            async with MinimizationService(constraints=CONSTRAINTS) as service:
                return await handle_line(
                    service, json.dumps({"op": "restart", "id": 9})
                )

        response = run(scenario())
        assert response["ok"] is False
        assert "sharded" in response["error"]["message"]


@pytest.mark.chaos
class TestShardChaos:
    """Seeded shard-kill chaos: the fleet loses processes mid-stream and
    the served answers must not change by one byte."""

    def test_seeded_shard_kill_is_byte_identical(self):
        queries, constraints, expected = workload(120, seed=41)
        plan = FaultPlan.seeded(
            1234, kinds=[("shard.kill", "kill")], window=40, faults_per_kind=2
        )

        async def scenario():
            options = MinimizeOptions(fault_plan=plan)
            async with ShardManager(
                options, constraints=constraints, shards=2, max_queue=512
            ) as manager:
                results = await asyncio.gather(
                    *(manager.submit(q) for q in queries)
                )
                return results, manager

        results, manager = run(scenario())
        assert sexprs(results) == expected
        assert manager.shard_restarts > 0, "no shard was ever killed"
        assert manager.chunks_retried > 0, "no lost request was requeued"
        fired = manager.fault_events()
        assert fired and all(point == "shard.kill" for point, _, _ in fired)

    def test_shard_kill_plus_rolling_restart_mid_stream(self):
        queries, constraints, expected = workload(120, seed=43)
        plan = FaultPlan.seeded(
            77, kinds=[("shard.kill", "kill")], window=30, faults_per_kind=1
        )

        async def scenario():
            options = MinimizeOptions(fault_plan=plan)
            async with ShardManager(
                options, constraints=constraints, shards=2, max_queue=512
            ) as manager:
                first = asyncio.ensure_future(
                    manager.submit_many(queries[:60])
                )
                await asyncio.sleep(0.01)
                await manager.rolling_restart()
                second = await manager.submit_many(queries[60:])
                return await first, second, manager

        first, second, manager = run(scenario())
        assert sexprs(first) + sexprs(second) == expected
        # Kills (unplanned) and the rolling restart (planned) both count.
        assert manager.shard_restarts >= 3


class TestSeenFpsBound:
    """The per-shard routing memory must stay bounded on unbounded
    fingerprint streams."""

    def test_lru_set_unit(self):
        from repro.shard.manager import _LruSet

        lru = _LruSet(3)
        for fp in ("a", "b", "c"):
            lru.add(fp)
        assert len(lru) == 3 and "a" in lru
        lru.add("a")  # touch: now the LRU order is b, c, a
        lru.add("d")  # evicts b
        assert "b" not in lru
        assert all(fp in lru for fp in ("c", "a", "d"))
        assert len(lru) == 3
        lru.clear()
        assert len(lru) == 0 and "a" not in lru

    def test_handles_never_exceed_the_cap(self):
        cap = 8
        queries, constraints, expected = workload(60, distinct=30, seed=37)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(),
                constraints=constraints,
                shards=2,
                policy="overflow",  # the policy that consults seen_fps
                max_queue=256,
                seen_fps_cap=cap,
            ) as manager:
                results = await manager.submit_many(queries)
                sizes = [len(h.seen_fps) for h in manager._handles]
                return results, sizes

        results, sizes = run(scenario())
        # 30 distinct structures flowed through 2 shards: without the
        # bound each handle would hold ~15+; with it, never above cap.
        assert all(size <= cap for size in sizes)
        assert sum(sizes) > 0
        # Bounding routing memory must not change served answers.
        assert sexprs(results) == expected


class TestShardStore:
    """The persistent store through the sharded tier: workers spool
    read-only, the manager is the single writer."""

    def test_spooled_rows_reach_the_managers_store(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        queries, constraints, expected = workload(40, distinct=6, seed=41)

        async def scenario():
            async with ShardManager(
                MinimizeOptions(store_path=path),
                constraints=constraints,
                shards=2,
                max_queue=256,
            ) as manager:
                results = await manager.submit_many(queries)
                counters = await manager.counters_async()
                return results, counters

        results, counters = run(scenario())
        assert sexprs(results) == expected
        # Workers spooled their memo entries; the manager applied them.
        assert counters["manager_store_applied"] > 0

        # The written store warm-starts a fresh (non-sharded) session to
        # the exact same bytes.
        from repro.api import Session
        from repro.core.oracle_cache import reset_global_cache

        reset_global_cache()
        with Session(
            MinimizeOptions(store_path=path), constraints=constraints
        ) as session:
            warm = sexprs(session.minimize_many(queries))
            warm_counters = session.counters()
        assert warm == expected
        assert warm_counters["store_warm_loaded"] > 0

    def test_fleet_starts_while_other_threads_run(self, tmp_path):
        """A 2-shard fleet on a store starts and serves while a store
        writer thread and another fleet's sender/reader threads run.

        Forking workers from such a process can hand a child a lock some
        thread held at the fork and hang it; shards must start from a
        clean process instead. The deadline turns a hang into a failure.
        """
        from repro.store import PersistentStore

        queries, constraints, expected = workload(24, distinct=6, seed=43)
        busy_store = PersistentStore(str(tmp_path / "busy.db"))

        async def scenario():
            async with ShardManager(
                MinimizeOptions(store_path=str(tmp_path / "first.db")),
                constraints=constraints,
                shards=2,
            ) as first:
                await first.submit_many(queries[:6])
                assert threading.active_count() >= 6
                async with ShardManager(
                    MinimizeOptions(store_path=str(tmp_path / "second.db")),
                    constraints=constraints,
                    shards=2,
                ) as second:
                    assert second._mp_context.get_start_method() != "fork"
                    return await second.submit_many(queries)

        try:
            results = run(asyncio.wait_for(scenario(), timeout=120))
        finally:
            busy_store.close()
        assert sexprs(results) == expected
