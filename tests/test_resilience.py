"""Unit tests for the resilience layer (``repro.resilience``).

Covers the fault-plan machinery (specs, seeded plans, parsing, the
counter-based injector), the client-side retry policy and circuit
breaker, and the executor's chunk-level retry / watchdog / pickle-fault
paths. The end-to-end chaos suite lives in ``test_chaos.py``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import MinimizeOptions
from repro.batch import BatchMinimizer
from repro.batch.executor import ExecutorStats, WorkerPool, process_map
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ProtocolError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.parsing.xpath import parse_xpath
from repro.resilience import (
    FAULT_POINTS,
    CircuitBreaker,
    ClientStats,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.resilience.client import _error_from_payload, _retryable


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec(point="nope", kind="slow")
        with pytest.raises(ValueError, match="does not understand kind"):
            FaultSpec(point="batch.run", kind="crash")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(point="batch.run", kind="slow", at=(0,))
        with pytest.raises(ValueError, match="every"):
            FaultSpec(point="batch.run", kind="slow", every=-1)
        with pytest.raises(ValueError, match="delay"):
            FaultSpec(point="batch.run", kind="slow", delay=-0.1)

    def test_fires_on_at_and_every(self):
        spec = FaultSpec(point="worker.chunk", kind="crash", at=(3,), every=5)
        assert [h for h in range(1, 16) if spec.fires(h)] == [3, 5, 10, 15]

    def test_at_is_sorted_deduped(self):
        spec = FaultSpec(point="batch.run", kind="slow", at=(4, 1, 4))
        assert spec.at == (1, 4)

    def test_json_roundtrip(self):
        spec = FaultSpec(point="protocol.send", kind="garbage", at=(2,), every=3)
        assert FaultSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="unknown fault-spec fields"):
            FaultSpec.from_json({"point": "batch.run", "kind": "slow", "x": 1})


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(7) == FaultPlan.seeded(7)
        assert FaultPlan.seeded(7) != FaultPlan.seeded(8)

    def test_seeded_covers_every_default_kind(self):
        plan = FaultPlan.seeded(0)
        points = {s.point for s in plan.specs}
        assert points == {"batch.run", "batcher.flush", "protocol.send"}
        assert all(s.at for s in plan.specs)

    def test_parse_forms(self):
        assert FaultPlan.parse("seed:11") == FaultPlan.seeded(11)
        spec = FaultSpec(point="batch.run", kind="slow", at=(1,))
        as_obj = FaultPlan.parse(json.dumps({"specs": [spec.to_json()]}))
        as_arr = FaultPlan.parse(json.dumps([spec.to_json()]))
        assert as_obj.specs == as_arr.specs == (spec,)
        with pytest.raises(ValueError, match="bad fault-plan seed"):
            FaultPlan.parse("seed:nope")
        with pytest.raises(ValueError, match="neither"):
            FaultPlan.parse("definitely not json")

    def test_truthiness(self):
        assert not FaultPlan()
        assert FaultPlan.seeded(1)

    def test_json_roundtrip(self):
        plan = FaultPlan.seeded(5)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestFaultInjector:
    def test_counter_based_firing(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="batch.run", kind="slow", at=(2,), every=4),)
        )
        injector = FaultInjector(plan)
        hits = [injector.draw("batch.run") is not None for _ in range(8)]
        assert hits == [False, True, False, True, False, False, False, True]
        assert injector.faults_injected == 3
        assert [(e.point, e.kind, e.hit) for e in injector.events()] == [
            ("batch.run", "slow", 2),
            ("batch.run", "slow", 4),
            ("batch.run", "slow", 8),
        ]

    def test_points_count_independently(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(point="batch.run", kind="slow", at=(1,)),
                FaultSpec(point="batcher.flush", kind="stall", at=(1,)),
            )
        )
        injector = FaultInjector(plan)
        assert injector.draw("batch.run") is not None
        assert injector.draw("batch.run") is None
        assert injector.draw("batcher.flush") is not None

    def test_empty_plan_never_fires(self):
        injector = FaultInjector()
        assert all(injector.draw(p) is None for p in FAULT_POINTS)
        assert injector.faults_injected == 0

    def test_thread_safety(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="worker.chunk", kind="slow", every=2),)
        )
        injector = FaultInjector(plan)

        def hammer():
            for _ in range(500):
                injector.draw("worker.chunk")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 2000 arms, every 2nd fires — exactly, or a counter was lost.
        assert injector.faults_injected == 1000


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0)
        assert [policy.delay(a) for a in (1, 2, 3, 4, 5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0)
        assert policy.delay(1, retry_after=0.3) == pytest.approx(0.3)
        assert policy.delay(1, retry_after=0.001) == pytest.approx(0.01)

    def test_jitter_bounds_and_determinism(self):
        import random

        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        values = [policy.delay(1, rng=random.Random(42)) for _ in range(3)]
        assert values[0] == values[1] == values[2]  # seeded rng → replayable
        assert 0.1 <= values[0] <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=lambda: clock[0])
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_half_open_probe_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 1.5
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed: cooldown restarts
        assert not breaker.allow()
        clock[0] = 1.5
        assert not breaker.allow()
        clock[0] = 2.0
        assert breaker.allow()


class TestErrorMapping:
    def test_overloaded_carries_retry_after(self):
        error = _error_from_payload(
            {"type": "ServiceOverloadedError", "message": "full", "retry_after": 0.7}
        )
        assert isinstance(error, ServiceOverloadedError)
        assert error.retry_after == pytest.approx(0.7)
        assert _retryable(error)

    def test_deadline_and_protocol_do_not_retry(self):
        assert isinstance(
            _error_from_payload({"type": "DeadlineExceededError", "message": "x"}),
            DeadlineExceededError,
        )
        error = _error_from_payload({"type": "ProtocolError", "message": "x"})
        assert isinstance(error, ProtocolError) and not _retryable(error)

    def test_unknown_and_malformed_payloads(self):
        error = _error_from_payload({"type": "WeirdError", "message": "boom"})
        assert "WeirdError" in str(error) and not _retryable(error)
        assert "malformed" in str(_error_from_payload("nope"))

    def test_client_stats_counters_shape(self):
        counters = ClientStats().counters()
        for key in ("requests", "attempts", "retries", "reconnects",
                    "garbage_lines", "duplicate_responses", "breaker_opens",
                    "breaker_short_circuits", "backoff_seconds"):
            assert counters[key] == 0

    def test_errors_carry_context(self):
        exc = ServiceUnavailableError("gone", attempts=4, last_error=OSError("x"))
        assert exc.attempts == 4 and isinstance(exc.last_error, OSError)
        assert CircuitOpenError("open", retry_after=0.2).retry_after == 0.2


def _ident(x):
    return x


class TestExecutorResilience:
    def test_injected_crash_retries_only_lost_chunks(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="worker.chunk", kind="crash", at=(1,)),)
        )
        injector = FaultInjector(plan)
        stats = ExecutorStats()
        with WorkerPool(2) as pool:
            out = process_map(
                _ident, list(range(12)), pool=pool, injector=injector, stats=stats
            )
        assert out == list(range(12))
        assert injector.faults_injected == 1
        assert stats.pool_retries >= 1
        # only the broken round's chunks were retried, never every chunk twice
        assert 1 <= stats.chunks_retried <= stats.dispatched_chunks

    def test_watchdog_kills_hung_chunk_and_recovers(self):
        stats = ExecutorStats()
        payloads = ["SLOW"] + ["a", "b", "c"]
        plan = FaultPlan(
            # A real hang, injected deterministically: slow fault with a
            # delay far beyond the watchdog on the first chunk.
            specs=(FaultSpec(point="worker.chunk", kind="slow", at=(1,), delay=30.0),)
        )
        with WorkerPool(2) as pool:
            out = process_map(
                _ident,
                payloads,
                pool=pool,
                injector=FaultInjector(plan),
                watchdog=1.0,
                stats=stats,
            )
        assert out == payloads
        assert stats.watchdog_kills >= 1

    def test_injected_pickle_fault_forces_fallback(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="executor.pickle", kind="fail", every=2),)
        )
        stats = ExecutorStats()
        with WorkerPool(2) as pool:
            out = process_map(
                _ident,
                list(range(8)),
                pool=pool,
                injector=FaultInjector(plan),
                stats=stats,
            )
        assert out == list(range(8))
        assert stats.pickle_fallbacks == 4

    def test_serial_path_ignores_worker_faults(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="worker.chunk", kind="crash", every=1),)
        )
        injector = FaultInjector(plan)
        queries = [parse_xpath("a/b[c][c]"), parse_xpath("a//b"), parse_xpath("a/b/c")]
        with BatchMinimizer(
            options=MinimizeOptions(jobs=1, memoize=False), injector=injector
        ) as minimizer:
            batch = minimizer.minimize_all(queries)
        assert [p.size for p in batch.patterns()] == [3, 2, 3]
        assert injector.faults_injected == 0  # never armed off the pooled path

    def test_persistent_pool_survives_injected_crash(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="worker.chunk", kind="crash", at=(2,)),)
        )
        injector = FaultInjector(plan)
        with WorkerPool(2) as pool:
            first = process_map(_ident, range(6), pool=pool, injector=injector)
            second = process_map(_ident, range(6, 12), pool=pool, injector=injector)
        assert first == list(range(6)) and second == list(range(6, 12))
        assert injector.faults_injected == 1
        assert pool.recreations >= 2  # invalidated and rebuilt after the crash
