"""Certification chaos suite: seeded semantic corruption, zero escapes.

``store.tamper`` and ``cache.poison`` are the *semantic* fault points:
they mutate replay recipes while leaving every checksum valid, so only
the certification layer (:mod:`repro.certify`) stands between a
poisoned cache and a wrong answer. Each test here corrupts a cache tier
under a deterministic :class:`~repro.resilience.faults.FaultPlan` and
holds the stack — in-process sessions and the TCP service — to the
differential contract: every served answer is
byte-identical to the cold serial ``minimize`` loop, the corruption is
*detected* (nonzero ``audit_failures``/``quarantined_records``), and no
answer is served unverified (``certified`` covers every response).

Companion "gap" tests prove the suite is non-vacuous: with
certification off, the same fault plans make wrong answers escape.

Marked ``chaos`` (run with ``pytest -m chaos``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import MinimizeOptions, Session
from repro.core.pipeline import minimize
from repro.parsing.serializer import to_xpath
from repro.parsing.xpath import parse_xpath
from repro.resilience import AsyncServiceClient, FaultPlan, FaultSpec, RetryPolicy
from repro.service import MinimizationService
from repro.service.protocol import serve_tcp
from repro.workloads import chaos_workload

pytestmark = pytest.mark.chaos

#: One deterministic workload shared by the whole suite. Ten queries
#: over four distinct structures: the six repeats are what replay — and
#: what a poisoned recipe would mis-serve.
QUERIES, CONSTRAINTS = chaos_workload(10, seed=1)

FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.1)

#: Corrupt every in-memory memo insert / store write. ``drop`` removes a
#: recorded elimination, so a replayed answer is *equivalent but not
#: minimal* — the nastiest semantic corruption, invisible to checksums.
POISON = FaultPlan(
    specs=(FaultSpec(point="cache.poison", kind="drop", every=1),)
)
TAMPER = FaultPlan(
    specs=(FaultSpec(point="store.tamper", kind="drop", every=1),)
)


def serial_expected() -> list[str]:
    """The cold serial-loop oracle (minimal queries are unique)."""
    return [to_xpath(minimize(parse_xpath(q), CONSTRAINTS).pattern) for q in QUERIES]


EXPECTED = serial_expected()


def _session_minimized(options: MinimizeOptions) -> tuple[list[str], dict]:
    with Session(options, constraints=CONSTRAINTS) as session:
        results = [session.minimize(parse_xpath(q)) for q in QUERIES]
        counters = session.counters()
    return [to_xpath(r.pattern) for r in results], counters


def assert_no_escapes(minimized: list[str], counters: dict) -> None:
    """The chaos gate: byte-identical answers, detected corruption, and
    every response covered by a verified certificate."""
    assert minimized == EXPECTED
    assert counters["audit_failures"] > 0
    assert counters["quarantined_records"] > 0
    # Zero unverified answers: each of the len(QUERIES) responses was
    # either fresh-checked or replay-audited (quarantined replays are
    # recomputed and fresh-checked again, so the count can exceed it).
    assert counters["certified"] >= len(QUERIES)


class TestPoisonedMemo:
    """``cache.poison``: the in-memory replay memo lies."""

    def test_gap_uncertified_session_serves_wrong_answers(self):
        """Non-vacuity: without certification the poisoned recipes are
        replayed verbatim and wrong answers escape."""
        minimized, _ = _session_minimized(MinimizeOptions(fault_plan=POISON))
        assert minimized != EXPECTED

    def test_certified_session_quarantines_and_recomputes(self):
        minimized, counters = _session_minimized(
            MinimizeOptions(certify=True, fault_plan=POISON)
        )
        assert_no_escapes(minimized, counters)
        assert counters["recomputed_after_quarantine"] > 0

    def test_tcp_service_under_poison(self):
        async def scenario():
            options = MinimizeOptions(certify=True, fault_plan=POISON)
            service = MinimizationService(
                options,
                constraints=CONSTRAINTS,
                max_batch_size=4,
                max_wait=0.005,
            )
            stop = asyncio.Event()
            bound: dict = {}
            async with service:
                server = asyncio.ensure_future(
                    serve_tcp(
                        service, "127.0.0.1", 0, stop=stop,
                        on_bound=lambda p: bound.update(port=p),
                    )
                )
                while "port" not in bound:
                    await asyncio.sleep(0.005)
                client = AsyncServiceClient(
                    "127.0.0.1", bound["port"], retry=FAST_RETRY, timeout=30.0
                )
                try:
                    results = [await client.minimize(q) for q in QUERIES]
                finally:
                    await client.aclose()
                counters = service.counters()
                stop.set()
                await server
            return results, counters

        results, counters = asyncio.run(scenario())
        assert_no_escapes([r["minimized"] for r in results], counters)


class TestTamperedStore:
    """``store.tamper``: the persistent tier commits checksum-valid lies."""

    def _write_tampered(self, store_path: str) -> None:
        """Phase 1: a certified writer session whose store commits
        tampered recipes (the corruption rides the write-behind, so the
        writer's own in-memory answers stay correct)."""
        minimized, _ = _session_minimized(
            MinimizeOptions(
                certify=True, store_path=store_path, fault_plan=TAMPER
            )
        )
        assert minimized == EXPECTED  # the writer itself was never wrong

    def test_gap_uncertified_warm_session_serves_wrong_answers(self, tmp_path):
        store_path = str(tmp_path / "tampered.sqlite")
        self._write_tampered(store_path)
        minimized, _ = _session_minimized(
            MinimizeOptions(store_path=store_path)
        )
        assert minimized != EXPECTED

    def test_certified_warm_session_quarantines_and_recomputes(self, tmp_path):
        store_path = str(tmp_path / "tampered.sqlite")
        self._write_tampered(store_path)
        minimized, counters = _session_minimized(
            MinimizeOptions(certify=True, store_path=store_path)
        )
        assert_no_escapes(minimized, counters)
        assert counters["recomputed_after_quarantine"] > 0

    def test_tcp_service_on_tampered_store(self, tmp_path):
        store_path = str(tmp_path / "tampered.sqlite")
        self._write_tampered(store_path)

        async def scenario():
            options = MinimizeOptions(certify=True, store_path=store_path)
            service = MinimizationService(
                options,
                constraints=CONSTRAINTS,
                max_batch_size=4,
                max_wait=0.005,
            )
            stop = asyncio.Event()
            bound: dict = {}
            async with service:
                server = asyncio.ensure_future(
                    serve_tcp(
                        service, "127.0.0.1", 0, stop=stop,
                        on_bound=lambda p: bound.update(port=p),
                    )
                )
                while "port" not in bound:
                    await asyncio.sleep(0.005)
                client = AsyncServiceClient(
                    "127.0.0.1", bound["port"], retry=FAST_RETRY, timeout=30.0
                )
                try:
                    results = [await client.minimize(q) for q in QUERIES]
                finally:
                    await client.aclose()
                counters = service.counters()
                stop.set()
                await server
            return results, counters

        results, counters = asyncio.run(scenario())
        assert_no_escapes([r["minimized"] for r in results], counters)

    def test_store_self_heals_after_quarantine(self, tmp_path):
        """After one certified pass over a tampered store, the forged
        rows have been replaced: a later *uncertified* session reads only
        healed records and serves correctly."""
        store_path = str(tmp_path / "tampered.sqlite")
        self._write_tampered(store_path)
        minimized, counters = _session_minimized(
            MinimizeOptions(certify=True, store_path=store_path)
        )
        assert_no_escapes(minimized, counters)
        healed, after = _session_minimized(
            MinimizeOptions(store_path=store_path)
        )
        assert healed == EXPECTED
        assert after.get("audit_failures", 0) == 0
