"""Tests for the persistent content-addressed cache tier (:mod:`repro.store`).

The store's contract has three load-bearing clauses, each pinned here:

* **byte-identical warm starts** — a warm :class:`~repro.api.Session`
  (replaying from disk) produces exactly what a cold one computes;
* **degradation, never corruption** — truncated, bit-flipped,
  version-mismatched, or garbage records turn into *counted misses* and
  the served results stay correct;
* **precise invalidation** — records are keyed by constraint-closure
  digest, so an IC change invalidates exactly the affected proofs (and
  the invalidation is counted), while oracle DP tables (structural
  facts) survive.

Under ``-m chaos``: a SIGKILL mid-compaction (the ``store.compact``
fault point fires inside the transaction) must roll back through the
WAL — the reopened store serves the pre-compaction records
byte-identically.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sqlite3
import threading

import pytest

from repro.api import MinimizeOptions, Session
from repro.constraints.model import parse_constraints
from repro.constraints.repository import coerce_repository
from repro.core.oracle_cache import (
    global_cache,
    global_store,
    reset_global_cache,
    set_global_store,
)
from repro.core.pipeline import minimize
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.store import STORE_FORMAT, PersistentStore, StoreStats
from repro.workloads import batch_workload

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """Each test starts with no global store and a fresh oracle cache."""
    reset_global_cache()
    set_global_store(None)
    yield
    reset_global_cache()
    set_global_store(None)


def sexprs(results) -> "list[str]":
    return [to_sexpr(r.pattern) for r in results]


def fig8_stream(count: int = 24, *, seed: int = 5, distinct: int = 6):
    """A repeated-structure workload plus serial expected outputs."""
    queries, constraints = batch_workload(
        count, kind="fig8", distinct=distinct, size=24, seed=seed
    )
    expected = [to_sexpr(minimize(q, constraints).pattern) for q in queries]
    return queries, constraints, expected


class TestRecordPath:
    """The generic (kind, key, closure) record contract."""

    def test_round_trip_and_counters(self, tmp_path):
        with PersistentStore(tmp_path / "s.db") as store:
            store.put("min", "k1", "d1", {"payload": [1, 2, 3]})
            store.flush()
            assert store.get("min", "k1", "d1") == {"payload": [1, 2, 3]}
            assert store.get("min", "absent", "d1") is None
            assert store.stats.hits == 1
            assert store.stats.misses == 1
            assert store.stats.writes == 1
            assert len(store) == 1

    def test_typed_minimization_round_trip(self, tmp_path):
        pattern = parse_xpath("a/b[c][c]//d")
        with PersistentStore(tmp_path / "s.db") as store:
            store.put_minimization("fp", "digest", pattern, [(3, "c")])
            store.flush()
            loaded, eliminated, certificate = store.get_minimization("fp", "digest")
            assert to_sexpr(loaded) == to_sexpr(pattern)
            assert [n.id for n in loaded.nodes()] == [n.id for n in pattern.nodes()]
            assert eliminated == [(3, "c")]
            assert certificate is None  # written without certification

    def test_reopen_serves_previous_process_records(self, tmp_path):
        path = tmp_path / "s.db"
        with PersistentStore(path) as store:
            store.put("min", "k", "d", "value")
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") == "value"

    def test_closure_digest_mismatch_is_counted_invalidation(self, tmp_path):
        with PersistentStore(tmp_path / "s.db") as store:
            store.put("min", "shared-key", "digest-old", "proof")
            store.flush()
            assert store.get("min", "shared-key", "digest-new") is None
            assert store.stats.invalidations == 1
            # The old-closure record itself is untouched: precise, not
            # a flush of everything.
            assert store.get("min", "shared-key", "digest-old") == "proof"

    def test_oracle_records_are_closure_free(self, tmp_path):
        src, tgt = parse_xpath("a/b"), parse_xpath("a//b")
        with PersistentStore(tmp_path / "s.db") as store:
            store.put_oracle("s", "t", src, tgt, {0: frozenset({0})})
            store.flush()
            loaded = store.get_oracle("s", "t")
            assert loaded is not None
            assert dict(loaded[2]) == {0: frozenset({0})}

    def test_max_records_prunes_oldest(self, tmp_path):
        with PersistentStore(tmp_path / "s.db", max_records=5) as store:
            for i in range(12):
                store.put("min", f"k{i}", "d", i)
            store.flush()
            assert len(store) <= 5
            assert store.stats.pruned >= 7
            # Newest survive, oldest are gone.
            assert store.get("min", "k11", "d") == 11
            assert store.get("min", "k0", "d") is None


class TestCorruptionTolerance:
    """Every bad-record shape degrades to a counted miss, never an error."""

    @staticmethod
    def _seeded(path):
        with PersistentStore(path) as store:
            store.put("min", "k", "d", {"value": 42})
        return path

    @staticmethod
    def _mutate(path, sql, params=()):
        conn = sqlite3.connect(path)
        conn.execute(sql, params)
        conn.commit()
        conn.close()

    def test_checksum_flip_is_counted_miss(self, tmp_path):
        path = self._seeded(tmp_path / "s.db")
        self._mutate(path, "UPDATE records SET checksum='0'||substr(checksum, 2)")
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") is None
            assert store.stats.corrupt_records == 1
            assert store.stats.misses == 1

    def test_truncated_payload_is_counted_miss(self, tmp_path):
        path = self._seeded(tmp_path / "s.db")
        self._mutate(path, "UPDATE records SET payload=substr(payload, 1, 4)")
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") is None
            assert store.stats.corrupt_records == 1

    def test_garbage_payload_is_counted_miss(self, tmp_path):
        path = self._seeded(tmp_path / "s.db")
        # Valid checksum over bytes that are not a pickle at all: the
        # unpickle failure (not the checksum) must catch it.
        import hashlib

        garbage = b"\x00not a pickle\xff"
        self._mutate(
            path,
            "UPDATE records SET payload=?, checksum=?",
            (garbage, hashlib.sha256(garbage).hexdigest()),
        )
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") is None
            assert store.stats.corrupt_records == 1

    def test_format_version_mismatch_is_counted_miss(self, tmp_path):
        path = self._seeded(tmp_path / "s.db")
        self._mutate(path, "UPDATE records SET fmt=?", (STORE_FORMAT + 1,))
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") is None
            assert store.stats.version_mismatches == 1
            assert store.stats.misses == 1

    def test_bad_row_is_deleted_on_the_write_path(self, tmp_path):
        path = self._seeded(tmp_path / "s.db")
        self._mutate(path, "UPDATE records SET payload=substr(payload, 1, 4)")
        with PersistentStore(path) as store:
            assert store.get("min", "k", "d") is None
            store.flush()
        conn = sqlite3.connect(path)
        (count,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        conn.close()
        assert count == 0

    def test_corrupt_warm_records_are_skipped(self, tmp_path):
        path = tmp_path / "s.db"
        pattern = parse_xpath("a/b[c]")
        with PersistentStore(path) as store:
            store.put_minimization("good", "d", pattern, [])
            store.put_minimization("bad", "d", pattern, [])
        self._mutate(
            path,
            "UPDATE records SET payload=substr(payload, 1, 4) WHERE key='bad'",
        )
        with PersistentStore(path) as store:
            warm = list(store.warm_minimizations("d"))
            assert [fp for fp, _, _, _ in warm] == ["good"]
            assert store.stats.corrupt_records == 1
            assert store.stats.warm_loaded == 1


class TestWriteBehind:
    """The async write path: batching, faults, concurrency."""

    def test_store_write_fault_drops_batch_counted(self, tmp_path):
        plan = FaultPlan((FaultSpec(point="store.write", kind="fail", at=(1,)),))
        store = PersistentStore(tmp_path / "s.db", injector=FaultInjector(plan))
        store.put("min", "k", "d", "doomed")
        store.flush()
        # The batch was dropped: a miss, a counted failure, no exception.
        assert store.get("min", "k", "d") is None
        assert store.stats.write_failures == 1
        # The next batch (fault exhausted) commits normally.
        store.put("min", "k2", "d", "survives")
        store.flush()
        assert store.get("min", "k2", "d") == "survives"
        store.close()

    def test_concurrent_readers_during_write_behind(self, tmp_path):
        # Readers on the writing store itself (other threads of the same
        # process) and on two more stores over the same file.
        path = tmp_path / "s.db"
        writer = PersistentStore(path, batch_size=8)
        others = [PersistentStore(path) for _ in range(2)]
        readers = [writer, *others]
        errors: "list[BaseException]" = []
        stop = threading.Event()

        def read_loop(store):
            try:
                while not stop.is_set():
                    for i in range(50):
                        # Any answer is fine (committed-or-not), but it
                        # must never raise and never return a wrong value.
                        value = store.get("min", f"k{i}", "d")
                        if value is not None:
                            assert value == i
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=read_loop, args=(r,)) for r in readers
        ]
        for t in threads:
            t.start()
        for i in range(50):
            writer.put("min", f"k{i}", "d", i)
        writer.flush()
        stop.set()
        for t in threads:
            t.join(timeout=10)
        for store in readers:
            store.close()
        assert errors == []
        with PersistentStore(path) as check:
            stored = [check.get("min", f"k{i}", "d") for i in range(50)]
        assert stored == list(range(50))

    def test_compact_prunes_and_checkpoints(self, tmp_path):
        with PersistentStore(tmp_path / "s.db") as store:
            for i in range(20):
                store.put("min", f"k{i}", "d", i)
            store.compact(max_records=4)
            assert store.stats.compactions == 1
            assert len(store) == 4
            assert store.get("min", "k19", "d") == 19


class TestSessionIntegration:
    """The store behind Session/BatchMinimizer: warm starts, differentials."""

    def test_cold_vs_warm_session_byte_identical(self, tmp_path):
        path = str(tmp_path / "s.db")
        queries, constraints, expected = fig8_stream()
        with Session(MinimizeOptions(store_path=path), constraints=constraints) as s:
            cold = sexprs(s.minimize_many(queries))
        assert cold == expected
        reset_global_cache()  # simulate a process restart
        with Session(MinimizeOptions(store_path=path), constraints=constraints) as s:
            warm = sexprs(s.minimize_many(queries))
            counters = s.counters()
        assert warm == cold
        assert counters["store_warm_loaded"] > 0
        # Every query replayed from the warm memo: no fresh minimization.
        assert counters["cache_hits"] == len(queries)

    def test_consult_on_memo_miss_hits_the_store(self, tmp_path):
        path = str(tmp_path / "s.db")
        queries, constraints, expected = fig8_stream()
        with Session(MinimizeOptions(store_path=path), constraints=constraints) as s:
            assert sexprs(s.minimize_many(queries)) == expected
        reset_global_cache()
        # warm_limit=0 disables the boot-time preload, so every distinct
        # fingerprint must travel the lookup path instead.
        store = PersistentStore(path, warm_limit=0)
        try:
            with Session(store=store, constraints=constraints) as s:
                warm = sexprs(s.minimize_many(queries))
                counters = s.counters()
        finally:
            store.close()
        assert warm == expected
        assert counters["store_hits"] > 0
        assert counters["store_warm_loaded"] == 0

    def test_closure_churn_invalidates_precisely(self, tmp_path):
        path = str(tmp_path / "s.db")
        query = parse_xpath("a/b[//c]")
        ics_a = parse_constraints("a -> b; b ->> c")
        ics_b = parse_constraints("a -> b")
        with Session(MinimizeOptions(store_path=path), constraints=ics_a) as s:
            under_a = to_sexpr(s.minimize(query).pattern)
        reset_global_cache()
        store = PersistentStore(path, warm_limit=0)
        try:
            with Session(store=store, constraints=ics_b) as s:
                under_b = to_sexpr(s.minimize(query).pattern)
                counters = s.counters()
        finally:
            store.close()
        # Different closure digest: the stored proof must NOT be replayed.
        assert under_b == to_sexpr(minimize(query, ics_b).pattern)
        assert under_b != under_a
        assert counters["store_invalidations"] > 0

    def test_every_restart_leg_serves_the_serial_answers(self, tmp_path):
        """Five restarts over a 90-query stream of 10 structures: cold,
        warm, consult (no preload), every checksum flipped, and one
        constraint dropped. Each serves the serial loop's bytes and
        counts the work it did."""
        path = tmp_path / "s.db"
        queries, constraints, expected = fig8_stream(90, seed=13, distinct=10)

        def restart(ics, **session_args):
            reset_global_cache()
            with Session(constraints=ics, **session_args) as s:
                return sexprs(s.minimize_many(queries)), s.counters()

        def consult(file, ics):
            with PersistentStore(file, warm_limit=0) as store:
                return restart(ics, store=store)

        cold, _ = restart(constraints, options=MinimizeOptions(store_path=str(path)))
        warm, warm_counters = restart(
            constraints, options=MinimizeOptions(store_path=str(path))
        )
        consulted, consult_counters = consult(path, constraints)
        corrupt = tmp_path / "corrupt.db"
        corrupt.write_bytes(path.read_bytes())
        TestCorruptionTolerance._mutate(
            corrupt,
            "UPDATE records SET checksum = CASE substr(checksum, 1, 1) "
            "WHEN '0' THEN '1' ELSE '0' END || substr(checksum, 2)",
        )
        degraded, corrupt_counters = consult(corrupt, constraints)
        churned = list(constraints)[:-1]
        after_churn, churn_counters = consult(path, churned)

        assert cold == warm == consulted == degraded == expected
        assert warm_counters["store_warm_loaded"] > 0
        assert consult_counters["store_hits"] > 0
        assert corrupt_counters["store_corrupt_records"] > 0
        assert after_churn == [
            to_sexpr(minimize(q, churned).pattern) for q in queries
        ]
        assert churn_counters["store_invalidations"] > 0

    def test_closure_digest_is_content_addressed(self):
        a = coerce_repository(parse_constraints("a -> b; b ->> c"))
        b = coerce_repository(parse_constraints("b ->> c; a -> b"))
        c = coerce_repository(parse_constraints("a -> b"))
        assert a.digest() == b.digest()  # order-independent
        assert a.digest() != c.digest()

    def test_session_without_store_path_opens_nothing(self):
        with Session(constraints=CONSTRAINTS) as s:
            assert s.store is None
            assert "store_hits" not in s.counters()

    def test_session_close_detaches_global_store(self, tmp_path):
        path = str(tmp_path / "s.db")
        with Session(MinimizeOptions(store_path=path), constraints=CONSTRAINTS) as s:
            assert global_store() is s.store
        assert global_store() is None

    def test_oracle_tables_survive_restart(self, tmp_path):
        """After a restart, containment DP tables load from disk: the
        oracle cache reports store hits instead of recomputing.

        The oracle cache backs :func:`mapping_targets` (absolute
        containment), so the driver here is ``Session.equivalent`` on a
        non-isomorphic pair (the fingerprint fast path must not
        short-circuit the DP)."""
        path = str(tmp_path / "s.db")
        q1 = parse_xpath("a/b[c][c]//d")
        q2 = parse_xpath("a/b[c]//d")
        with Session(MinimizeOptions(store_path=path)) as s:
            first = s.equivalent(q1, q2)
            assert global_cache().stats.stores > 0
        reset_global_cache()
        store = PersistentStore(path, warm_limit=0)
        try:
            with Session(store=store) as s:
                assert s.equivalent(q1, q2) == first
                cache_stats = global_cache().stats
        finally:
            store.close()
        # The in-memory cache was cold: every served lookup was
        # disk-backed, and nothing had to be recomputed.
        assert cache_stats.store_hits > 0
        assert cache_stats.hits == cache_stats.store_hits
        assert cache_stats.misses == 0


CHAOS_CHILD = r"""
import sys
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.store import PersistentStore

path = sys.argv[1]
plan = FaultPlan((FaultSpec(point="store.compact", kind="kill", at=(1,)),))
store = PersistentStore(path, injector=FaultInjector(plan))
for i in range(10):
    store.put("min", f"k{i}", "d", i)
store.flush()
print("SEEDED", flush=True)
store.compact(max_records=2)  # SIGKILLed mid-transaction
print("UNREACHABLE", flush=True)
"""


@pytest.mark.chaos
class TestChaosCompaction:
    def test_kill_during_compaction_recovers_byte_identically(self, tmp_path):
        path = str(tmp_path / "s.db")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", CHAOS_CHILD, path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        # The fault SIGKILLed the process mid-compaction-transaction.
        assert proc.returncode == -9, proc.stderr
        assert "SEEDED" in proc.stdout
        assert "UNREACHABLE" not in proc.stdout
        # Recovery: the WAL rolls the half-done DELETE back; every
        # pre-compaction record is served intact.
        with PersistentStore(path) as store:
            for i in range(10):
                assert store.get("min", f"k{i}", "d") == i
            assert store.stats.corrupt_records == 0
            # And a clean compaction afterwards succeeds.
            store.compact(max_records=2)
            assert len(store) == 2
