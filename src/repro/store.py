"""Persistent content-addressed cache tier (disk-backed, SQLite/WAL).

Every performance layer built since the batch backend keys its work on
*content fingerprints* — the minimization replay memo
(:class:`~repro.batch.minimizer.BatchMinimizer`), the containment-oracle
DP tables (:class:`~repro.core.oracle_cache.ContainmentOracleCache`)
— yet all of that state dies with the process. For the
repeated-structure streams that dominate real workloads, the corpus of
distinct tree-pattern structures *is* the durable asset of the service:
:class:`PersistentStore` keeps it across restarts.

Design (DESIGN.md §9):

* **Content addressing.** Records are keyed ``(kind, key, closure)``:
  ``kind`` names the record family (``"min"`` for fingerprint →
  elimination replays, ``"oracle"`` for containment DP tables),
  ``key`` is the content fingerprint (or the ``src:tgt`` digest pair),
  and ``closure`` is the **constraint-closure digest**
  (:meth:`repro.constraints.repository.ConstraintRepository.digest`)
  the record was proven under. Changing the IC repository changes the
  digest, so stale proofs are invalidated *precisely* — records under
  other digests stay untouched, and oracle DP tables (pure structural
  facts, independent of any IC) use the empty digest and survive any
  churn.
* **Corruption tolerance.** Every record carries a payload checksum and
  a format version. A truncated, bit-flipped, or version-mismatched
  record — or one that simply fails to unpickle — degrades to a
  *counted miss* (:class:`StoreStats`), never an error and never a
  wrong answer; the bad row is queued for deletion on the write path.
* **Write-behind.** ``put`` never blocks the serving path: records are
  queued and a background writer thread serializes, checksums, and
  commits them in batches (one transaction per batch). SQLite runs in
  WAL mode with a generous ``mmap_size``, so concurrent readers see
  committed batches immediately and reads are page-cache friendly.
* **Single writer.** The serving process owns its store file, and
  within it the write-behind thread is the only writer connection.
  Worker-pool processes never open the store.
* **Bounded growth.** The writer prunes the oldest records beyond
  ``max_records``; :meth:`PersistentStore.compact` prunes and
  checkpoints/vacuums on demand. Both paths are armed with the
  ``store.write`` / ``store.compact`` fault points
  (:mod:`repro.resilience.faults`): a killed-mid-compaction store
  recovers byte-identically from the WAL on the next open.

Wiring: ``MinimizeOptions(store_path=...)`` / ``repro-serve --store`` —
the :class:`~repro.api.Session` opens the store, warm-starts its replay
memo from it on boot, attaches it behind the process-wide oracle cache,
and flushes it on close.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue as queue_module
import signal
import sqlite3
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (no import cycle)
    from .core.pattern import TreePattern
    from .resilience.faults import FaultInjector

__all__ = [
    "STORE_FORMAT",
    "StoreStats",
    "PersistentStore",
]

#: Payload format version. Bumped when the pickled payload shape (or the
#: pattern encoding it relies on) changes incompatibly; records written
#: under another format degrade to counted misses. Format 2 added the
#: witness :class:`~repro.certify.Certificate` slot to ``min`` payloads;
#: format 3 pickles patterns through ``repro.core.flat.pattern_from_flat``
#: (the module was ``repro.core.engine_v2``).
STORE_FORMAT = 3

#: Record families. ``min``: fingerprint → (representative pattern,
#: elimination replay), keyed under the closure digest. ``oracle``:
#: (source, target) content digests → containment DP table, closure-free
#: (structural facts hold under any IC repository).
KIND_MINIMIZATION = "min"
KIND_ORACLE = "oracle"

#: Sentinel telling the writer thread to exit.
_WRITER_STOP = object()


@dataclass
class StoreStats:
    """Observability counters for one :class:`PersistentStore`.

    ``hits``/``misses`` count ``get`` outcomes; ``corrupt_records`` and
    ``version_mismatches`` are the counted-degradation paths (each is
    also a miss); ``invalidations`` counts misses where a record for the
    same content exists under a *different* closure digest — the precise
    IC-churn invalidation at work. Write-side: ``writes`` are records
    committed, ``write_batches`` the transactions that carried them,
    ``write_failures`` batches dropped by fault/IO errors (degradation,
    never an error), ``pruned`` records deleted by the growth bound;
    ``quarantined`` counts records deleted by a failed certificate audit
    (:meth:`PersistentStore.quarantine` — a checksum-valid record whose
    witness no longer proves its answer is *semantic* corruption and is
    never served).
    """

    hits: int = 0
    misses: int = 0
    corrupt_records: int = 0
    version_mismatches: int = 0
    invalidations: int = 0
    writes: int = 0
    write_batches: int = 0
    write_failures: int = 0
    pruned: int = 0
    quarantined: int = 0
    warm_loaded: int = 0
    compactions: int = 0
    compact_failures: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk."""
        return self.hits / self.lookups if self.lookups else 0.0

    def counters(self) -> dict[str, float]:
        """The counters as a flat dict (for JSON reports), ``store_``-prefixed."""
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_hit_rate": self.hit_rate,
            "store_corrupt_records": self.corrupt_records,
            "store_version_mismatches": self.version_mismatches,
            "store_invalidations": self.invalidations,
            "store_writes": self.writes,
            "store_write_batches": self.write_batches,
            "store_write_failures": self.write_failures,
            "store_pruned": self.pruned,
            "store_quarantined": self.quarantined,
            "store_warm_loaded": self.warm_loaded,
            "store_compactions": self.compactions,
            "store_compact_failures": self.compact_failures,
        }


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _encode(obj: object) -> tuple[bytes, str]:
    """Pickle ``obj`` (patterns travel through the compact FlatPattern
    encoding, losslessly including node ids) and checksum the bytes."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return payload, _checksum(payload)


class PersistentStore:
    """A disk-backed content-addressed cache of minimization work.

    Parameters
    ----------
    path:
        The SQLite database file, created (with parent directories)
        when missing.
    max_records:
        Growth bound; the writer prunes oldest-first beyond it.
    batch_size / flush_interval:
        Write-behind tuning: a commit happens when ``batch_size``
        records have accumulated or ``flush_interval`` seconds have
        passed since the oldest queued record, whichever is first.
    warm_limit:
        Default cap on records served by :meth:`warm_minimizations`.
    stats:
        Optional shared :class:`StoreStats` to accumulate into.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` arming
        the ``store.write`` / ``store.compact`` points.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        max_records: int = 200_000,
        batch_size: int = 64,
        flush_interval: float = 0.05,
        warm_limit: int = 256,
        stats: Optional[StoreStats] = None,
        injector: "Optional[FaultInjector]" = None,
    ) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = os.fspath(path)
        self.max_records = max_records
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.warm_limit = warm_limit
        self.stats = stats if stats is not None else StoreStats()
        self.injector = injector
        self._closed = False
        self._read_lock = threading.Lock()
        self._queue: "queue_module.Queue" = queue_module.Queue()

        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Schema creation runs on a short-lived writable connection so the
        # reader can open immediately; the writer thread owns the
        # long-lived write connection.
        conn = self._connect(self.path)
        try:
            self._init_schema(conn)
        finally:
            conn.close()
        self._read_conn: Optional[sqlite3.Connection] = self._open_reader()
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="repro-store-writer", daemon=True
        )
        self._writer_thread.start()

    # ------------------------------------------------------------------
    # Connections / schema
    # ------------------------------------------------------------------

    @staticmethod
    def _connect(path: str, *, uri: bool = False) -> sqlite3.Connection:
        conn = sqlite3.connect(
            path, uri=uri, timeout=5.0, check_same_thread=False
        )
        conn.execute("PRAGMA busy_timeout=5000")
        return conn

    def _open_reader(self) -> sqlite3.Connection:
        conn = self._connect(f"file:{self.path}?mode=ro", uri=True)
        # WAL readers don't block the writer (and vice versa); mmap makes
        # repeated record reads page-cache lookups.
        conn.execute("PRAGMA mmap_size=134217728")
        return conn

    @staticmethod
    def _init_schema(conn: sqlite3.Connection) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS records (
                kind TEXT NOT NULL,
                key TEXT NOT NULL,
                closure TEXT NOT NULL,
                fmt INTEGER NOT NULL,
                checksum TEXT NOT NULL,
                payload BLOB NOT NULL,
                PRIMARY KEY (kind, key, closure)
            )
            """
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS records_by_kind_key "
            "ON records (kind, key)"
        )
        conn.commit()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every queued write has been committed.
        ``timeout`` bounds the wait."""
        if self._closed:
            return
        done = threading.Event()
        self._queue.put(("barrier", done))
        done.wait(timeout)

    def close(self) -> None:
        """Flush pending writes and release connections (idempotent)."""
        if self._closed:
            return
        self.flush(timeout=10.0)
        self._queue.put(_WRITER_STOP)
        self._writer_thread.join(timeout=10.0)
        self._closed = True
        if self._read_conn is not None:
            try:
                self._read_conn.close()
            except sqlite3.Error:  # pragma: no cover - already broken
                pass
            self._read_conn = None

    def __enter__(self) -> "PersistentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        """Committed record count."""
        row = self._select_one("SELECT COUNT(*) FROM records", ())
        return int(row[0]) if row else 0

    # ------------------------------------------------------------------
    # Generic record path
    # ------------------------------------------------------------------

    def _select_one(self, sql: str, params: tuple) -> Optional[tuple]:
        conn = self._read_conn
        if conn is None or self._closed:
            return None
        with self._read_lock:
            try:
                return conn.execute(sql, params).fetchone()
            except sqlite3.Error:
                return None

    def get(self, kind: str, key: str, closure: str) -> Optional[object]:
        """The decoded payload for ``(kind, key, closure)`` — or ``None``.

        Never raises for a bad record: a missing row, a format-version
        mismatch, a checksum failure, or an unpicklable payload all
        degrade to a counted miss, and the bad row is queued for
        deletion.
        """
        row = self._select_one(
            "SELECT fmt, checksum, payload FROM records "
            "WHERE kind=? AND key=? AND closure=?",
            (kind, key, closure),
        )
        if row is None:
            self.stats.misses += 1
            self._count_invalidation(kind, key, closure)
            return None
        fmt, checksum, payload = row
        if fmt != STORE_FORMAT:
            self.stats.version_mismatches += 1
            self.stats.misses += 1
            self._discard(kind, key, closure)
            return None
        if not isinstance(payload, bytes) or _checksum(payload) != checksum:
            self.stats.corrupt_records += 1
            self.stats.misses += 1
            self._discard(kind, key, closure)
            return None
        try:
            obj = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickling failure is corruption
            self.stats.corrupt_records += 1
            self.stats.misses += 1
            self._discard(kind, key, closure)
            return None
        self.stats.hits += 1
        return obj

    def _count_invalidation(self, kind: str, key: str, closure: str) -> None:
        """A miss where the same content exists under another closure
        digest is the precise-invalidation path — count it."""
        row = self._select_one(
            "SELECT 1 FROM records WHERE kind=? AND key=? AND closure<>? LIMIT 1",
            (kind, key, closure),
        )
        if row is not None:
            self.stats.invalidations += 1

    def put(self, kind: str, key: str, closure: str, obj: object) -> None:
        """Record ``obj`` under ``(kind, key, closure)`` (write-behind:
        the background writer serializes and commits it, off the serving
        path)."""
        if self._closed:
            return
        self._queue.put(("put", kind, key, closure, obj))

    def _discard(self, kind: str, key: str, closure: str) -> None:
        if not self._closed:
            self._queue.put(("delete", kind, key, closure))

    # ------------------------------------------------------------------
    # Typed record families
    # ------------------------------------------------------------------

    def put_minimization(
        self,
        fingerprint: str,
        closure_digest: str,
        pattern: "TreePattern",
        eliminated: "list[tuple[int, str]]",
        certificate: Optional[object] = None,
    ) -> None:
        """Persist one fingerprint → elimination replay record.

        ``pattern`` must be a private snapshot (the replay memo already
        copies its representatives); the recorded elimination is in the
        snapshot's node ids, exactly as the in-memory memo keeps it.
        ``certificate`` is the optional witness
        :class:`~repro.certify.Certificate` (in the same snapshot ids)
        that re-proves the recipe on load.
        """
        self.put(
            KIND_MINIMIZATION,
            fingerprint,
            closure_digest,
            (pattern, list(eliminated), certificate),
        )

    def get_minimization(
        self, fingerprint: str, closure_digest: str
    ) -> "Optional[tuple[TreePattern, list[tuple[int, str]], Optional[object]]]":
        """The replay record for ``fingerprint`` under ``closure_digest``
        — ``(representative_pattern, eliminated, certificate)`` — or
        ``None``. The certificate slot is ``None`` for records written
        without certification."""
        obj = self.get(KIND_MINIMIZATION, fingerprint, closure_digest)
        if not isinstance(obj, tuple) or len(obj) != 3:
            return None if obj is None else self._reject(obj)
        return obj  # type: ignore[return-value]

    def quarantine(self, fingerprint: str, closure_digest: str) -> None:
        """Delete one ``min`` record that failed its certificate audit.

        Quarantine is the *semantic* corruption path: the record's
        checksum verified (the bytes are what the writer committed) but
        its witness certificate no longer proves the recorded recipe, so
        it must never be served. The row is queued for deletion on the
        write path and counted (``StoreStats.quarantined``).
        """
        self.stats.quarantined += 1
        self._discard(KIND_MINIMIZATION, fingerprint, closure_digest)

    def quarantine_oracle(self, source_digest: str, target_digest: str) -> None:
        """Delete one ``oracle`` record whose DP table failed the
        independent checker — the oracle-tier analogue of
        :meth:`quarantine` (same counting)."""
        self.stats.quarantined += 1
        self._discard(KIND_ORACLE, f"{source_digest}:{target_digest}", "")

    def put_oracle(
        self,
        source_digest: str,
        target_digest: str,
        source: "TreePattern",
        target: "TreePattern",
        table: "dict[int, frozenset[int]]",
    ) -> None:
        """Persist one containment-oracle DP table (structural — keyed
        under the empty closure digest; see the module docstring)."""
        self.put(
            KIND_ORACLE,
            f"{source_digest}:{target_digest}",
            "",
            (source, target, dict(table)),
        )

    def get_oracle(
        self, source_digest: str, target_digest: str
    ) -> "Optional[tuple[TreePattern, TreePattern, dict[int, frozenset[int]]]]":
        """The DP-table record for the digest pair, or ``None``."""
        obj = self.get(KIND_ORACLE, f"{source_digest}:{target_digest}", "")
        if not isinstance(obj, tuple) or len(obj) != 3:
            return None if obj is None else self._reject(obj)
        return obj  # type: ignore[return-value]

    def _reject(self, obj: object) -> None:
        """A record that unpickled to the wrong shape: corruption."""
        self.stats.corrupt_records += 1
        self.stats.hits -= 1  # get() counted a hit; it wasn't one
        self.stats.misses += 1
        return None

    def warm_minimizations(
        self, closure_digest: str, limit: Optional[int] = None
    ) -> "Iterator[tuple[str, TreePattern, list[tuple[int, str]], Optional[object]]]":
        """The most recent replay records under ``closure_digest``, as
        ``(fingerprint, pattern, eliminated, certificate)`` — the
        Session's boot-time warm start. Bad records are skipped
        (counted), never raised."""
        limit = limit if limit is not None else self.warm_limit
        conn = self._read_conn
        if conn is None or self._closed or limit < 1:
            return
        with self._read_lock:
            try:
                rows = conn.execute(
                    "SELECT key, fmt, checksum, payload FROM records "
                    "WHERE kind=? AND closure=? ORDER BY rowid DESC LIMIT ?",
                    (KIND_MINIMIZATION, closure_digest, limit),
                ).fetchall()
            except sqlite3.Error:
                return
        for key, fmt, checksum, payload in rows:
            if fmt != STORE_FORMAT:
                self.stats.version_mismatches += 1
                continue
            if not isinstance(payload, bytes) or _checksum(payload) != checksum:
                self.stats.corrupt_records += 1
                self._discard(KIND_MINIMIZATION, key, closure_digest)
                continue
            try:
                obj = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - corruption, skip
                self.stats.corrupt_records += 1
                self._discard(KIND_MINIMIZATION, key, closure_digest)
                continue
            if not isinstance(obj, tuple) or len(obj) != 3:
                self.stats.corrupt_records += 1
                continue
            self.stats.warm_loaded += 1
            yield key, obj[0], obj[1], obj[2]

    # ------------------------------------------------------------------
    # Compaction / growth bound
    # ------------------------------------------------------------------

    def compact(self, max_records: Optional[int] = None) -> None:
        """Prune oldest records beyond the bound, checkpoint the WAL, and
        vacuum. Runs on the writer thread (single-writer rule); blocks
        until done. The ``store.compact`` fault point fires mid-
        transaction, so a killed compaction rolls back cleanly."""
        if self._closed:
            return
        self._queue.put(("compact", max_records))
        self.flush(timeout=60.0)

    # ------------------------------------------------------------------
    # The writer thread
    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        conn = self._connect(self.path)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            pending: list = []
            barriers: list[threading.Event] = []
            while True:
                timeout = self.flush_interval if pending else None
                try:
                    message = self._queue.get(timeout=timeout)
                except queue_module.Empty:
                    message = None  # flush interval elapsed: commit
                stop = message is _WRITER_STOP
                if message is not None and not stop:
                    if message[0] == "barrier":
                        barriers.append(message[1])
                    elif message[0] == "compact":
                        self._commit(conn, pending, barriers)
                        pending, barriers = [], []
                        self._compact(conn, message[1])
                        continue
                    else:
                        pending.append(message)
                        if len(pending) < self.batch_size and not stop:
                            continue
                self._commit(conn, pending, barriers)
                pending, barriers = [], []
                if stop:
                    return
        finally:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover
                pass

    def _commit(self, conn: sqlite3.Connection, pending, barriers) -> None:
        """Commit one write-behind batch in a single transaction."""
        try:
            if pending:
                fault = (
                    self.injector.draw("store.write")
                    if self.injector is not None
                    else None
                )
                if fault is not None and fault.kind == "slow":
                    import time as _time

                    _time.sleep(fault.delay)
                if fault is not None and fault.kind == "fail":
                    # An injected write failure: the whole batch is
                    # dropped — degradation (future misses), not an error.
                    self.stats.write_failures += 1
                else:
                    self._apply_batch(conn, pending)
        except sqlite3.Error:
            self.stats.write_failures += 1
            try:
                conn.rollback()
            except sqlite3.Error:  # pragma: no cover
                pass
        finally:
            for barrier in barriers:
                barrier.set()

    def _tamper(self, obj: object) -> object:
        """Arm the ``store.tamper`` fault point for one ``min`` payload.

        When the fault fires, the replay recipe is mutated *before*
        serialization — the committed record carries a correct checksum
        over wrong bytes, so only the certification layer
        (:mod:`repro.certify`) can catch it. ``drop`` removes the last
        recorded elimination (the replayed answer is equivalent but not
        minimal); ``retype`` corrupts the last pair's node type.
        """
        if self.injector is None:
            return obj
        fault = self.injector.draw("store.tamper")
        if fault is None or not isinstance(obj, tuple) or len(obj) != 3:
            return obj
        pattern, eliminated, certificate = obj
        eliminated = list(eliminated)
        if not eliminated:
            return obj
        if fault.kind == "drop":
            eliminated = eliminated[:-1]
        else:  # "retype"
            node_id, node_type = eliminated[-1]
            eliminated[-1] = (node_id, f"{node_type}~tampered")
        return (pattern, eliminated, certificate)

    def _apply_batch(self, conn: sqlite3.Connection, pending) -> None:
        written = 0
        for message in pending:
            op = message[0]
            if op == "put":
                _, kind, key, closure, obj = message
                if kind == KIND_MINIMIZATION:
                    obj = self._tamper(obj)
                try:
                    payload, checksum = _encode(obj)
                except Exception:  # noqa: BLE001 - unpicklable: drop
                    self.stats.write_failures += 1
                    continue
                conn.execute(
                    "INSERT OR REPLACE INTO records "
                    "(kind, key, closure, fmt, checksum, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (kind, key, closure, STORE_FORMAT, checksum, payload),
                )
                written += 1
            elif op == "delete":
                _, kind, key, closure = message
                conn.execute(
                    "DELETE FROM records WHERE kind=? AND key=? AND closure=?",
                    (kind, key, closure),
                )
        self._prune(conn)
        conn.commit()
        if written:
            self.stats.writes += written
            self.stats.write_batches += 1

    def _prune(self, conn: sqlite3.Connection) -> None:
        """Enforce ``max_records`` oldest-first (part of the commit
        transaction, so a crash can't half-prune)."""
        (total,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        if total <= self.max_records:
            return
        excess = total - self.max_records
        conn.execute(
            "DELETE FROM records WHERE rowid IN "
            "(SELECT rowid FROM records ORDER BY rowid ASC LIMIT ?)",
            (excess,),
        )
        self.stats.pruned += excess

    def _compact(self, conn: sqlite3.Connection, max_records: Optional[int]) -> None:
        """One compaction pass: prune, (fault point), commit, checkpoint."""
        bound = max_records if max_records is not None else self.max_records
        try:
            (total,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
            excess = max(0, total - bound)
            if excess:
                conn.execute(
                    "DELETE FROM records WHERE rowid IN "
                    "(SELECT rowid FROM records ORDER BY rowid ASC LIMIT ?)",
                    (excess,),
                )
            fault = (
                self.injector.draw("store.compact")
                if self.injector is not None
                else None
            )
            if fault is not None and fault.kind == "kill":
                # Chaos: die mid-transaction. The uncommitted delete
                # rolls back; the next open recovers the WAL and serves
                # the pre-compaction records byte-identically.
                os.kill(os.getpid(), signal.SIGKILL)
            if fault is not None and fault.kind == "fail":
                conn.rollback()
                self.stats.compact_failures += 1
                return
            conn.commit()
            if excess:
                self.stats.pruned += excess
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            self.stats.compactions += 1
        except sqlite3.Error:
            self.stats.compact_failures += 1
            try:
                conn.rollback()
            except sqlite3.Error:  # pragma: no cover
                pass
