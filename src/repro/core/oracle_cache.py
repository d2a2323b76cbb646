"""Process-wide containment-oracle cache, keyed by pattern content.

The containment DP of :mod:`repro.core.containment` memoizes two
sub-results *within* one :func:`~repro.core.containment.mapping_targets`
run, but the whole table dies with the call. Real workloads (and the
paper's generators) are dominated by structurally repeated twigs —
isomorphic queries under renamed node ids and shuffled sibling order —
so the same (source, target) *content* is checked over and over across
queries, batches, and redundancy sweeps.

:class:`ContainmentOracleCache` closes that gap: it keys the full
``mapping_targets`` DP table on the canonical content fingerprints of
the (source, target) pair (:func:`repro.core.fingerprint.fingerprint`)
and, on a hit, *remaps* the cached table onto the caller's node ids
through the document-order-canonical
:func:`repro.core.fingerprint.isomorphism`. The admissible-target table
is a pure function of pattern structure, and structure is exactly what
the fingerprint captures, so the remapped table is **byte-for-byte
equal** to what the DP would have computed — differential tests pin
this. A fingerprint collision (astronomically unlikely, but the remap
would be unsound) is detected by the isomorphism returning ``None`` and
degrades to an ordinary miss.

A single process-wide instance (:func:`global_cache`) backs
``mapping_targets`` by default, so repeated oracle calls — equivalence
checks in tests, the brute-force minimizer, containment-under-ICs, and
cross-query workloads — share one table store. Disable it process-wide
with :func:`set_global_enabled`, per call with ``cache=None``, or for
the calling thread with :func:`oracle_cache_disabled` (the scope behind
``MinimizeOptions(oracle_cache=False)`` and ``repro-serve
--no-oracle-cache``). The cache is deliberately *not*
picklable state: worker processes of the batch backend simply rebuild
their own global instance on first use, which keeps
:class:`~repro.batch.minimizer.BatchMinimizer` composition trivial.

Entries are LRU-evicted beyond ``maxsize``; every transition is counted
in :class:`OracleCacheStats` (hits, misses, remapped nodes, stores,
evictions, collisions) for the observability surfaces:
``Session.counters()``, the service's ``stats`` op, and the CLI
``--explain`` output.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from ..obs import Stats
from .fingerprint import fingerprint, isomorphism, subtree_keys
from .pattern import TreePattern

__all__ = [
    "OracleCacheStats",
    "ContainmentOracleCache",
    "global_cache",
    "global_enabled",
    "set_global_enabled",
    "set_global_store",
    "global_store",
    "set_global_store_audit",
    "reset_global_cache",
    "oracle_cache_disabled",
]


@dataclass
class OracleCacheStats(Stats):
    """Observability counters for one :class:`ContainmentOracleCache`,
    flattened under ``oracle_cache_``.

    ``hits``/``misses`` count lookups; ``remapped_nodes`` totals the DP
    table rows translated onto caller node ids on hits (the work a hit
    *does* pay, versus the full DP it avoids); ``collisions`` counts
    fingerprint matches whose isomorphism check failed (each is also a
    miss); ``stores``/``evictions`` track the entry population.
    ``store_hits``/``store_misses`` count consultations of the attached
    persistent backend on in-memory misses (a ``store_hit`` is also a
    ``hit`` — the DP was avoided, just from disk).
    """

    prefix = "oracle_cache_"
    ratios = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    remapped_nodes: int = 0
    stores: int = 0
    evictions: int = 0
    collisions: int = 0
    store_hits: int = 0
    store_misses: int = 0
    #: Store-loaded DP tables rejected by the independent checker
    #: (:func:`repro.certify.check_oracle_table`) while store-load
    #: auditing is on. Each is also a ``store_miss`` — the row is
    #: quarantined and the caller recomputes.
    store_audit_failures: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    """One cached DP table, in the representative pair's node-id space.

    The subtree-key tables are snapshotted alongside the patterns so a
    hit never re-canonicalizes the stored side of the isomorphism."""

    source: TreePattern
    target: TreePattern
    source_keys: dict[int, str]
    target_keys: dict[int, str]
    table: dict[int, frozenset[int]]


class ContainmentOracleCache:
    """Cross-query cache of ``mapping_targets`` DP tables.

    Thread-safe (one lock around the entry store); see the module
    docstring for the keying/remap contract.

    Parameters
    ----------
    maxsize:
        Entry cap; least-recently-used entries are evicted beyond it.
    stats:
        Optional shared :class:`OracleCacheStats` to accumulate into.
    store:
        Optional persistent backend (duck-typed
        :class:`repro.store.PersistentStore`): consulted on in-memory
        miss via ``get_oracle`` and written behind via ``put_oracle``.
    audit_store_loads:
        When true, every DP table loaded from the persistent backend is
        re-validated by the independent checker
        (:func:`repro.certify.check_oracle_table`) before it is served;
        a failing table is quarantined from the store and treated as a
        miss. Costs about one DP recomputation per *disk load* (never
        on in-memory hits), so it is wired from
        ``MinimizeOptions(certify=True)`` rather than being on by
        default.
    """

    def __init__(
        self,
        maxsize: int = 512,
        stats: Optional[OracleCacheStats] = None,
        store: Optional[object] = None,
        audit_store_loads: bool = False,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.audit_store_loads = audit_store_loads
        self.stats = stats if stats is not None else OracleCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, str], _Entry]" = OrderedDict()
        self._store = store
        # Per-thread hand-off of the subtree-key tables from a missed
        # lookup to the store() that follows it (the mapping_targets
        # miss path), so the pair is canonicalized once, not twice. The
        # slot holds *strong references* to the looked-up patterns plus
        # their ``_version`` stamps: store() validates the hand-off by
        # identity (``is``) and version, never by ``id()`` — a stale slot
        # (a miss whose caller never stored: an exception, a disabled
        # scope) can therefore never be matched against a different or
        # since-mutated pattern, even when CPython reuses object ids
        # after a GC.
        self._pending = threading.local()

    def attach_store(self, store: Optional[object]) -> None:
        """Attach (or detach, with ``None``) the persistent backend."""
        self._store = store

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def lookup(
        self, source: TreePattern, target: TreePattern
    ) -> Optional[dict[int, set[int]]]:
        """The cached DP table for ``(source, target)``, remapped onto the
        caller's node ids — or ``None`` on a miss.

        The returned dict is freshly built (caller-owned): node ids of
        ``source`` map to sets of node ids of ``target``, exactly as
        :func:`~repro.core.containment.mapping_targets` would return.
        """
        source_keys = subtree_keys(source)
        target_keys = subtree_keys(target)
        key = (
            fingerprint(source, keys=source_keys),
            fingerprint(target, keys=target_keys),
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None and self._store is not None:
            entry = self._load_from_store(key)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            self._pending.value = (
                source,
                target,
                source._version,
                target._version,
                source_keys,
                target_keys,
            )
            return None
        source_map = isomorphism(
            entry.source, source, keys_a=entry.source_keys, keys_b=source_keys
        )
        target_map = isomorphism(
            entry.target, target, keys_a=entry.target_keys, keys_b=target_keys
        )
        if source_map is None or target_map is None:
            # SHA-256 collision: the stored pair is not isomorphic to the
            # caller's. Refuse the entry — the caller recomputes.
            with self._lock:
                self.stats.collisions += 1
                self.stats.misses += 1
            self._pending.value = (
                source,
                target,
                source._version,
                target._version,
                source_keys,
                target_keys,
            )
            return None
        self._pending.value = None
        with self._lock:
            self.stats.hits += 1
            self.stats.remapped_nodes += len(entry.table)
        return {
            source_map[v]: {target_map[u] for u in targets}
            for v, targets in entry.table.items()
        }

    def _load_from_store(self, key: tuple[str, str]) -> Optional[_Entry]:
        """Consult the persistent backend for ``key`` on an in-memory
        miss; a loaded entry is inserted into the in-memory LRU."""
        record = self._store.get_oracle(key[0], key[1])
        if record is None:
            with self._lock:
                self.stats.store_misses += 1
            return None
        try:
            src, tgt, table = record
            entry = _Entry(
                source=src,
                target=tgt,
                source_keys=subtree_keys(src),
                target_keys=subtree_keys(tgt),
                table={v: frozenset(targets) for v, targets in table.items()},
            )
        except Exception:  # noqa: BLE001 - malformed record: treat as miss
            with self._lock:
                self.stats.store_misses += 1
            return None
        if self.audit_store_loads and not self._audit_loaded(key, entry):
            return None
        with self._lock:
            self.stats.store_hits += 1
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
        return entry

    def _audit_loaded(self, key: tuple[str, str], entry: _Entry) -> bool:
        """Re-validate one store-loaded DP table with the independent
        checker; a rejected table is quarantined and treated as a miss.

        Disk rows survive process restarts, so a checksum-valid but
        semantically wrong table (the ``store.tamper`` threat model)
        would otherwise poison every future containment answer for this
        pair. The checker shares no code with the DP that built the
        table, so it cannot reproduce an engine bug either.
        """
        # Imported lazily: repro.certify is a leaf package, but keeping
        # the core → certify edge soft preserves the checker's
        # "independent of the engines" layering.
        from ..certify import check_oracle_table  # noqa: PLC0415

        try:
            verdict = check_oracle_table(entry.source, entry.target, entry.table)
        except Exception:  # noqa: BLE001 - malformed patterns: reject
            verdict = None
        if verdict:
            return True
        with self._lock:
            self.stats.store_audit_failures += 1
            self.stats.store_misses += 1
        quarantine = getattr(self._store, "quarantine_oracle", None)
        if quarantine is not None:
            quarantine(key[0], key[1])
        return False

    def store(
        self,
        source: TreePattern,
        target: TreePattern,
        table: dict[int, set[int]],
    ) -> None:
        """Record a freshly computed DP table for ``(source, target)``.

        The patterns are snapshotted (copied), so callers may go on
        mutating them — the minimizers delete leaves from patterns they
        just ran the oracle on.
        """
        pending = getattr(self._pending, "value", None)
        self._pending.value = None
        if (
            pending is not None
            and pending[0] is source
            and pending[1] is target
            and pending[2] == source._version
            and pending[3] == target._version
        ):
            # The keys computed by the missed lookup just before this
            # store: validated by object identity *and* mutation stamp,
            # so a stale slot (the caller of an earlier miss never
            # stored) or a since-mutated pattern falls through to a
            # fresh canonicalization instead of poisoning the entry.
            source_keys, target_keys = pending[4], pending[5]
        else:
            source_keys = subtree_keys(source)
            target_keys = subtree_keys(target)
        key = (
            fingerprint(source, keys=source_keys),
            fingerprint(target, keys=target_keys),
        )
        entry = _Entry(
            source=source.copy(),
            target=target.copy(),
            source_keys=source_keys,
            target_keys=target_keys,
            table={v: frozenset(targets) for v, targets in table.items()},
        )
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.stores += 1
        if self._store is not None:
            # Write-behind: the entry's private snapshots travel to disk,
            # so later mutation of the caller's patterns can't race the
            # serialization.
            self._store.put_oracle(
                key[0], key[1], entry.source, entry.target, entry.table
            )


# ---------------------------------------------------------------------------
# The process-wide instance
# ---------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_cache: Optional[ContainmentOracleCache] = None
_global_enabled: bool = True
#: Persistent backend attached to the process-wide cache. Kept at module
#: level (not only on the instance) so :func:`reset_global_cache` — the
#: restart simulation of tests and benchmarks — re-attaches it to the
#: fresh instance, exactly like a real process reboot re-opening the
#: same store file.
_global_store: Optional[object] = None
#: Whether the process-wide cache audits store-loaded tables with the
#: independent checker; module-level for the same restart-survival
#: reason as ``_global_store``.
_global_store_audit: bool = False
#: Nesting depth of active :func:`oracle_cache_disabled` scopes in the
#: current context: its thread, and the ``asyncio.to_thread`` work it
#: starts, which copies the context. The context manager counts instead
#: of flipping ``_global_enabled`` so nested scopes compose (re-entrant),
#: a scope in one thread leaves every other thread's cache on, and an
#: exception inside one scope can never leave the cache stuck off.
_disabled_depth: ContextVar[int] = ContextVar("oracle_cache_disabled_depth", default=0)


def global_cache() -> Optional[ContainmentOracleCache]:
    """The process-wide cache, created lazily — or ``None`` while the
    global cache is disabled (:func:`set_global_enabled` or an active
    :func:`oracle_cache_disabled` scope)."""
    global _global_cache
    if not global_enabled():
        return None
    if _global_cache is None:
        with _global_lock:
            if _global_cache is None:
                _global_cache = ContainmentOracleCache(
                    store=_global_store,
                    audit_store_loads=_global_store_audit,
                )
    return _global_cache


def global_store() -> Optional[object]:
    """The persistent backend attached to the process-wide cache."""
    return _global_store


def set_global_store(store: Optional[object]) -> None:
    """Attach (``None``: detach) a persistent backend to the process-wide
    cache — current instance and any future one created after a
    :func:`reset_global_cache`. Wired by :class:`repro.api.Session` when
    ``MinimizeOptions.store_path`` is set."""
    global _global_store
    with _global_lock:
        _global_store = store
        if _global_cache is not None:
            _global_cache.attach_store(store)


def set_global_store_audit(audit: bool) -> None:
    """Turn store-load auditing on/off for the process-wide cache —
    current instance and any future one created after a
    :func:`reset_global_cache`. Wired by :class:`repro.api.Session`
    when ``MinimizeOptions.certify`` is set."""
    global _global_store_audit
    with _global_lock:
        _global_store_audit = bool(audit)
        if _global_cache is not None:
            _global_cache.audit_store_loads = _global_store_audit


def global_enabled() -> bool:
    """Whether the process-wide containment-oracle cache is enabled.

    False while the ``set_global_enabled(False)`` switch is off **or**
    an :func:`oracle_cache_disabled` scope is active in the caller's
    context."""
    return _global_enabled and _disabled_depth.get() == 0


def set_global_enabled(enabled: bool) -> None:
    """Enable/disable the process-wide cache. Disabling does not drop
    existing entries; re-enabling resumes with the same store."""
    global _global_enabled
    _global_enabled = bool(enabled)


def reset_global_cache() -> None:
    """Replace the process-wide cache with a fresh (empty, zero-counter)
    instance. Used by tests and benchmarks to isolate measurements."""
    global _global_cache
    with _global_lock:
        _global_cache = None


@contextmanager
def oracle_cache_disabled() -> Iterator[None]:
    """Disable the process-wide cache for the caller — the uncached side
    of differential tests and benchmarks.

    The scope covers the calling thread and the ``asyncio.to_thread``
    work started inside it; every other thread keeps the cache. It is
    re-entrant and exception-safe: scopes nest through a per-context
    depth counter (the cache stays off until the outermost scope exits)
    and never mutate the process-wide :func:`set_global_enabled` switch,
    so overlapping scopes — e.g. a :class:`~repro.api.Session` with
    ``oracle_cache=False`` used inside a test that already disabled the
    cache — restore the previous state exactly, even when the body
    raises."""
    token = _disabled_depth.set(_disabled_depth.get() + 1)
    try:
        yield
    finally:
        _disabled_depth.reset(token)
