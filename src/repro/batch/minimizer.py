"""Workload-level minimization: closure-once, memoization, worker pool.

A `repro-bench`-scale run minimizes hundreds of generated queries against
one constraint repository. Doing that with a ``for q in workload:
minimize(q, ics)`` loop repeats three kinds of work:

1. **Closure** — every :func:`~repro.core.pipeline.minimize` call
   re-closes the constraint set. :class:`BatchMinimizer` closes it once
   at construction (sound because the closure depends only on the
   repository, never on the query — see DESIGN.md).
2. **Isomorphic duplicates** — workload generators (and real query logs)
   repeat structurally identical queries under renamed node ids and
   shuffled sibling order. A :func:`~repro.core.fingerprint.fingerprint`
   keyed cache minimizes one representative per structure and *replays*
   the recorded elimination on every duplicate through the
   document-order-canonical :func:`~repro.core.fingerprint.isomorphism`,
   reproducing the serial result exactly.
3. **Single-threaded dispatch** — distinct queries are independent, so
   with ``jobs>1`` they fan out over a process pool
   (:func:`~repro.batch.executor.process_map`), with results restored
   to input order. The pool is built on the first batch that needs it
   and lives until :meth:`BatchMinimizer.close`; the closed repository
   is pickled once, then, and shipped to each worker through the pool
   initializer. Batches that run in the calling process minimize
   against the minimizer's own closed repository and pickle nothing.

The contract, verified by the differential tests: for every ``jobs``
setting, with or without memoization, :meth:`BatchMinimizer.minimize_all`
produces exactly the patterns the serial per-query loop produces, in
input order.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..constraints.closure import closure
from ..constraints.model import IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..core.fingerprint import fingerprint, isomorphism, subtree_keys
from ..core.images import ImagesStats
from ..core.pattern import TreePattern
from ..core.pipeline import MinimizeResult, minimize
from ..errors import InvalidPatternError
from ..obs import Stats
from .executor import ExecutorStats, WorkerPool, process_map, resolve_jobs, use_pool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports batch)
    from ..api import MinimizeOptions
    from ..resilience.faults import FaultInjector

__all__ = [
    "BatchItemResult",
    "BatchResult",
    "BatchStats",
    "BatchMinimizer",
    "minimize_batch",
]


@dataclass
class BatchItemResult:
    """One workload entry's outcome.

    Attributes
    ----------
    index:
        Position of the query in the input workload.
    pattern:
        The minimized query — identical to what the serial
        :func:`~repro.core.pipeline.minimize` loop would produce.
    fingerprint:
        The input's structural fingerprint (the memoization key).
    cache_hit:
        True when the item was replayed from a memoized representative
        instead of being minimized from scratch.
    eliminated:
        ``(node_id, node_type)`` pairs in elimination order, in *this*
        query's node ids (mapped through the isomorphism on cache hits).
    input_size:
        Node count of the input query.
    result:
        The full per-stage :class:`~repro.core.pipeline.MinimizeResult`
        for representatives; ``None`` for cache hits.
    certificate:
        The witness :class:`~repro.certify.Certificate` proving this
        answer (only under ``MinimizeOptions(certify=True)``), in *this*
        query's node ids — cache hits carry the representative's
        certificate remapped through the isomorphism.
    """

    index: int
    pattern: TreePattern
    fingerprint: str
    cache_hit: bool
    eliminated: list[tuple[int, str]] = field(default_factory=list)
    input_size: int = 0
    result: Optional[MinimizeResult] = None
    certificate: Optional[object] = None

    @property
    def removed_count(self) -> int:
        """Number of nodes eliminated."""
        return len(self.eliminated)


@dataclass
class BatchStats(Stats):
    """Counters of the batch layer: one :meth:`BatchMinimizer.minimize_all`
    run, or a :class:`repro.api.Session`'s lifetime — the session adds
    every run's stats, its sampled audits and its constraint updates
    into one instance."""

    ratios = ("hit_rate",)

    queries: int = 0
    distinct: int = 0
    cache_hits: int = 0
    #: Certification/audit pipeline counters (``certified`` and the
    #: replay checks under ``certify=True`` only): answers served with a
    #: freshly *verified* certificate; answers re-verified by the
    #: session's sampling auditor (:meth:`repro.api.Session.audit_result`);
    #: cached records or served answers whose proof failed (each is also
    #: a quarantined record — the record is deleted, never served again);
    #: transparent cold recomputations that replaced a quarantined
    #: record; cache records skipped because they carried no certificate
    #: to verify (recomputed, not quarantined).
    certified: int = 0
    audited: int = 0
    audit_failures: int = 0
    quarantined_records: int = 0
    recomputed_after_quarantine: int = 0
    uncertified_cache_skips: int = 0
    #: Live constraint updates applied to the session default
    #: (:meth:`repro.api.Session.update_constraints`), and the replay-memo
    #: entries they invalidated.
    ic_updates: int = 0
    closure_invalidations: int = 0
    closure_seconds: float = 0.0
    fingerprint_seconds: float = 0.0
    minimize_seconds: float = 0.0
    replay_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the fingerprint cache."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across all phases (closure included)."""
        return (
            self.closure_seconds
            + self.fingerprint_seconds
            + self.minimize_seconds
            + self.replay_seconds
        )


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchMinimizer.minimize_all` call: the items,
    the batch layer's counters, the images-engine counters summed over
    the representatives minimized (cache hits do no engine work, so they
    contribute nothing — that is the point), and the executor's."""

    items: list[BatchItemResult]
    stats: BatchStats
    images_stats: ImagesStats
    executor_stats: ExecutorStats

    def patterns(self) -> list[TreePattern]:
        """The minimized queries, in input order."""
        return [item.pattern for item in self.items]

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class _MemoEntry:
    """A memoized representative: its input structure plus the recorded
    elimination (CDM first, then ACIM — the pipeline's order).

    This is all the replay path (:meth:`BatchMinimizer._replay`) reads,
    so a disk-served representative replays exactly like a memory-born
    one, and no entry keeps the representative's full per-stage
    :class:`~repro.core.pipeline.MinimizeResult` alive."""

    input_pattern: TreePattern
    eliminated: list[tuple[int, str]]
    #: Witness certificate for the representative (in its own node ids),
    #: present when the entry was produced or loaded under
    #: ``certify=True``; ``None`` for legacy/uncertified records.
    certificate: Optional[object] = None


# Worker-process globals, set once per worker by `_init_worker` (the
# closed repository is shipped a single time instead of per task). Only
# pool workers read them; the calling process never runs `_init_worker`.
# Minimization never consults the containment-oracle cache, so no cache
# state crosses the process boundary.
_WORKER_REPO: Optional[ConstraintRepository] = None
_WORKER_CERTIFY: bool = False


def _init_worker(repo_bytes: bytes, certify: bool) -> None:
    global _WORKER_REPO, _WORKER_CERTIFY
    _WORKER_REPO = pickle.loads(repo_bytes)
    _WORKER_CERTIFY = certify


def _minimize_one(pattern: TreePattern) -> MinimizeResult:
    return minimize(pattern, _WORKER_REPO, certify=_WORKER_CERTIFY)


def _result_eliminated(result: MinimizeResult) -> list[tuple[int, str]]:
    """The pipeline's elimination record as ``(id, type)`` pairs, CDM
    deletions first (the order they actually happened in)."""
    out: list[tuple[int, str]] = []
    if result.cdm is not None:
        out.extend((node_id, node_type) for node_id, node_type, _ in result.cdm.eliminated)
    if result.acim is not None:
        out.extend(result.acim.eliminated)
    return out


class BatchMinimizer:
    """Minimize whole workloads of queries under one constraint repository.

    Parameters
    ----------
    constraints:
        The shared integrity constraints. The logical closure is computed
        **once**, here, and reused for every query (and shipped once to
        every worker process).
    options:
        A :class:`repro.api.MinimizeOptions` carrying the whole
        configuration (jobs, memoize, certify, ...); ``None`` means all
        defaults. This is the **only** configuration path.

    Every query runs through the CDM-then-ACIM pipeline
    (:func:`~repro.core.pipeline.minimize`, Theorem 5.3).

    With ``jobs != 1`` the minimizer builds one
    :class:`~repro.batch.executor.WorkerPool` on its first pooled batch
    and keeps it until :meth:`close` (it is a context manager).
    """

    def __init__(
        self,
        constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
        options: "Optional[MinimizeOptions]" = None,
        *,
        injector: "Optional[FaultInjector]" = None,
        store: Optional[object] = None,
    ) -> None:
        if options is None:
            from ..api import MinimizeOptions as _MinimizeOptions

            options = _MinimizeOptions()
        self._jobs_spec = options.jobs
        self.jobs = resolve_jobs(options.jobs)
        self.memoize = options.memoize
        self.watchdog = options.watchdog
        self.certify = getattr(options, "certify", False)
        fault_plan = options.fault_plan
        if injector is None and fault_plan is not None and fault_plan:
            from ..resilience.faults import FaultInjector as _FaultInjector

            injector = _FaultInjector(fault_plan)
        #: The shared fault injector (usually owned by the Session so
        #: every layer reports into one fired-events log); ``None`` when
        #: no fault plan is active.
        self.injector = injector
        self.closure_seconds = 0.0

        repo = coerce_repository(constraints)
        if len(repo) and not repo.is_closed:
            start = time.perf_counter()
            repo = closure(repo)
            self.closure_seconds = time.perf_counter() - start
        self.repository = repo
        self._cache: dict[str, _MemoEntry] = {}
        #: Optional persistent backend (duck-typed
        #: :class:`repro.store.PersistentStore`). Replay records are
        #: keyed by the digest of the *closed* repository, so an IC
        #: change — new closure, new digest — invalidates exactly the
        #: proofs it could affect.
        self._store = store
        self.closure_digest = repo.digest()
        if self._store is not None and self.memoize:
            self._warm_start()
        #: The worker pool, built by the first pooled batch.
        self._pool: Optional[WorkerPool] = None

    def close(self) -> None:
        """Release the worker pool, if one was built (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "BatchMinimizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def minimize_all(self, patterns: Sequence[TreePattern]) -> BatchResult:
        """Minimize every query; results in input order.

        Queries sharing a fingerprint with an earlier query (or with a
        previous call's, the cache is persistent) are replayed from the
        memoized representative; the remaining distinct queries run
        serially or across the worker pool.
        """
        patterns = list(patterns)
        stats = BatchStats(queries=len(patterns), closure_seconds=self.closure_seconds)
        images_stats, executor_stats = ImagesStats(), ExecutorStats()
        if self.injector is not None:
            fault = self.injector.draw("batch.run")
            if fault is not None and fault.kind == "slow":
                time.sleep(fault.delay)

        start = time.perf_counter()
        # Unmemoized key tables: a memo would stay on the caller's
        # patterns for as long as the caller keeps them. Replays reuse
        # the tables for the isomorphism.
        tables = [subtree_keys(p, memoize=False) for p in patterns]
        prints = [fingerprint(p, keys=keys) for p, keys in zip(patterns, tables)]
        fresh: list[int] = []  # indexes to actually minimize
        seen: dict[str, int] = {}
        for index, fp in enumerate(prints):
            if self.memoize and (fp in self._cache or fp in seen):
                continue
            if (
                self.memoize
                and self._store is not None
                and self._load_from_store(fp)
            ):
                continue  # disk-served: the replay path handles it
            seen[fp] = index
            fresh.append(index)
        stats.fingerprint_seconds = time.perf_counter() - start
        stats.distinct = len({fp for fp in prints})

        start = time.perf_counter()
        todo = [patterns[i] for i in fresh]
        if use_pool(self._jobs_spec, len(todo)):
            results = process_map(
                _minimize_one,
                todo,
                pool=self._worker_pool(),
                local=self._minimize_here,
                injector=self.injector,
                watchdog=self.watchdog,
                stats=executor_stats,
            )
        else:
            results = [self._minimize_here(pattern) for pattern in todo]
        stats.minimize_seconds = time.perf_counter() - start

        by_index: dict[int, MinimizeResult] = dict(zip(fresh, results))
        # One record per fresh answer; the memo keeps its own list (the
        # cache.poison fault point edits it) of the same tuples.
        recorded = {index: _result_eliminated(result) for index, result in by_index.items()}
        for index, result in by_index.items():
            if result.acim is not None:
                images_stats.add(result.acim.images_stats)
            fp = prints[index]
            if self.certify:
                self._check_fresh(result, patterns[index], stats, tables[index])
            if self.memoize and fp not in self._cache:
                entry = _MemoEntry(
                    input_pattern=patterns[index].copy(),
                    eliminated=list(recorded[index]),
                    certificate=result.certificate,
                )
                self._cache[fp] = entry
                if self._store is not None:
                    # Write-behind the memo's private snapshot (never
                    # mutated after this point, so the async pickling
                    # can't race the caller).
                    self._store.put_minimization(
                        fp,
                        self.closure_digest,
                        entry.input_pattern,
                        entry.eliminated,
                        entry.certificate,
                    )
                # The cache.poison fault point fires *after* the store
                # write (put_minimization snapshots the recipe
                # synchronously), so it corrupts exactly the in-memory
                # memo entry — the adversary the replay-time certificate
                # check exists to catch.
                if self.injector is not None:
                    self._poison(entry)

        start = time.perf_counter()
        items: list[BatchItemResult] = []
        for index, (pattern, fp) in enumerate(zip(patterns, prints)):
            if index in by_index:
                result = by_index[index]
                items.append(
                    BatchItemResult(
                        index=index,
                        pattern=result.pattern,
                        fingerprint=fp,
                        cache_hit=False,
                        eliminated=recorded[index],
                        input_size=pattern.size,
                        result=result,
                        certificate=result.certificate,
                    )
                )
                continue
            stats.cache_hits += 1
            items.append(self._replay(index, pattern, fp, stats, keys=tables[index]))
        stats.replay_seconds = time.perf_counter() - start
        return BatchResult(items, stats, images_stats, executor_stats)

    def minimize(self, pattern: TreePattern) -> BatchItemResult:
        """Minimize one query through the batch cache (serial path)."""
        return self.minimize_all([pattern]).items[0]

    def _minimize_here(self, pattern: TreePattern) -> MinimizeResult:
        """Minimize one query in the calling process, against this
        minimizer's own closed repository."""
        return minimize(pattern, self.repository, certify=self.certify)

    def _worker_pool(self) -> WorkerPool:
        """The pool pooled batches run on, built on first use: the closed
        repository is pickled here, once per pool."""
        if self._pool is None:
            self._pool = WorkerPool(
                self.jobs,
                initializer=_init_worker,
                initargs=(pickle.dumps(self.repository), self.certify),
            )
        return self._pool

    @property
    def cache_size(self) -> int:
        """Number of memoized representative structures."""
        return len(self._cache)

    def quarantine(self, fp: str) -> None:
        """Drop one fingerprint's cached answer everywhere this backend
        caches it: the in-memory replay memo and (when attached) the
        persistent store. The audit pipeline's failure path — the next
        request for the structure recomputes cold."""
        self._cache.pop(fp, None)
        if self._store is not None:
            self._store.quarantine(fp, self.closure_digest)

    # ------------------------------------------------------------------
    # Persistent-store integration
    # ------------------------------------------------------------------

    def _warm_start(self) -> None:
        """Preload the replay memo from the persistent store (boot-time
        warm start): the most recent representatives recorded under this
        repository's closure digest become memo entries, so the first
        batch after a restart replays structures the previous process
        already solved."""
        for fp, pattern, eliminated, certificate in self._store.warm_minimizations(
            self.closure_digest
        ):
            if fp not in self._cache:
                self._cache[fp] = _MemoEntry(
                    input_pattern=pattern,
                    eliminated=list(eliminated),
                    certificate=certificate,
                )

    def _load_from_store(self, fp: str) -> bool:
        """Consult the persistent store for one fingerprint missed by the
        in-memory memo; a disk hit becomes a memo entry (and the batch
        serves it through the ordinary replay path, which re-checks the
        certificate under ``certify=True`` before anything is served)."""
        record = self._store.get_minimization(fp, self.closure_digest)
        if record is None:
            return False
        pattern, eliminated, certificate = record
        self._cache[fp] = _MemoEntry(
            input_pattern=pattern,
            eliminated=list(eliminated),
            certificate=certificate,
        )
        return True

    # ------------------------------------------------------------------
    # Certification / audit pipeline
    # ------------------------------------------------------------------

    def _check_fresh(
        self,
        result: MinimizeResult,
        pattern: TreePattern,
        stats: BatchStats,
        keys: dict[int, str],
    ) -> None:
        """Verify a freshly minimized answer's own certificate (``keys``
        is the pattern's :func:`~repro.core.fingerprint.subtree_keys`
        table, built by the batch).

        A failure here is an engine/checker disagreement about a proof
        built moments ago — a bug, not a data-integrity event — so it
        raises :class:`~repro.errors.CertificationError` instead of
        degrading.
        """
        from ..certify import check_certificate
        from ..errors import CertificationError

        if result.certificate is None:  # pragma: no cover - defensive
            raise CertificationError(
                "certify=True but the pipeline returned no certificate"
            )
        verdict = check_certificate(
            result.certificate,
            pattern,
            self.repository,
            eliminated=_result_eliminated(result),
            keys=keys,
        )
        if not verdict.ok:  # pragma: no cover - engine/checker bug
            raise CertificationError(
                f"fresh minimization failed its own certificate check: "
                f"{verdict.reason}",
                reason=verdict.reason,
                step_index=verdict.step_index,
            )
        stats.certified += 1

    def _audit_entry(self, fp: str, entry: _MemoEntry, stats: BatchStats) -> bool:
        """Re-check a cached record's certificate before serving a replay.

        Returns True when the record is proven and may be served. A
        record without a certificate is *unproven* (recomputed, not
        quarantined); a record whose certificate fails the independent
        checker is quarantined — dropped from the memo, deleted from the
        store, counted — and never served.
        """
        from ..certify import check_certificate

        if entry.certificate is None:
            stats.uncertified_cache_skips += 1
            return False
        verdict = check_certificate(
            entry.certificate,
            entry.input_pattern,
            self.repository,
            eliminated=entry.eliminated,
            # Memoized on the memo's own copy: every replay re-checks it.
            keys=subtree_keys(entry.input_pattern),
        )
        if verdict.ok:
            stats.certified += 1
            return True
        stats.audit_failures += 1
        stats.quarantined_records += 1
        self.quarantine(fp)
        return False

    def _poison(self, entry: _MemoEntry) -> None:
        """Arm the ``cache.poison`` fault point for one fresh memo insert
        (mutates the in-memory replay recipe; see the faults table)."""
        fault = self.injector.draw("cache.poison")
        if fault is None or not entry.eliminated:
            return
        if fault.kind == "drop":
            entry.eliminated.pop()
        else:  # "retype"
            node_id, node_type = entry.eliminated[-1]
            entry.eliminated[-1] = (node_id, f"{node_type}~poisoned")

    def _recompute(
        self,
        index: int,
        pattern: TreePattern,
        fp: str,
        stats: BatchStats,
        keys: dict[int, str],
    ) -> BatchItemResult:
        """Cold-path recovery: minimize from scratch, re-certify, refresh
        the memo and store, and serve the fresh answer."""
        result = self._minimize_here(pattern)
        if self.certify:
            self._check_fresh(result, pattern, stats, keys)
        if self.memoize:
            entry = _MemoEntry(
                input_pattern=pattern.copy(),
                eliminated=_result_eliminated(result),
                certificate=result.certificate,
            )
            self._cache[fp] = entry
            if self._store is not None:
                self._store.put_minimization(
                    fp,
                    self.closure_digest,
                    entry.input_pattern,
                    entry.eliminated,
                    entry.certificate,
                )
        return BatchItemResult(
            index=index,
            pattern=result.pattern,
            fingerprint=fp,
            cache_hit=False,
            eliminated=_result_eliminated(result),
            input_size=pattern.size,
            result=result,
            certificate=result.certificate,
        )

    # ------------------------------------------------------------------
    # Memoization replay
    # ------------------------------------------------------------------

    def _replay(
        self,
        index: int,
        pattern: TreePattern,
        fp: str,
        stats: BatchStats,
        *,
        keys: dict[int, str],
    ) -> BatchItemResult:
        """Reproduce the representative's elimination on an isomorphic
        duplicate by mapping the recorded deletions through the
        document-order-canonical isomorphism (``keys`` is the duplicate's
        :func:`~repro.core.fingerprint.subtree_keys` table).

        Under ``certify=True`` nothing cached is served unverified: the
        representative's certificate is re-checked first, and a missing
        or failing certificate routes through :meth:`_recompute` (with
        quarantine for the failing case)."""
        entry = self._cache[fp]
        if self.certify:
            quarantined_before = stats.quarantined_records
            if not self._audit_entry(fp, entry, stats):
                if stats.quarantined_records > quarantined_before:
                    stats.recomputed_after_quarantine += 1
                return self._recompute(index, pattern, fp, stats, keys)
        mapping = isomorphism(entry.input_pattern, pattern, keys_b=keys)
        if mapping is None:  # pragma: no cover - SHA-256 collision
            result = self._minimize_here(pattern)
            return BatchItemResult(
                index=index,
                pattern=result.pattern,
                fingerprint=fp,
                cache_hit=False,
                eliminated=_result_eliminated(result),
                input_size=pattern.size,
                result=result,
                certificate=result.certificate,
            )
        minimized = pattern.copy()
        eliminated: list[tuple[int, str]] = []
        for rep_id, node_type in entry.eliminated:
            node = minimized.node(mapping[rep_id])
            if not node.is_leaf:  # pragma: no cover - defensive
                raise InvalidPatternError(
                    "memoization replay out of order: non-leaf deletion"
                )
            minimized.delete_leaf(node)
            eliminated.append((mapping[rep_id], node_type))
        certificate = None
        if self.certify and entry.certificate is not None:
            certificate = entry.certificate.remapped(mapping)
        return BatchItemResult(
            index=index,
            pattern=minimized,
            fingerprint=fp,
            cache_hit=True,
            eliminated=eliminated,
            input_size=pattern.size,
            certificate=certificate,
        )


def minimize_batch(
    patterns: Sequence[TreePattern],
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    options: "Optional[MinimizeOptions]" = None,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchMinimizer`.

    ``minimize_batch(patterns, constraints, MinimizeOptions(...))`` (or a
    long-lived :class:`repro.api.Session`) is the only configuration
    path.
    """
    with BatchMinimizer(constraints, options) as minimizer:
        return minimizer.minimize_all(patterns)
