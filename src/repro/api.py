"""The unified front-door API: one configuration object, one session.

Before this module existed, every layer threaded its own keyword soup —
``minimize(..., use_cdm_prefilter=..., certify=...)``,
``BatchMinimizer(..., jobs=..., use_cdm_prefilter=...)`` — and the
CLIs, benchmarks, and the serving layer each re-invented the plumbing.
:class:`Session` collapses that into a single configuration path:

* :class:`MinimizeOptions` — one frozen dataclass capturing *all* the
  knobs (``oracle_cache``, ``jobs``, plus the batch-backend tuning
  fields);
* :class:`Session` — a facade owning the cache/jobs wiring:
  ``session.minimize(...)``, ``session.minimize_many(...)``,
  ``session.evaluate(...)``, ``session.equivalent(...)``. A session
  keeps one :class:`~repro.batch.minimizer.BatchMinimizer` per
  constraint repository, so repeated calls share the closed closure,
  the fingerprint memo, and (with ``jobs != 1``) a warm worker pool;
* :class:`QueryResult` — the one result shape shared by the library,
  both CLIs' ``--json`` output, and the service protocol
  (:mod:`repro.service`), with :meth:`QueryResult.to_json`.

Quickstart::

    from repro import Session, MinimizeOptions, parse_xpath

    with Session(MinimizeOptions(jobs=2)) as session:
        result = session.minimize(parse_xpath("a/b[c][c]"))
        print(result.summary())        # '4 -> 3 nodes ...'
        print(result.to_json()["minimized"])

Sessions honor ``oracle_cache=False`` by running :meth:`Session.equivalent`
inside the re-entrant
:func:`~repro.core.oracle_cache.oracle_cache_disabled` scope, which
covers the calling thread only — they never mutate the process-wide
switch, so concurrent sessions with different settings compose.
Equivalence is the only session call that consults that cache:
minimization and the certificate checker never do.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Optional, Sequence, Union

from .batch.evaluation import evaluate_batch
from .batch.executor import ExecutorStats
from .batch.minimizer import BatchMinimizer, BatchStats
from .constraints.model import IntegrityConstraint
from .constraints.repository import (
    ConstraintRepository,
    coerce_constraints,
    coerce_repository,
)
from .core.containment import ContainmentStats, equivalent as _equivalent
from .core.ic_containment import equivalent_under as _equivalent_under
from .core.images import ImagesStats
from .core.oracle_cache import (
    OracleCacheStats,
    global_cache,
    global_store,
    oracle_cache_disabled,
    set_global_store,
    set_global_store_audit,
)
from .core.pattern import TreePattern
from .core.pipeline import MinimizeResult
from .matching.evaluator import Database, evaluate as _evaluate
from .parsing.serializer import to_xpath
from .parsing.sexpr import to_sexpr
from .resilience.faults import FaultInjector, FaultPlan
from .store import PersistentStore, StoreStats

__all__ = [
    "ConstraintUpdateResult",
    "MinimizeOptions",
    "QueryResult",
    "Session",
]

#: Any constraint argument :func:`coerce_repository` accepts: a
#: repository, ``None``, notation strings, constraint objects, or
#: iterables mixing the last two.
Constraints = Union[
    ConstraintRepository, Iterable[Union[IntegrityConstraint, str]], str, None
]


@dataclass(frozen=True)
class MinimizeOptions:
    """Every configuration knob of the minimization stack, in one place.

    Minimization always runs CDM then ACIM
    (:func:`repro.core.pipeline.minimize`), the paper's Theorem 5.3
    configuration; ACIM alone gives the same query, slower (Figure 9(b)).

    Attributes
    ----------
    oracle_cache:
        ``True`` (default) lets :meth:`Session.equivalent` use the
        process-wide containment-oracle cache, subject to its global
        switch, and attaches a configured store behind it. ``False``
        runs equivalence inside an
        :func:`~repro.core.oracle_cache.oracle_cache_disabled` scope (the
        global switch is untouched) and leaves the store detached.
        Minimization and the certificate checker never consult the
        cache, so answers are identical either way.
    jobs:
        Worker processes for batch fan-out (``0`` = one per core;
        ``"auto"`` = one per core, but tiny workloads run serially to
        skip pool spin-up). A pool is built on the first batch that
        needs one and lives until the session closes.
    memoize:
        Replay isomorphic duplicates from the fingerprint memo.
    watchdog:
        Per-chunk wall-clock bound (seconds) on pooled work: a chunk
        exceeding it has its hung workers SIGKILLed and is requeued on a
        fresh pool. ``None`` (default) waits forever.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` arming
        deterministic fault injection throughout the stack (chaos
        testing / failure replay). ``None`` disables injection.
    store_path:
        Path of a persistent content-addressed cache
        (:class:`repro.store.PersistentStore`, created on first use).
        The session opens it, warm-starts its replay memo from it on
        boot, attaches it behind the process-wide containment-oracle
        cache, and write-behinds fresh results to it. ``None`` (default)
        keeps everything in memory. (``repro-serve --store PATH`` wires
        this.)
    certify:
        Proof-carrying mode: every minimization records the containment
        witnesses justifying each elimination into a
        :class:`repro.certify.Certificate`, every *cached* answer —
        in-memory memo replay, persistent-store hit, warm-started record
        — has its certificate re-checked by the independent verifier
        before it is served, and a failing record is quarantined
        (deleted, counted, transparently recomputed cold) rather than
        served. Answers carry ``QueryResult.certificate``. Certificates
        are checked by :func:`repro.certify.check_certificate`, which
        shares no code with the images engines.
    audit_rate:
        Sampling rate of the service layer's background audit of served
        answers (off the hot path): 1-in-``audit_rate`` answers are
        re-verified. ``0`` disables sampling; with ``certify=True``
        every answer is checked synchronously anyway.
    """

    oracle_cache: bool = True
    jobs: Union[int, str] = 1
    memoize: bool = True
    watchdog: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    store_path: Optional[str] = None
    certify: bool = False
    audit_rate: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.oracle_cache, bool):
            raise ValueError(
                f"oracle_cache must be a bool, got {self.oracle_cache!r}"
            )
        if isinstance(self.jobs, str):
            if self.jobs != "auto":
                raise ValueError(f'jobs must be an int or "auto", got {self.jobs!r}')
        elif self.jobs is not None and self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.watchdog is not None and self.watchdog <= 0:
            raise ValueError(f"watchdog must be > 0 seconds, got {self.watchdog}")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan, got {type(self.fault_plan).__name__}"
            )
        if self.store_path is not None and not str(self.store_path):
            raise ValueError("store_path must be a non-empty path or None")
        if not isinstance(self.audit_rate, int) or isinstance(self.audit_rate, bool):
            raise ValueError(
                f"audit_rate must be an int (0 disables), got {self.audit_rate!r}"
            )
        if self.audit_rate < 0:
            raise ValueError(f"audit_rate must be >= 0, got {self.audit_rate}")

    def with_overrides(self, **changes: object) -> "MinimizeOptions":
        """A copy with the given fields replaced (frozen-dataclass
        convenience for the CLIs and the service)."""
        return replace(self, **changes)


@dataclass
class QueryResult:
    """The one minimization-result shape shared by every surface.

    Library callers, both CLIs' ``--json`` output, and the service
    protocol all speak this object: the input, the minimized pattern,
    what was removed, whether the fingerprint memo served it, and the
    timing/cache counters of the work actually done.

    Attributes
    ----------
    pattern:
        The minimized query.
    input_pattern:
        The query as submitted (never mutated).
    eliminated:
        ``(node_id, node_type)`` pairs in elimination order, in the
        input's node ids.
    cache_hit:
        True when the result was replayed from the fingerprint memo.
    fingerprint:
        The input's structural fingerprint (memo key), when known.
    timings:
        Phase wall-clock seconds (``closure_seconds``, ``cdm_seconds``,
        ``acim_seconds``, ``total_seconds`` — whichever apply).
    counters:
        Engine/cache counters of the work done for this result (empty
        for memo replays — a hit does no engine work).
    detail:
        The full per-stage :class:`~repro.core.pipeline.MinimizeResult`
        when this query was freshly minimized; ``None`` for replays.
    certificate:
        The witness :class:`~repro.certify.Certificate` proving this
        answer, in the input's node ids (``certify=True`` only).
    """

    pattern: TreePattern
    input_pattern: TreePattern
    eliminated: list[tuple[int, str]] = field(default_factory=list)
    cache_hit: bool = False
    fingerprint: Optional[str] = None
    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    detail: Optional[MinimizeResult] = None
    certificate: Optional[object] = None

    @property
    def input_size(self) -> int:
        """Node count of the submitted query."""
        return self.input_pattern.size

    @property
    def output_size(self) -> int:
        """Node count of the minimized query."""
        return self.pattern.size

    @property
    def removed_count(self) -> int:
        """Number of nodes eliminated."""
        return len(self.eliminated)

    def summary(self) -> str:
        """One-line human-readable report."""
        via = " [memo replay]" if self.cache_hit else ""
        return (
            f"{self.input_size} -> {self.output_size} nodes "
            f"({self.removed_count} removed){via}"
        )

    def to_json(self, *, fmt: str = "xpath") -> dict:
        """The JSON-serializable unified shape (both CLIs' ``--json``
        and the service protocol emit exactly this dict).

        ``fmt`` renders the input/minimized queries as ``"xpath"`` or
        ``"sexpr"``.
        """
        if fmt not in ("xpath", "sexpr"):
            raise ValueError(f"unknown render format {fmt!r}")
        render = to_xpath if fmt == "xpath" else to_sexpr
        return {
            "input": render(self.input_pattern),
            "minimized": render(self.pattern),
            "input_size": self.input_size,
            "output_size": self.output_size,
            "removed": self.removed_count,
            "eliminated": [[node_id, node_type] for node_id, node_type in self.eliminated],
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
            "timings": dict(self.timings),
            "counters": dict(self.counters),
            "certificate": (
                self.certificate.to_json() if self.certificate is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # Constructors from the per-layer result objects
    # ------------------------------------------------------------------

    @classmethod
    def from_minimize_result(
        cls, result: MinimizeResult, input_pattern: TreePattern, *, fingerprint: Optional[str] = None
    ) -> "QueryResult":
        """Adapt a :class:`~repro.core.pipeline.MinimizeResult`."""
        eliminated: list[tuple[int, str]] = []
        timings: dict[str, float] = {"closure_seconds": result.closure_seconds}
        counters: dict[str, float] = {}
        if result.cdm is not None:
            eliminated.extend(
                (node_id, node_type) for node_id, node_type, _ in result.cdm.eliminated
            )
            timings["cdm_seconds"] = result.cdm.seconds
        if result.acim is not None:
            eliminated.extend(result.acim.eliminated)
            timings["acim_seconds"] = result.acim.total_seconds
            counters.update(result.acim.images_stats.counters())
        timings["total_seconds"] = result.total_seconds
        return cls(
            pattern=result.pattern,
            input_pattern=input_pattern,
            eliminated=eliminated,
            cache_hit=False,
            fingerprint=fingerprint,
            timings=timings,
            counters=counters,
            detail=result,
        )

    @classmethod
    def from_batch_item(cls, item, input_pattern: TreePattern) -> "QueryResult":
        """Adapt a :class:`~repro.batch.minimizer.BatchItemResult`."""
        certificate = getattr(item, "certificate", None)
        if item.result is not None:
            out = cls.from_minimize_result(
                item.result, input_pattern, fingerprint=item.fingerprint
            )
            # The replayed elimination is already in *this* query's node
            # ids; the MinimizeResult's record is in the representative's.
            out.eliminated = list(item.eliminated)
            out.certificate = certificate
            return out
        return cls(
            pattern=item.pattern,
            input_pattern=input_pattern,
            eliminated=list(item.eliminated),
            cache_hit=item.cache_hit,
            fingerprint=item.fingerprint,
            certificate=certificate,
        )


@dataclass
class ConstraintUpdateResult:
    """What one :meth:`Session.update_constraints` call did, precisely.

    Attributes
    ----------
    added / dropped:
        Base constraints actually inserted / removed (requests that were
        already present / already absent are skipped — re-applying the
        same update is a no-op).
    old_digest / new_digest:
        The closed-repository digests before and after. Equal digests
        mean the update changed nothing (every cache survives).
    mode:
        Closure recompute mode: ``"incremental"`` (pure additions,
        semi-naive worklist), ``"full"`` (drops force a recompute from
        the surviving base), or ``"noop"``.
    closure_size:
        Constraints in the new closed repository.
    closure_seconds:
        Wall-clock cost of the closure recompute.
    invalidated_replays:
        Fingerprint-memo entries dropped because their recorded
        eliminations were proven under the old closure digest. (The
        persistent store needs no purge — its records are *keyed* by
        digest, so old-epoch records simply stop matching.)
    surviving_oracle_entries:
        Containment-oracle cache entries retained: oracle facts are
        closure-free (pure structural containment), so constraint churn
        never invalidates them.
    """

    added: list[IntegrityConstraint] = field(default_factory=list)
    dropped: list[IntegrityConstraint] = field(default_factory=list)
    old_digest: str = ""
    new_digest: str = ""
    mode: str = "noop"
    closure_size: int = 0
    closure_seconds: float = 0.0
    invalidated_replays: int = 0
    surviving_oracle_entries: int = 0

    @property
    def changed(self) -> bool:
        """Whether the closed constraint set actually changed."""
        return self.old_digest != self.new_digest

    def to_json(self) -> dict:
        """JSON-serializable shape (the ``constraints`` protocol op's
        response payload)."""
        return {
            "added": [c.notation() for c in self.added],
            "dropped": [c.notation() for c in self.dropped],
            "old_digest": self.old_digest,
            "new_digest": self.new_digest,
            "changed": self.changed,
            "mode": self.mode,
            "closure_size": self.closure_size,
            "closure_seconds": self.closure_seconds,
            "invalidated_replays": self.invalidated_replays,
            "surviving_oracle_entries": self.surviving_oracle_entries,
        }


class Session:
    """A long-lived facade over the minimization stack.

    One session owns the whole cache/jobs configuration
    (:class:`MinimizeOptions`) and amortizes shared state across calls:
    constraint closures are computed once per repository, the
    fingerprint memo and containment-oracle caches persist, and (with
    ``jobs != 1``) worker processes stay warm. The service
    layer (:class:`repro.service.MinimizationService`), both CLIs, and
    library callers all configure the stack exclusively through here.

    Parameters
    ----------
    options:
        The configuration; ``None`` means all defaults.
    constraints:
        Default integrity constraints for calls that don't pass their
        own ``repo``: a repository, constraint objects, notation strings
        (``"Book -> Title; A ~ B"``), or an iterable mixing the last two.
    store:
        An already-open :class:`repro.store.PersistentStore` to use
        instead of opening ``options.store_path``, for a caller that
        keeps one store across several sessions. An injected store is
        *not* closed by :meth:`close` — its owner closes it.

    Sessions are context managers; :meth:`close` releases any persistent
    worker pools. All methods are thread-safe to the extent the
    underlying batch backend is (one batch at a time per repository);
    the counters take a lock, so concurrent calls never lose a count.
    """

    def __init__(
        self,
        options: Optional[MinimizeOptions] = None,
        *,
        constraints: Constraints = None,
        store: Optional[object] = None,
    ) -> None:
        self.options = options if options is not None else MinimizeOptions()
        if not isinstance(self.options, MinimizeOptions):
            raise TypeError(
                f"options must be a MinimizeOptions, got {type(self.options).__name__}"
            )
        self._default_constraints = constraints
        self._minimizers: dict[str, BatchMinimizer] = {}
        #: The minimizer of the session-default constraints, resolved once
        #: per constraint epoch (:meth:`_minimizer_for`).
        self._default: Optional[BatchMinimizer] = None
        #: Lifetime totals of each layer's stats, merged by :meth:`_add`
        #: and flattened by :meth:`counters`.
        self._totals = {
            cls: cls()
            for cls in (BatchStats, ImagesStats, ExecutorStats, ContainmentStats)
        }
        self._lock = threading.Lock()
        #: The process-wide oracle cache's counts when the session
        #: started; :meth:`counters` reports what accrued since.
        cache = global_cache()
        self._oracle_start = (
            replace(cache.stats) if cache is not None else OracleCacheStats()
        )
        #: The store's counts when :meth:`close` detached it.
        self._store_final: Optional[StoreStats] = None
        self._closed = False
        #: One injector shared by every layer working through this
        #: session, so the whole stack reports into a single ordered
        #: fired-faults log; ``None`` when no fault plan is configured.
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.options.fault_plan)
            if self.options.fault_plan is not None and self.options.fault_plan
            else None
        )
        #: The persistent content-addressed cache behind this session's
        #: memo/oracle layers; ``None`` when neither ``store`` nor
        #: ``options.store_path`` is configured.
        self.store: Optional[object] = store
        self._owns_store = False
        if self.store is None and self.options.store_path is not None:
            self.store = PersistentStore(
                self.options.store_path, injector=self.injector
            )
            self._owns_store = True
        if self.store is not None and self.options.oracle_cache:
            # The process-wide oracle cache gains the disk backend; a
            # reset_global_cache() (restart simulation) re-attaches it.
            set_global_store(self.store)
            if self.options.certify:
                # Certified sessions re-validate every disk-loaded DP
                # table with the independent checker before serving it.
                set_global_store_audit(True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release persistent worker pools and (when this session opened
        it) flush and close the persistent store (idempotent)."""
        for minimizer in self._minimizers.values():
            minimizer.close()
        if self.store is not None and not self._closed:
            if global_store() is self.store:
                set_global_store(None)
                if self.options.certify:
                    set_global_store_audit(False)
            if self._owns_store:
                self.store.close()
            # Snapshot the store counters at detach — after the close
            # above so the final write-behind flush is counted: counters()
            # keeps reporting the final store_* values after close(), even
            # when another owner of an injected store keeps using it.
            self._store_final = replace(self.store.stats)
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Minimization
    # ------------------------------------------------------------------

    def minimize(self, pattern: TreePattern, repo: Constraints = None) -> QueryResult:
        """Minimize one query under ``repo`` (or the session default).

        Identical output to :func:`repro.core.pipeline.minimize` with
        the session's options — but served through the session's
        fingerprint memo, so repeated structures replay instead of
        recomputing.
        """
        return self.minimize_many([pattern], repo)[0]

    def minimize_many(
        self, patterns: Sequence[TreePattern], repo: Constraints = None
    ) -> list[QueryResult]:
        """Minimize a whole workload; one :class:`QueryResult` per query,
        in input order (byte-identical to the serial loop)."""
        patterns = list(patterns)
        batch = self._minimizer_for(repo).minimize_all(patterns)
        self._add(batch.stats, batch.images_stats, batch.executor_stats)
        return [
            QueryResult.from_batch_item(item, pattern)
            for item, pattern in zip(batch, patterns)
        ]

    # ------------------------------------------------------------------
    # Evaluation & equivalence
    # ------------------------------------------------------------------

    def evaluate(
        self,
        patterns: "TreePattern | Sequence[TreePattern]",
        database: Database,
    ) -> "set[tuple[int, int]] | list[set[tuple[int, int]]]":
        """Answer set(s) over ``database``, computed by the candidate-set
        DP (:class:`~repro.matching.embeddings.EmbeddingEngine`).

        A single pattern returns one ``{(tree_index, node_id)}`` set; a
        sequence returns one set per query (via the batch evaluator,
        fanned across the session's ``jobs``).
        """
        if isinstance(patterns, TreePattern):
            return _evaluate(patterns, database)
        return evaluate_batch(list(patterns), database, jobs=self.options.jobs)

    def equivalent(
        self, q1: TreePattern, q2: TreePattern, repo: Constraints = None
    ) -> bool:
        """Whether the queries are equivalent — absolutely, or under the
        given (or session-default) constraints when any are present. Both
        paths count their containment work (``containment_*``).

        Isomorphic queries are answered from their canonical keys
        (``containment_equivalent_fast_path``): equal keys mean an
        isomorphism, which is a containment mapping in both directions,
        so the verdict needs no re-proof."""
        repository = self._minimizer_for(repo).repository  # closed once
        stats = ContainmentStats()
        with self._cache_scope():
            if len(repository):
                verdict = _equivalent_under(q1, q2, repository, stats=stats)
            else:
                verdict = _equivalent(q1, q2, stats=stats)
            self._add(stats)
        return verdict

    # ------------------------------------------------------------------
    # Certification & audit
    # ------------------------------------------------------------------

    def check_certificate(self, result: QueryResult, repo: Constraints = None):
        """Independently verify one answer's witness certificate.

        Runs :func:`repro.certify.check_answer` — the
        definition-level checker that shares no code with the images
        engines — against the answer actually served. Returns the
        :class:`repro.certify.CheckResult` (truthy on success); raises
        :class:`ValueError` when the result carries no certificate
        (minimize with ``certify=True`` to get one).
        """
        if result.certificate is None:
            raise ValueError(
                "result has no certificate — minimize with "
                "MinimizeOptions(certify=True)"
            )
        from .certify import check_answer

        return check_answer(
            result.certificate,
            result.input_pattern,
            result.pattern,
            self._minimizer_for(repo).repository,
        )

    def audit_result(self, result: QueryResult, repo: Constraints = None) -> bool:
        """Re-verify one served answer (the sampling auditor's unit of
        work, safe to run off the hot path).

        With a certificate attached, the independent checker validates
        it against the served pattern; without one the input is
        recomputed cold — straight through the pipeline, no memo — and
        compared byte-for-byte via canonical keys (sound because the
        minimal query is unique). On failure the answer's fingerprint is
        quarantined from every cache layer and counted
        (``audit_failures``/``quarantined_records``); the next request
        for the structure recomputes cold. Returns whether the answer
        verified.
        """
        repository = self._minimizer_for(repo).repository
        if result.certificate is not None:
            from .certify import check_answer

            ok = bool(
                check_answer(
                    result.certificate,
                    result.input_pattern,
                    result.pattern,
                    repository,
                )
            )
        else:
            from .core.pipeline import minimize as _pipeline_minimize

            fresh = _pipeline_minimize(result.input_pattern, repository)
            ok = fresh.pattern.canonical_key() == result.pattern.canonical_key()
        self._add(BatchStats(audited=1, audit_failures=int(not ok)))
        if not ok and result.fingerprint:
            self.quarantine(result.fingerprint, repo)
        return ok

    def quarantine(self, fingerprint: str, repo: Constraints = None) -> None:
        """Drop one fingerprint's cached answer from every cache layer
        (replay memo and persistent store) and count it. The audit
        pipeline's failure path — never serves, always recomputes."""
        self._minimizer_for(repo).quarantine(fingerprint)
        self._add(BatchStats(quarantined_records=1))

    # ------------------------------------------------------------------
    # Live constraint churn
    # ------------------------------------------------------------------

    def update_constraints(
        self,
        add: "Constraints | str | IntegrityConstraint" = None,
        drop: "Constraints | str | IntegrityConstraint" = None,
    ) -> ConstraintUpdateResult:
        """Mutate the session-default constraints on a *live* session.

        ``add``/``drop`` accept constraint objects, notation strings
        (``"Book -> Title; A ~ B"``), or iterables mixing both. The new
        closure is computed through
        :meth:`~repro.constraints.repository.ConstraintRepository.begin_update`
        — incrementally when only additions are staged — and invalidation
        is *precise*:

        * the default repository's fingerprint memo is dropped (its
          recorded eliminations were proven under the old closure digest)
          and its size is reported as ``invalidated_replays``;
        * the containment-oracle cache survives untouched (oracle facts
          are closure-free) — its size is reported as
          ``surviving_oracle_entries``;
        * the persistent store needs no purge: records are keyed by
          closure digest, so old-epoch records stop matching while
          records previously written under the *new* digest immediately
          warm-start the successor memo.

        A no-op update (same digest) invalidates nothing. Minimizers for
        *explicitly passed* ``repo`` arguments are untouched — only the
        session default changes. Callers racing in-flight ``minimize``
        calls must order the update themselves (the service does:
        requests enqueued before the update are served under the old
        closure, requests after under the new one).

        Session counters gain ``ic_updates`` and
        ``closure_invalidations`` (the memo entries dropped).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        adds = coerce_constraints(add)
        drops = coerce_constraints(drop)
        minimizer = self._minimizer_for(None)
        old_digest = minimizer.closure_digest
        new_repo = minimizer.repository.copy()
        start = time.perf_counter()
        with new_repo.begin_update() as update:
            for constraint in adds:
                update.add(constraint)
            for constraint in drops:
                update.drop(constraint)
        closure_seconds = time.perf_counter() - start
        cache = global_cache()
        result = ConstraintUpdateResult(
            added=list(update.added),
            dropped=list(update.dropped),
            old_digest=old_digest,
            new_digest=update.new_digest or old_digest,
            mode=update.mode or "noop",
            closure_size=len(new_repo),
            closure_seconds=closure_seconds,
            surviving_oracle_entries=len(cache) if cache is not None else 0,
        )
        self._add(BatchStats(ic_updates=1))
        if not result.changed:
            if update.added or update.dropped:
                # Base-only mutation: the staged add was already derived
                # (or the drop is still derivable), so the closure — and
                # its digest — are unchanged. Nothing is invalidated, but
                # the new base must still stick, or a later drop of the
                # "added" constraint would see only the derived copy and
                # refuse.
                minimizer.repository = new_repo
                self._default_constraints = new_repo
            return result

        # Precise invalidation: exactly the old default repository's memo
        # entries are stale — drop that minimizer (and its warm pool).
        result.invalidated_replays = minimizer.cache_size
        minimizer.close()
        self._minimizers = {
            key: kept
            for key, kept in self._minimizers.items()
            if kept is not minimizer
        }
        self._default = None
        self._default_constraints = new_repo
        # Build the successor eagerly: it reuses the already-recomputed
        # closure (new_repo is closed) and warm-starts from any store
        # records previously written under the new digest.
        self._minimizer_for(None)
        self._add(BatchStats(closure_invalidations=result.invalidated_replays))
        return result

    def constraints_digest(self) -> str:
        """Digest of the session-default *closed* repository (the cache
        epoch key; changes exactly when :meth:`update_constraints` does)."""
        return self._minimizer_for(None).closure_digest

    def constraints_info(self) -> dict:
        """The current constraint epoch as a JSON-serializable dict (the
        ``constraints`` protocol op's query response)."""
        minimizer = self._minimizer_for(None)
        repo = minimizer.repository
        return {
            "digest": minimizer.closure_digest,
            "closure_size": len(repo),
            "base_size": len(repo.base),
            "ic_updates": self._totals[BatchStats].ic_updates,
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Every layer's counters over this session's lifetime, as one
        flat dict (:mod:`repro.obs`): the batch layer with the session's
        audits and constraint updates, the images engine, the executor,
        the equivalence checks (``containment_*``), the process-wide
        oracle cache since the session started (``oracle_cache_*``), the
        attached store (``store_*``, when there is one) and the fault
        injector's ``faults_injected``. Ratios are ratios of the totals."""
        out: dict[str, float] = {}
        with self._lock:
            for stats in self._totals.values():
                out.update(stats.counters())
        out.update(self._oracle_cache_stats().counters())
        if self.store is not None:
            out.update((self._store_final or self.store.stats).counters())
        out["faults_injected"] = (
            self.injector.faults_injected if self.injector is not None else 0
        )
        return out

    @property
    def cache_size(self) -> int:
        """Memoized representative structures across all repositories."""
        return sum(m.cache_size for m in self._minimizers.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cache_scope(self):
        """The cache scope implied by the options: a re-entrant
        oracle-cache-disabled scope for ``oracle_cache=False``, a no-op
        otherwise."""
        if not self.options.oracle_cache:
            return oracle_cache_disabled()
        return nullcontext()

    def _add(self, *stats) -> None:
        """Merge per-call stats into the session's lifetime totals."""
        with self._lock:
            for part in stats:
                self._totals[type(part)].add(part)

    def _oracle_cache_stats(self) -> OracleCacheStats:
        """The process-wide oracle cache's counts since the session
        started (zeros while the cache is disabled)."""
        cache = global_cache()
        if cache is None:
            return OracleCacheStats()
        return OracleCacheStats(
            **{
                f.name: getattr(cache.stats, f.name) - getattr(self._oracle_start, f.name)
                for f in fields(OracleCacheStats)
            }
        )

    def _minimizer_for(self, repo: Constraints) -> BatchMinimizer:
        """The per-repository batch backend (created on first use; the
        closure, memo, and pool live as long as the session), keyed by
        the repository's digest, which the repository computes once."""
        if self._closed:
            raise RuntimeError("session is closed")
        if repo is None:
            if self._default is None:
                self._default = self._minimizer_for(
                    coerce_repository(self._default_constraints)
                )
            return self._default
        repository = coerce_repository(repo)
        key = repository.digest()
        minimizer = self._minimizers.get(key)
        if minimizer is None:
            minimizer = BatchMinimizer(
                repository,
                options=self.options,
                injector=self.injector,
                store=self.store,
            )
            self._minimizers[key] = minimizer
        return minimizer
