"""Layer spans recorded from the benchmark's own files.

:class:`Tracer` replaces each layer's entry points with timing wrappers
at the place where the calling layer looks them up (a module global, a
class attribute, a dispatch-table entry), records one span per call and
restores everything on :meth:`Tracer.uninstall`. Nothing in the program
is edited; with tracing off nothing is installed.

A span is ``(id, parent, name, start, end, request, batch, size, tag)``:
``request`` is the id of the request the call serves, ``batch``/``size``
the micro-batch it belongs to. Parents and request/batch ids travel in
context variables, so spans stay correctly nested across asyncio tasks
and ``asyncio.to_thread`` hops. Spans are kept in memory and written out
as JSON lines at exit (:meth:`Tracer.dump`).

The layer of a span is the part of its name before the first dot. Names
in :data:`WAITS` are waits (a request parked on a future), not work: they
count as children of their parent, so the parent's self time excludes
the wait, but they are left out of every layer's share.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple, Optional

#: Layers in request order; their names prefix span names.
LAYERS = ("service", "parsing", "api", "batch", "core", "constraints", "store", "certify")
#: Spans that only wait for other spans' work.
WAITS = frozenset({"service.wait"})

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)
_batch: contextvars.ContextVar = contextvars.ContextVar("perfbench_batch", default=(None, None))


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: Optional[int]
    batch: Optional[int]
    size: Optional[int]
    tag: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers and collects spans, counts and samples."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(time, key, value)`` counts and samples taken at the same
        #: boundaries as the spans, timestamped so they can be windowed.
        self.events: list[tuple[float, str, float]] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- context for callers that are not themselves wrapped -------------

    def request(self, request_id: int):
        """Context manager tagging the spans of one in-process operation
        with ``request_id``."""
        return _RequestScope(request_id)

    def add(self, key: str, value: float = 1) -> None:
        """Record a count (or one sample) now."""
        self.events.append((perf_counter(), key, value))

    # -- installation ----------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        root: bool = False,
        when: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        span-recording wrapper.

        ``root`` starts a new request (the span's id becomes the request
        id) with no parent. ``when(args)`` may veto recording a call.
        ``on_call(args, start)`` may return ``(batch_size, tag)`` and
        opens a batch context when it returns a size. ``on_return(result,
        args)`` may return a tag.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        spans = self.spans
        ids = self._ids

        def enter(args):
            if when is not None and not when(args):
                return None
            sid = next(ids)
            start = perf_counter()
            size = tag = None
            tokens = []
            if root:
                tokens.append((_parent, _parent.set(sid)))
                tokens.append((_request, _request.set(sid)))
                tokens.append((_batch, _batch.set((None, None))))
                parent = None
            else:
                parent = _parent.get()
                tokens.append((_parent, _parent.set(sid)))
            if on_call is not None:
                size, tag = on_call(args, start)
                if size is not None:
                    tokens.append((_batch, _batch.set((sid, size))))
            return sid, parent, start, size, tag, tokens

        def leave(state, args, result):
            sid, parent, start, size, tag, tokens = state
            end = perf_counter()
            request = _request.get()
            batch_id, batch_size = _batch.get()
            for var, token in reversed(tokens):
                var.reset(token)
            if on_return is not None and result is not _FAILED:
                tag = on_return(result, args) or tag
            spans.append(Span(sid, parent, name, start, end, request,
                              batch_id, batch_size, tag))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                state = enter(args)
                if state is None:
                    return await original(*args, **kwargs)
                result = _FAILED
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    leave(state, args, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = enter(args)
                if state is None:
                    return original(*args, **kwargs)
                result = _FAILED
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    leave(state, args, result)

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the events, then one span per line, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(self.events) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _RequestScope:
    def __init__(self, request_id: int) -> None:
        self.request_id = request_id

    def __enter__(self):
        self._token = _request.set(self.request_id)
        return self

    def __exit__(self, *exc_info) -> None:
        _request.reset(self._token)


_FAILED = object()


def load(path: str) -> tuple[list[Span], list[tuple[float, str, float]]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as source:
        events = [tuple(event) for event in json.loads(source.readline())]
        spans = [Span(*json.loads(line)) for line in source if line.strip()]
    return spans, events


# ---------------------------------------------------------------------------
# The program's entry points
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry points (see the package README for the
    list and where each is looked up)."""
    # import_module, not ``import a.b as c``: packages such as
    # repro.constraints re-export functions under their submodule names.
    module = importlib.import_module
    api = module("repro.api")
    batch = module("repro.batch.minimizer")
    certify = module("repro.certify")
    checker = module("repro.certify.checker")
    closure_mod = module("repro.constraints.closure")
    repository = module("repro.constraints.repository")
    acim = module("repro.core.acim")
    chase = module("repro.core.chase")
    ic = module("repro.core.ic_containment")
    oracle = module("repro.core.oracle_cache")
    pipeline = module("repro.core.pipeline")
    protocol = module("repro.service.protocol")
    service = module("repro.service.service")
    store = module("repro.store")

    add = tracer.add

    # service: protocol, micro-batcher, sampled audits
    tracer.wrap(protocol, "handle_line", "service.protocol", root=True)
    tracer.replace(protocol, "json", _json_shim(tracer))
    tracer.wrap(service.MinimizationService, "submit", "service.wait")

    def batch_call(args, start):
        svc, requests = args[0], args[1]
        for request in requests:
            add("service.queue_wait", start - request.enqueued_at)
        return len(requests), "full" if len(requests) >= svc.max_batch_size else "partial"

    tracer.wrap(service.MinimizationService, "_run_batch", "service.batch", on_call=batch_call)
    tracer.wrap(service.MinimizationService, "_audit_one", "service.audit", root=True)

    # parsing: the protocol's parser table and the api's renderers
    for fmt in list(protocol._PARSERS):
        tracer.wrap(protocol._PARSERS, fmt, "parsing.parse")
    tracer.wrap(api, "to_xpath", "parsing.render")
    tracer.wrap(api, "to_sexpr", "parsing.render")

    # api: the Session facade
    for method in ("minimize", "minimize_many", "equivalent", "update_constraints",
                   "audit_result", "check_certificate"):
        tracer.wrap(api.Session, method, f"api.{method}",
                    on_return=_invalidations(add) if method == "update_constraints" else None)
    tracer.wrap(api.QueryResult, "to_json", "api.to_json")
    tracer.wrap(api, "coerce_repository", "constraints.coerce")

    # batch: memo/replay and the executor
    def batch_result(result, args):
        add("batch.queries", result.stats.queries)
        add("batch.hits", result.stats.cache_hits)

    tracer.wrap(batch.BatchMinimizer, "minimize_all", "batch.minimize_all", on_return=batch_result)
    tracer.wrap(batch.BatchMinimizer, "__init__", "batch.init")
    tracer.wrap(batch.BatchMinimizer, "_replay", "batch.replay")
    tracer.wrap(batch, "process_map", "batch.executor")

    # core: fingerprint, CDM, ACIM/images, chase/containment, oracle cache
    tracer.wrap(batch, "fingerprint", "core.fingerprint")
    tracer.wrap(batch, "isomorphism", "core.isomorphism")

    def pipeline_result(result, args):
        add("core.queries")
        add("core.removed", result.removed_count)
        if result.cdm is not None:
            add("core.cdm_removed", result.cdm.removed_count)
        if result.acim is not None:
            images = result.acim.images_stats
            add("core.redundancy_checks", images.redundancy_checks)
            add("core.prune_memo_hits", images.prune_memo_hits)
            add("core.prune_memo_lookups", images.prune_memo_hits + images.prune_memo_misses)

    tracer.wrap(batch, "minimize", "core.pipeline", on_return=pipeline_result)
    tracer.wrap(pipeline, "minimize", "core.pipeline", on_return=pipeline_result)
    tracer.wrap(pipeline, "cdm_minimize", "core.cdm")
    tracer.wrap(pipeline, "acim_minimize", "core.acim")
    tracer.wrap(acim, "augmentation_targets", "core.augmentation")
    tracer.wrap(acim, "cim_minimize", "core.images")
    tracer.wrap(api, "_equivalent_under", "core.equivalence")
    tracer.wrap(api, "_equivalent", "core.equivalence")
    tracer.wrap(ic, "chase_for_containment", "core.chase")
    tracer.wrap(ic, "has_containment_mapping", "core.containment")

    def oracle_result(result, args):
        add("core.oracle_lookups")
        add("core.oracle_hits", result is not None)

    tracer.wrap(oracle.ContainmentOracleCache, "lookup", "core.oracle_cache",
                on_return=oracle_result)

    # constraints: closure wherever it is looked up, updates, full scans
    for owner in (batch, pipeline, acim, chase, ic, checker, closure_mod):
        tracer.wrap(owner, "closure", "constraints.closure")
    tracer.wrap(closure_mod, "extend_closure", "constraints.extend_closure")
    tracer.wrap(repository.ConstraintRepository, "__iter__", "constraints.scan",
                when=lambda args: args[0].is_closed)
    tracer.wrap(repository.RepositoryUpdate, "commit", "constraints.update",
                on_return=lambda result, args: result.mode)

    # store: lookups, write-behind enqueues, commits, warm start
    def store_result(result, args):
        add("store.lookups")
        add("store.hits", result is not None)

    for method in ("get_minimization", "get_oracle"):
        tracer.wrap(store.PersistentStore, method, "store.get", on_return=store_result)
    for method in ("put_minimization", "put_oracle"):
        tracer.wrap(store.PersistentStore, method, "store.put")
    tracer.wrap(store.PersistentStore, "_apply_batch", "store.commit")

    def warm_result(result, args):
        add("store.warm_loaded_total", args[0]._store.stats.warm_loaded)

    tracer.wrap(batch.BatchMinimizer, "_warm_start", "store.warm_start", on_return=warm_result)

    # certify: the independent checker and certificate assembly
    for function in ("check_certificate", "check_answer"):
        tracer.wrap(certify, function, "certify.check")
    tracer.wrap(certify, "check_oracle_table", "certify.check_oracle")
    tracer.wrap(pipeline, "_assemble_certificate", "certify.assemble")
    return tracer


def _invalidations(add: Callable):
    def record(result, args):
        add("constraints.updates")
        add("constraints.invalidated", result.invalidated_replays)
    return record


def _json_shim(tracer: Tracer):
    """The protocol module's ``json`` with ``dumps`` traced, so response
    encoding (done outside ``handle_line``) counts as protocol work."""
    shim = types.SimpleNamespace(
        loads=json.loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )
    tracer.wrap(shim, "dumps", "service.encode")
    return shim


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id, its duration minus the part of it that its child
    spans cover (children clipped to the parent's interval, overlaps
    counted once)."""
    children: defaultdict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        out[span.id] = span.duration - covered
    return out


def within(spans: list[Span], events: list, start: float, end: float):
    """The spans that start and the events taken inside ``[start, end]``."""
    return ([span for span in spans if start <= span.start <= end],
            [event for event in events if start <= event[0] <= end])


#: Every per-layer metric as ``(name, unit, better)``, in report order.
#: Ratios and per-unit figures each sit next to the count they are taken
#: over. Times are better lower; counts of work served in the window and
#: ratios of useful outcomes better higher; counts of work done per
#: request (scans, closures, checks) better lower.
PER_LAYER = (
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("split.program_ms_per_op", "ms", "lower"),
    *((f"split.{layer}_share", "share", "lower") for layer in LAYERS),
    ("service.requests", "count", "higher"),
    ("service.protocol_ms_per_req", "ms", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.batches", "count", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.flush_full_ratio", "ratio", "higher"),
    ("service.audits", "count", "lower"),
    ("service.audit_ms_per_req", "ms", "lower"),
    ("parsing.parse_ms_per_req", "ms", "lower"),
    ("parsing.render_ms_per_req", "ms", "lower"),
    ("api.calls", "count", "higher"),
    ("api.session_self_ms_per_call", "ms", "lower"),
    ("batch.calls", "count", "lower"),
    ("batch.executor_ms_per_call", "ms", "lower"),
    ("batch.queries", "count", "higher"),
    ("batch.memo_hit_ratio", "ratio", "higher"),
    ("batch.replays", "count", "higher"),
    ("batch.replay_ms_per_hit", "ms", "lower"),
    ("core.fingerprints", "count", "lower"),
    ("core.fingerprint_ms_per_query", "ms", "lower"),
    ("core.queries", "count", "higher"),
    ("core.cdm_ms_per_query", "ms", "lower"),
    ("core.acim_ms_per_query", "ms", "lower"),
    ("core.augmentation_ms_per_query", "ms", "lower"),
    ("core.removed", "count", "higher"),
    ("core.cdm_removed_share", "share", "higher"),
    ("core.redundancy_checks_per_query", "count", "lower"),
    ("core.prune_memo_lookups", "count", "lower"),
    ("core.prune_memo_hit_ratio", "ratio", "higher"),
    ("core.equivs", "count", "higher"),
    ("core.chase_ms_per_equiv", "ms", "lower"),
    ("core.containment_ms_per_equiv", "ms", "lower"),
    ("core.oracle_cache_lookups", "count", "lower"),
    ("core.oracle_cache_hit_ratio", "ratio", "higher"),
    ("constraints.closures", "count", "lower"),
    ("constraints.closure_ms", "ms", "lower"),
    ("constraints.scans", "count", "lower"),
    ("constraints.scan_ms_per_op", "ms", "lower"),
    ("constraints.closure_calls_per_op", "count", "lower"),
    ("constraints.updates_incremental", "count", "higher"),
    ("constraints.update_ms_incremental", "ms", "lower"),
    ("constraints.updates_full", "count", "higher"),
    ("constraints.update_ms_full", "ms", "lower"),
    ("constraints.invalidated_per_update", "count", "lower"),
    ("store.warm_loaded", "count", "higher"),
    ("store.lookups", "count", "lower"),
    ("store.get_ms_per_lookup", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.rows_written_per_op", "count", "lower"),
    ("store.commits", "count", "lower"),
    ("certify.answers", "count", "higher"),
    ("certify.check_ms_per_answer", "ms", "lower"),
    ("certify.checks_per_answer", "count", "lower"),
)


def layer_metrics(spans: list[Span], events: list, ops: int,
                  percentile: Callable) -> dict[str, float]:
    """Per-layer metrics over ``spans`` and ``events`` (both already cut
    to the measured window) for ``ops`` operations. ``percentile(values,
    p)`` is the benchmark's nearest-rank percentile. Absent work reads
    as 0."""
    counts: Counter = Counter()
    for _, key, value in events:
        counts[key] += value
    own = self_times(spans)
    by_name: defaultdict = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    names = {span.id: span.name for span in spans}

    def n(name: str) -> int:
        return len(by_name.get(name, ()))

    def ms(name: str) -> float:
        return 1e3 * sum(span.duration for span in by_name.get(name, ()))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layer_self: Counter = Counter()
    for span in spans:
        if span.name not in WAITS and span.layer in LAYERS:
            layer_self[span.layer] += own[span.id]
    program = sum(layer_self.values())

    api_outer = [s for s in spans if s.layer == "api"
                 and not names.get(s.parent, "").startswith("api.")]
    api_self = sum(own[s.id] for s in spans if s.layer == "api")
    requests = n("service.protocol")
    batches = by_name.get("service.batch", ())
    waits = [1e3 * value for _, key, value in events if key == "service.queue_wait"]
    warm_loaded = max((value for _, key, value in events if key == "store.warm_loaded_total"),
                      default=0)
    updates = {mode: [s for s in by_name.get("constraints.update", ()) if s.tag == mode]
               for mode in ("incremental", "full")}
    equivs = n("api.equivalent")
    core_queries = counts["core.queries"]
    answers = counts["batch.queries"]

    out = {
        "trace.ops": ops,
        "trace.spans": len(spans),
        "split.program_ms_per_op": ratio(1e3 * program, ops),
        "service.requests": requests,
        "service.protocol_ms_per_req": ratio(
            1e3 * sum(own[s.id] for s in by_name.get("service.protocol", ()))
            + ms("service.encode"), requests),
        "service.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "service.batches": len(batches),
        "service.batch_size_mean": ratio(sum(s.size for s in batches), len(batches)),
        "service.flush_full_ratio": ratio(sum(s.tag == "full" for s in batches), len(batches)),
        "service.audits": n("service.audit"),
        "service.audit_ms_per_req": ratio(ms("service.audit"), requests),
        "parsing.parse_ms_per_req": ratio(ms("parsing.parse"), requests),
        "parsing.render_ms_per_req": ratio(ms("parsing.render"), requests),
        "api.calls": len(api_outer),
        "api.session_self_ms_per_call": ratio(1e3 * api_self, len(api_outer)),
        "batch.calls": n("batch.minimize_all"),
        "batch.executor_ms_per_call": ratio(ms("batch.executor"), n("batch.minimize_all")),
        "batch.queries": answers,
        "batch.memo_hit_ratio": ratio(counts["batch.hits"], answers),
        "batch.replays": n("batch.replay"),
        "batch.replay_ms_per_hit": ratio(ms("batch.replay"), n("batch.replay")),
        "core.fingerprints": n("core.fingerprint"),
        "core.fingerprint_ms_per_query": ratio(ms("core.fingerprint"), n("core.fingerprint")),
        "core.queries": core_queries,
        "core.cdm_ms_per_query": ratio(ms("core.cdm"), core_queries),
        "core.acim_ms_per_query": ratio(ms("core.acim"), core_queries),
        "core.augmentation_ms_per_query": ratio(ms("core.augmentation"), core_queries),
        "core.removed": counts["core.removed"],
        "core.cdm_removed_share": ratio(counts["core.cdm_removed"], counts["core.removed"]),
        "core.redundancy_checks_per_query": ratio(counts["core.redundancy_checks"], core_queries),
        "core.prune_memo_lookups": counts["core.prune_memo_lookups"],
        "core.prune_memo_hit_ratio": ratio(counts["core.prune_memo_hits"],
                                           counts["core.prune_memo_lookups"]),
        "core.equivs": equivs,
        "core.chase_ms_per_equiv": ratio(ms("core.chase"), equivs),
        "core.containment_ms_per_equiv": ratio(ms("core.containment"), equivs),
        "core.oracle_cache_lookups": counts["core.oracle_lookups"],
        "core.oracle_cache_hit_ratio": ratio(counts["core.oracle_hits"],
                                             counts["core.oracle_lookups"]),
        "constraints.closures": n("constraints.closure"),
        "constraints.closure_ms": ratio(ms("constraints.closure"), n("constraints.closure")),
        "constraints.scans": n("constraints.scan"),
        "constraints.scan_ms_per_op": ratio(ms("constraints.scan"), ops),
        "constraints.closure_calls_per_op": ratio(n("constraints.closure"), ops),
        "constraints.updates_incremental": len(updates["incremental"]),
        "constraints.update_ms_incremental": ratio(
            1e3 * sum(s.duration for s in updates["incremental"]), len(updates["incremental"])),
        "constraints.updates_full": len(updates["full"]),
        "constraints.update_ms_full": ratio(
            1e3 * sum(s.duration for s in updates["full"]), len(updates["full"])),
        "constraints.invalidated_per_update": ratio(counts["constraints.invalidated"],
                                                    counts["constraints.updates"]),
        "store.warm_loaded": warm_loaded,
        "store.lookups": counts["store.lookups"],
        "store.get_ms_per_lookup": ratio(ms("store.get"), n("store.get")),
        "store.hit_ratio": ratio(counts["store.hits"], counts["store.lookups"]),
        "store.rows_written_per_op": ratio(n("store.put"), ops),
        "store.commits": n("store.commit"),
        "certify.answers": answers if n("certify.check") else 0,
        "certify.check_ms_per_answer": ratio(ms("certify.check"), answers),
        "certify.checks_per_answer": ratio(n("certify.check"), answers),
    }
    for layer in LAYERS:
        out[f"split.{layer}_share"] = ratio(layer_self[layer], program)
    return out
