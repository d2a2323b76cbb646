"""The scenario runner: replay a spec against any serving target.

One :class:`ScenarioSpec` plus one seed fully determines a **plan** —
the ordered list of operations (which tenant, which op, which query
family, which isomorphic variant, which constraint toggle) and their
arrival offsets. :func:`run_scenario` executes that plan against a
target and returns a :class:`ScenarioReport` whose event log is
byte-deterministic: the same spec and seed produce the same
:func:`~repro.scenario.events.event_log_digest` on every backend.

Targets (the ``target`` argument):

* ``"session"`` — an in-process :class:`~repro.api.Session` (the
  reference serial backend);
* ``"service"`` — a live :class:`~repro.service.MinimizationService`
  (micro-batching, deadline shedding — the single-process server);
* ``"tcp:HOST:PORT"`` — an already-running ``repro-serve`` instance
  over the JSON-lines protocol (the runner checks the server's
  constraint digest against the spec's before sending traffic).

Execution modes:

* **sequential** (default) — one op at a time, in plan order. This is
  the determinism gate: every backend must produce the identical event
  log because each request's constraint environment is exact.
* **paced** (``paced=True``) — requests between two churn events run
  concurrently (optionally sleeping out the arrival offsets scaled by
  ``time_scale``), which exercises micro-batching for real. Churn
  events are barriers — all in-flight requests finish under the old
  closure before the update applies — so the event log digest is
  *still* identical to the sequential run.

Live IC churn: ``ic-update`` events toggle constraints from the spec's
churn pool (active → drop, inactive → add) on the live target through
its first-class constraint-mutation API, while the runner maintains a
mirror repository and cross-checks the served ``new_digest`` after
every update. With ``verify=True`` each churn is followed by cold-probe
checks: family exemplars are minimized both by the live target and by a
fresh cold :class:`~repro.api.Session` built on the post-churn
repository, and any byte difference is a correctness failure.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..api import MinimizeOptions, QueryResult, Session
from ..constraints.closure import closure
from ..constraints.model import IntegrityConstraint, parse_constraints
from ..constraints.repository import ConstraintRepository
from ..core.containment import is_contained_in
from ..core.fingerprint import fingerprint
from ..core.pattern import EdgeKind, TreePattern
from ..data.xml_io import parse_xml
from ..errors import ReproError
from ..parsing.sexpr import parse_sexpr, to_sexpr
from ..workloads.arrival import (
    burst_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from ..workloads.batchgen import isomorphic_shuffle
from ..workloads.icgen import relevant_constraints
from ..workloads.querygen import random_query
from .events import ScenarioEvent, event_log_digest, result_digest
from .spec import ScenarioSpec

__all__ = ["ScenarioReport", "ScenarioRunner", "run_scenario"]


class ScenarioError(ReproError):
    """A scenario run failed (target divergence, bad target string)."""


# ----------------------------------------------------------------------
# Plan generation (pure: spec + seed -> ordered op list)
# ----------------------------------------------------------------------


@dataclass
class _PlannedOp:
    op: str
    tenant: str
    family: Optional[int]  # global family index
    offset: float
    variant_seed: int = 0
    variant_seed_b: int = 0
    add: "list[str]" = field(default_factory=list)
    drop: "list[str]" = field(default_factory=list)


@dataclass
class _Plan:
    spec: ScenarioSpec
    #: Global family list: (tenant_name, base_pattern).
    families: "list[tuple[str, TreePattern]]"
    initial_constraints: "list[IntegrityConstraint]"
    churn_pool: "list[IntegrityConstraint]"
    ops: "list[_PlannedOp]"


def _zipf_cdf(n: int, s: float) -> "list[float]":
    weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _draw(cdf: "list[float]", rng: random.Random) -> int:
    return min(bisect.bisect_left(cdf, rng.random()), len(cdf) - 1)


def _weighted_cdf(weights: "list[float]") -> "list[float]":
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _arrival_offsets(spec: ScenarioSpec, seed: int) -> "list[float]":
    process, rate, n = spec.arrival.process, spec.arrival.rate, spec.events
    if process == "poisson":
        return poisson_arrivals(n, rate, seed=seed)
    if process == "uniform":
        return uniform_arrivals(n, rate)
    if process == "burst":
        return burst_arrivals(n, rate, seed=seed)
    return diurnal_arrivals(n, rate, seed=seed)


def _generate_constraints(
    bases: "list[TreePattern]",
    want,
    *,
    seed: int,
    exclude: "set[IntegrityConstraint]",
) -> "list[IntegrityConstraint]":
    """Resolve a spec constraints field: parse a notation list, or
    generate ``want`` distinct family-relevant constraints."""
    if not isinstance(want, int):
        parsed: "list[IntegrityConstraint]" = []
        for notation in want:
            parsed.extend(parse_constraints(notation))
        return parsed
    # Generated constraints target types the families actually use
    # (unlike the benchmark sweeps' deliberately inert X-targets), so
    # adding or dropping one genuinely changes minimization results —
    # churn must be observable or the correctness gates prove nothing.
    all_types = sorted({t for base in bases for t in base.node_types()})
    target_pool = all_types if len(all_types) > 1 else None
    out: "list[IntegrityConstraint]" = []
    seen: "set[IntegrityConstraint]" = set(exclude)
    attempt = 0
    while len(out) < want and attempt < want * 10 + 20:
        base = bases[attempt % len(bases)]
        for candidate in relevant_constraints(
            base, 2, target_pool=target_pool, seed=seed + attempt
        ):
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
                if len(out) >= want:
                    break
        attempt += 1
    return out


def build_plan(spec: ScenarioSpec) -> _Plan:
    """Expand a spec into the full deterministic op plan."""
    master = random.Random(spec.seed)
    family_seed = master.randrange(1 << 30)
    constraint_seed = master.randrange(1 << 30)
    pool_seed = master.randrange(1 << 30)
    arrival_seed = master.randrange(1 << 30)
    stream_rng = random.Random(master.randrange(1 << 30))

    families: "list[tuple[str, TreePattern]]" = []
    tenant_family_index: "dict[str, list[int]]" = {}
    for t_index, tenant in enumerate(spec.tenants):
        indices = []
        for f_index in range(tenant.families):
            base = random_query(
                tenant.family_size,
                seed=family_seed + 1000 * t_index + f_index,
            )
            indices.append(len(families))
            families.append((tenant.name, base))
        tenant_family_index[tenant.name] = indices

    bases = [base for _, base in families]
    initial = _generate_constraints(
        bases, spec.constraints, seed=constraint_seed, exclude=set()
    )
    pool: "list[IntegrityConstraint]" = []
    if spec.churn is not None:
        pool = _generate_constraints(
            bases, spec.churn.pool, seed=pool_seed, exclude=set(initial)
        )

    tenant_cdf = _weighted_cdf([t.weight for t in spec.tenants])
    op_cdfs = []
    op_names = []
    zipf_cdfs = []
    for tenant in spec.tenants:
        names = sorted(tenant.ops)
        op_names.append(names)
        op_cdfs.append(_weighted_cdf([tenant.ops[name] for name in names]))
        zipf_cdfs.append(_zipf_cdf(tenant.families, tenant.zipf_s))

    offsets = _arrival_offsets(spec, arrival_seed)
    active: "set[IntegrityConstraint]" = {
        c for c in pool if c in set(initial)
    }
    toggle = 0
    every = spec.churn.every if spec.churn is not None else 0

    ops: "list[_PlannedOp]" = []
    for index in range(spec.events):
        t_index = _draw(tenant_cdf, stream_rng)
        tenant = spec.tenants[t_index]
        op = op_names[t_index][_draw(op_cdfs[t_index], stream_rng)]
        if every and (index + 1) % every == 0:
            op = "ic-update"
        if op == "ic-update" and not pool:
            op = "minimize"  # spec validation prevents this; belt+braces
        planned = _PlannedOp(
            op=op, tenant=tenant.name, family=None, offset=offsets[index]
        )
        if op == "ic-update":
            constraint = pool[toggle % len(pool)]
            toggle += 1
            if constraint in active:
                active.discard(constraint)
                planned.drop = [constraint.notation()]
            else:
                active.add(constraint)
                planned.add = [constraint.notation()]
        else:
            local = _draw(zipf_cdfs[t_index], stream_rng)
            planned.family = tenant_family_index[tenant.name][local]
            planned.variant_seed = stream_rng.randrange(1 << 30)
            planned.variant_seed_b = stream_rng.randrange(1 << 30)
        ops.append(planned)
    return _Plan(
        spec=spec,
        families=families,
        initial_constraints=initial,
        churn_pool=pool,
        ops=ops,
    )


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------


def _normalize_result(result: QueryResult) -> "tuple[str, list]":
    return to_sexpr(result.pattern), [[i, t] for i, t in result.eliminated]


class _SessionTarget:
    """In-process reference backend (serial)."""

    kind = "session"

    def __init__(self, constraints, options: MinimizeOptions) -> None:
        self._session = Session(options, constraints=constraints)

    async def start(self) -> None:
        pass

    async def minimize(self, pattern: TreePattern) -> "tuple[str, list]":
        return _normalize_result(self._session.minimize(pattern))

    async def update_constraints(self, add, drop) -> dict:
        return self._session.update_constraints(add, drop).to_json()

    def counters(self) -> dict:
        return self._session.counters()

    async def aclose(self) -> None:
        self._session.close()


class _ServiceTarget:
    """A live micro-batching MinimizationService."""

    kind = "service"

    def __init__(self, constraints, options: MinimizeOptions) -> None:
        from ..service.service import MinimizationService

        self._service = MinimizationService(options, constraints=constraints)

    async def start(self) -> None:
        await self._service.start()

    async def minimize(self, pattern: TreePattern) -> "tuple[str, list]":
        return _normalize_result(await self._service.submit(pattern))

    async def update_constraints(self, add, drop) -> dict:
        result = await self._service.update_constraints(add=add, drop=drop)
        return result.to_json()

    def counters(self) -> dict:
        return self._service.counters()

    async def aclose(self) -> None:
        await self._service.aclose()


class _TcpTarget:
    """A running ``repro-serve`` over the JSON-lines protocol."""

    kind = "tcp"

    def __init__(self, constraints, host: str, port: int) -> None:
        from ..resilience.client import ServiceClient

        self._client = ServiceClient(host, port)
        self._initial = constraints

    async def start(self) -> None:
        # The server was booted out-of-band: prove it serves the spec's
        # constraint set before replaying traffic against it.
        info = await asyncio.to_thread(self._client.request, {"op": "constraints"})
        expected = closure(ConstraintRepository(self._initial)).digest()
        if info.get("digest") != expected:
            raise ScenarioError(
                "tcp target serves a different constraint set than the "
                f"spec (server digest {info.get('digest')!r}, spec digest "
                f"{expected!r}); start repro-serve with the scenario's "
                "constraints"
            )

    async def minimize(self, pattern: TreePattern) -> "tuple[str, list]":
        response = await asyncio.to_thread(
            self._client.minimize, to_sexpr(pattern), fmt="sexpr"
        )
        return response["minimized"], [
            [int(i), str(t)] for i, t in response["eliminated"]
        ]

    async def update_constraints(self, add, drop) -> dict:
        payload: dict = {"op": "constraints"}
        if add:
            payload["add"] = list(add)
        if drop:
            payload["drop"] = list(drop)
        return await asyncio.to_thread(self._client.request, payload)

    def counters(self) -> dict:
        try:
            return self._client.server_stats()
        except Exception:  # noqa: BLE001 - stats are best-effort
            return {}

    async def aclose(self) -> None:
        self._client.close()


def _make_target(target: str, constraints, options: MinimizeOptions):
    if target == "session":
        return _SessionTarget(constraints, options)
    if target == "service":
        return _ServiceTarget(constraints, options)
    if target.startswith("tcp:"):
        _, host, port = target.split(":", 2)
        return _TcpTarget(constraints, host, int(port))
    raise ScenarioError(
        f"unknown target {target!r} (expected session, service, "
        "or tcp:HOST:PORT)"
    )


# ----------------------------------------------------------------------
# Data materialization for the evaluate op
# ----------------------------------------------------------------------


def _xml_of(pattern: TreePattern) -> str:
    """Materialize a pattern as one XML document that satisfies it:
    child edges nest directly, descendant edges go through a filler
    element (so ``/`` steps cannot accidentally match them)."""

    def render(node) -> str:
        inner = []
        for child in node.children:
            body = render(child)
            if child.edge is EdgeKind.DESCENDANT:
                body = f"<filler>{body}</filler>"
            inner.append(body)
        return f"<{node.type}>{''.join(inner)}</{node.type}>"

    return render(pattern.root)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    name: str
    target: str
    seed: int
    mode: str  # "sequential" | "paced"
    events: "list[ScenarioEvent]"
    digest: str
    op_counts: "dict[str, int]"
    ic_updates: int
    invalidated_replays: int
    surviving_oracle_entries: int
    verify_probes: int
    verify_failures: "list[dict]"
    counters: "dict[str, float]"
    elapsed_seconds: float

    def to_json(self, *, include_events: bool = False) -> dict:
        out = {
            "name": self.name,
            "target": self.target,
            "seed": self.seed,
            "mode": self.mode,
            "n_events": len(self.events),
            "digest": self.digest,
            "op_counts": dict(self.op_counts),
            "ic_updates": self.ic_updates,
            "invalidated_replays": self.invalidated_replays,
            "surviving_oracle_entries": self.surviving_oracle_entries,
            "verify_probes": self.verify_probes,
            "verify_failures": list(self.verify_failures),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "counters": {
                k: v
                for k, v in sorted(self.counters.items())
                if isinstance(v, (int, float))
            },
        }
        if include_events:
            out["events"] = [e.to_dict() for e in self.events]
        return out


class ScenarioRunner:
    """Execute one scenario plan against one target."""

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        target: str = "session",
        options: Optional[MinimizeOptions] = None,
        verify: bool = False,
        verify_probes: int = 4,
        paced: bool = False,
        time_scale: float = 0.0,
    ) -> None:
        self.spec = spec
        self.target_name = target
        self.options = options if options is not None else MinimizeOptions()
        self.verify = verify
        self.verify_probe_count = verify_probes
        self.paced = paced
        self.time_scale = time_scale
        self.plan = build_plan(spec)
        #: The runner's own view of the live constraint set; every
        #: target ack is digest-checked against it.
        self._mirror = closure(
            ConstraintRepository(self.plan.initial_constraints)
        )
        self._mirror_digest = self._mirror.digest()

    # -- public entry ---------------------------------------------------

    async def arun(self) -> ScenarioReport:
        target = _make_target(
            self.target_name, list(self.plan.initial_constraints), self.options
        )
        started = time.perf_counter()
        events: "list[ScenarioEvent]" = []
        op_counts: "dict[str, int]" = {}
        ic_updates = 0
        invalidated = 0
        surviving = 0
        verify_probes = 0
        verify_failures: "list[dict]" = []
        # The evaluate op runs client-side (matching is constraint-
        # independent), against documents materialized from each family.
        evaluator = Session(MinimizeOptions())
        trees = {}
        try:
            await target.start()
            pending: "list[asyncio.Task]" = []
            pace_started = time.perf_counter()
            for index, planned in enumerate(self.plan.ops):
                op_counts[planned.op] = op_counts.get(planned.op, 0) + 1
                if planned.op == "ic-update":
                    if pending:  # churn barrier in paced mode
                        await asyncio.gather(*pending)
                        pending = []
                    event = await self._run_ic_update(target, index, planned)
                    ic_updates += 1
                    invalidated += event.payload.get("_invalidated", 0)
                    surviving += event.payload.get("_surviving", 0)
                    event.payload.pop("_invalidated", None)
                    event.payload.pop("_surviving", None)
                    events.append(event)
                    if self.verify:
                        probes, failures = await self._verify_churn(target)
                        verify_probes += probes
                        verify_failures.extend(failures)
                    continue
                coro = self._run_request(
                    target, evaluator, trees, index, planned
                )
                if self.paced:
                    if self.time_scale > 0:
                        due = planned.offset * self.time_scale
                        elapsed = time.perf_counter() - pace_started
                        if due > elapsed:
                            await asyncio.sleep(due - elapsed)
                    task = asyncio.ensure_future(coro)
                    task.add_done_callback(
                        lambda t, _events=events: _events.append(t.result())
                        if t.exception() is None
                        else None
                    )
                    pending.append(task)
                else:
                    events.append(await coro)
            if pending:
                await asyncio.gather(*pending)
            counters = target.counters()
        finally:
            evaluator.close()
            await target.aclose()
        events.sort(key=lambda e: e.index)
        return ScenarioReport(
            name=self.spec.name,
            target=self.target_name,
            seed=self.spec.seed,
            mode="paced" if self.paced else "sequential",
            events=events,
            digest=event_log_digest(events),
            op_counts=op_counts,
            ic_updates=ic_updates,
            invalidated_replays=invalidated,
            surviving_oracle_entries=surviving,
            verify_probes=verify_probes,
            verify_failures=verify_failures,
            counters=counters,
            elapsed_seconds=time.perf_counter() - started,
        )

    def run(self) -> ScenarioReport:
        return asyncio.run(self.arun())

    # -- op execution ---------------------------------------------------

    def _variant(self, planned: _PlannedOp, *, second: bool = False) -> TreePattern:
        _, base = self.plan.families[planned.family]
        seed = planned.variant_seed_b if second else planned.variant_seed
        # Round-trip through sexpr so node ids are the parse-order ids
        # every backend sees: the tcp target ships queries as sexprs and
        # the server re-parses them, so without canonicalization the
        # eliminated-node ids (part of the event digest) would depend on
        # whether the query crossed a wire.
        return parse_sexpr(to_sexpr(isomorphic_shuffle(base, seed=seed)))

    async def _run_request(
        self, target, evaluator, trees, index: int, planned: _PlannedOp
    ) -> ScenarioEvent:
        event = ScenarioEvent(
            index=index,
            op=planned.op,
            tenant=planned.tenant,
            offset=planned.offset,
            family=planned.family,
        )
        if planned.op == "minimize":
            query = self._variant(planned)
            sexpr, eliminated = await target.minimize(query)
            event.payload = {
                "fingerprint": fingerprint(query),
                "result": result_digest(sexpr, eliminated),
                "constraints": self._mirror_digest,
            }
        elif planned.op == "equivalence-check":
            # Two members of the same family: equivalent under any
            # constraint set iff their minimal forms coincide (the
            # paper's uniqueness-of-the-minimal-query theorem makes
            # minimize-and-compare a sound equivalence procedure).
            query_a = self._variant(planned)
            query_b = self._variant(planned, second=True)
            sexpr_a, elim_a = await target.minimize(query_a)
            sexpr_b, elim_b = await target.minimize(query_b)
            equal = fingerprint(parse_sexpr(sexpr_a)) == fingerprint(
                parse_sexpr(sexpr_b)
            )
            # Cross-check through the containment oracle directly.
            # ``is_contained_in`` has no isomorphism fast path, so the
            # DP runs and its table lands in the process-global oracle
            # cache — the closure-free tier whose survival across churn
            # the surviving-oracle counter measures.
            oracle_equal = is_contained_in(query_a, query_b) and is_contained_in(
                query_b, query_a
            )
            event.payload = {
                "equal": equal,
                "oracle_equal": oracle_equal,
                "result_a": result_digest(sexpr_a, elim_a),
                "result_b": result_digest(sexpr_b, elim_b),
                "constraints": self._mirror_digest,
            }
        elif planned.op == "audit":
            query = self._variant(planned)
            sexpr, eliminated = await target.minimize(query)
            # Independent re-proof of the *served* answer: a cold
            # certified minimization of the same pattern, verified by
            # the definition-level checker, must agree byte-for-byte.
            # Every field below is deterministic under the spec seed
            # (the minimal query is unique), so the event is
            # digest-stable across targets.
            probe = parse_sexpr(to_sexpr(query))
            cold_options = self.options.with_overrides(
                certify=True, store_path=None, fault_plan=None, jobs=1
            )
            post_churn = sorted(self._mirror.base)
            with Session(cold_options, constraints=post_churn) as cold:
                cold_result = cold.minimize(probe)
                verdict = cold.check_certificate(cold_result)
            cold_sexpr, cold_elim = _normalize_result(cold_result)
            served_elim = [[int(i), str(t)] for i, t in eliminated]
            certificate = cold_result.certificate
            event.payload = {
                "fingerprint": fingerprint(query),
                "result": result_digest(sexpr, eliminated),
                "verified": bool(verdict)
                and (cold_sexpr, cold_elim) == (sexpr, served_elim),
                "witness_steps": (
                    len(certificate.steps) if certificate is not None else 0
                ),
                "constraints": self._mirror_digest,
            }
        elif planned.op == "evaluate":
            query = self._variant(planned)
            if planned.family not in trees:
                _, base = self.plan.families[planned.family]
                trees[planned.family] = parse_xml(_xml_of(base))
            answers = evaluator.evaluate(query, [trees[planned.family]])
            canonical = sorted([t, n] for t, n in answers)
            event.payload = {
                "matches": len(canonical),
                "answers": hashlib.sha256(
                    json.dumps(canonical, separators=(",", ":")).encode()
                ).hexdigest(),
            }
        else:  # pragma: no cover - plan only emits known ops
            raise ScenarioError(f"unplannable op {planned.op!r}")
        return event

    async def _run_ic_update(
        self, target, index: int, planned: _PlannedOp
    ) -> ScenarioEvent:
        with self._mirror.begin_update() as staged:
            for notation in planned.add:
                staged.add(parse_constraints(notation)[0])
            for notation in planned.drop:
                staged.drop(parse_constraints(notation)[0])
        self._mirror_digest = self._mirror.digest()
        result = await target.update_constraints(planned.add, planned.drop)
        served_digest = result.get("new_digest")
        if served_digest != self._mirror_digest:
            raise ScenarioError(
                f"constraint digest diverged at event {index}: target "
                f"serves {served_digest!r}, mirror expects "
                f"{self._mirror_digest!r}"
            )
        return ScenarioEvent(
            index=index,
            op="ic-update",
            tenant=planned.tenant,
            offset=planned.offset,
            payload={
                "added": list(planned.add),
                "dropped": list(planned.drop),
                "old_digest": result.get("old_digest"),
                "new_digest": served_digest,
                "changed": bool(result.get("changed")),
                # Stripped before hashing: cache sizes depend on what
                # the backend served before (a long-lived tcp server).
                "_invalidated": int(result.get("invalidated_replays", 0)),
                "_surviving": int(result.get("surviving_oracle_entries", 0)),
            },
        )

    async def _verify_churn(self, target) -> "tuple[int, list[dict]]":
        """Cold-probe the post-churn closure: family exemplars must
        minimize byte-identically on the live target and on a fresh
        session built from the post-churn repository."""
        failures: "list[dict]" = []
        probes = 0
        post_churn = sorted(self._mirror.base)
        with Session(self.options, constraints=post_churn) as cold:
            for family_index, (_, base) in enumerate(
                self.plan.families[: self.verify_probe_count]
            ):
                probes += 1
                probe = parse_sexpr(to_sexpr(base))  # canonical ids
                served_sexpr, served_elim = await target.minimize(probe)
                cold_sexpr, cold_elim = _normalize_result(cold.minimize(probe))
                if (served_sexpr, served_elim) != (cold_sexpr, cold_elim):
                    failures.append(
                        {
                            "family": family_index,
                            "served": result_digest(served_sexpr, served_elim),
                            "cold": result_digest(cold_sexpr, cold_elim),
                        }
                    )
        return probes, failures


def run_scenario(
    spec: ScenarioSpec,
    *,
    target: str = "session",
    options: Optional[MinimizeOptions] = None,
    verify: bool = False,
    paced: bool = False,
    time_scale: float = 0.0,
) -> ScenarioReport:
    """Replay ``spec`` against ``target``; the one-call entry point."""
    runner = ScenarioRunner(
        spec,
        target=target,
        options=options,
        verify=verify,
        paced=paced,
        time_scale=time_scale,
    )
    return runner.run()
