"""churn-certified: a certified restart under live IC churn.

An untimed prelude, in its own process, serves an earlier stream into a
persistent store. The timed run boots ``Session(MinimizeOptions(
store_path=..., certify=True))`` on that file and one caller sends a
Zipf mix: minimize (~75%), equivalence checks (~20%) and, every 25
operations, an IC update toggling one constraint of a small pool (adds
close incrementally, drops recompute the closure in full).

Only this workload writes and warm-starts the store, runs the
independent checker on every answer, chases and runs the containment DP
behind the 512-entry oracle cache (about 48^2 ordered pairs are in
play), and invalidates caches. Implied chains stay at most three links
deep: the containment chase doubles the chased pattern per chain link.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from . import host, inputs, reference, trace
from .common import WORK, Outcome, median, min_samples, peak_rss_mb, percentile

#: Session boots per run; ``setup_s`` is their median.
SETUPS = 15
#: Measured slices per run, and the pause between two of them.
SLICES = 8
PAUSE = 1.5
#: Operations generated per measured second; more than the host serves.
OPS_PER_SECOND = 1500
#: Deepest implied chain of required child/descendant links allowed.
MAX_CHAIN = 3


@dataclass
class Measured:
    """One closed-loop phase: per operation ``(index, kind, latency,
    result, base)`` with ``base`` the IC base set it ran under."""

    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0
    next_index: int = 0
    base: tuple = ()
    #: Multiplier to the nominal vCPU speed (see host.py).
    factor: float = 1.0

    @property
    def throughput(self) -> float:
        return len(self.records) / self.elapsed

    def latencies(self, *kinds) -> list[float]:
        return [r[2] for r in self.records if r[1] in kinds]


def _parse(notations):
    from repro.constraints.model import parse_constraints

    return parse_constraints("\n".join(notations))


def _session(store_path: str, constraints):
    from repro import MinimizeOptions, Session

    return Session(MinimizeOptions(store_path=store_path, certify=True),
                   constraints=_parse(constraints))


def _apply(session, op, patterns):
    if op.kind == "minimize":
        return session.minimize(patterns[op.a[0]][op.a[1]])
    if op.kind == "equiv":
        return session.equivalent(patterns[op.a[0]][op.a[1]], patterns[op.b[0]][op.b[1]])
    return session.update_constraints(add=op.add or None, drop=op.drop or None)


def prelude(store_path: str, constraints: list, variants: list, ops: list) -> None:
    """Serve an earlier stream into the store (run in its own process)."""
    from .common import use_checkout_sources

    use_checkout_sources()
    patterns = [[inputs.to_pattern(v) for v in vs] for vs in variants]
    with _session(store_path, constraints) as session:
        for op in ops:
            _apply(session, op, patterns)


def _measure(session, patterns, ops, start_index, base, seconds, minimum, tracer=None):
    out = Measured(base=base)
    start = perf_counter()
    deadline = start + seconds
    index = start_index
    while index < len(ops) and (perf_counter() < deadline or len(out.records) < minimum):
        if perf_counter() > start + 3 * seconds:
            break
        op = ops[index]
        sent = perf_counter()
        try:
            with tracer.request(index) if tracer else nullcontext():
                result = _apply(session, op, patterns)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            out.errors.append(f"op {index} ({op.kind}): {type(exc).__name__}: {exc}")
        else:
            latency = perf_counter() - sent
            if op.kind == "update":
                out.base = op.base
            out.records.append((index, op.kind, latency, result, out.base))
        index += 1
    out.elapsed = perf_counter() - start
    out.next_index = index
    return out


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    data = inputs.churn_inputs(seed, int(OPS_PER_SECOND * seconds) + 500)
    _guard_constraint_sets(outcome)
    store_path = os.path.join(WORK, f"churn-seed{seed}-{os.getpid()}.sqlite")
    _remove_store(store_path)
    try:
        return _run(outcome, data, store_path, seconds, traced)
    finally:
        _remove_store(store_path)


def _run(outcome, data, store_path, seconds, traced) -> Outcome:
    child = multiprocessing.get_context("spawn").Process(
        target=prelude, args=(store_path, data.constraints, data.variants, data.prelude))
    child.start()
    child.join()
    if child.exitcode != 0:
        outcome.fail(f"prelude process exited with {child.exitcode}")
        return outcome
    patterns = [[inputs.to_pattern(v) for v in vs] for vs in data.variants]
    boot = tuple(data.constraints)

    meter = host.Speedometer()
    setups = []
    for attempt in range(SETUPS if not traced else 1):
        if attempt:
            session.close()
        cpu, before = meter.fastest()
        started = perf_counter()
        session = _session(store_path, data.constraints)
        session.constraints_digest()  # closure computed, store warm-started
        elapsed = perf_counter() - started
        setups.append(elapsed * host.factor(before, meter.probe(cpu)))
    warm_loaded = session.counters().get("store_warm_loaded", 0)
    certified_before = session.counters().get("certified", 0)

    if traced:
        plain = _measure(session, patterns, data.stream, 0, boot, seconds / 2, 20)
        tracer = trace.install(trace.Tracer())
        window_start = perf_counter()
        try:
            traced_run = _measure(session, patterns, data.stream, plain.next_index,
                                  plain.base, seconds / 2, 20, tracer)
        finally:
            tracer.uninstall()
        window_end = perf_counter()
        runs = (plain, traced_run)
    else:
        # Measured slices with pauses between them, so each run samples
        # the host over a longer span; each slice runs pinned between two
        # probes of its vCPU.
        runs, index, base = [], 0, boot
        for number in range(SLICES):
            if number:
                time.sleep(PAUSE)
            cpu, before = meter.fastest()
            measured = _measure(session, patterns, data.stream, index, base,
                                seconds / SLICES,
                                -(-min_samples(50) * inputs.UPDATE_EVERY // SLICES))
            measured.factor = host.factor(before, meter.probe(cpu))
            runs.append(measured)
            index, base = measured.next_index, measured.base
    meter.release()
    rss = peak_rss_mb()
    certified = session.counters().get("certified", 0) - certified_before
    session.close()

    records = [r for m in runs for r in m.records]
    for m in runs:
        for error in m.errors:
            outcome.fail(error)
    outcome.attempted = len(records) + sum(len(m.errors) for m in runs)
    minimized = [r for r in records if r[1] == "minimize"]
    modes = {r[3].mode for r in records if r[1] == "update"}
    outcome.guard({"incremental", "full"} <= modes,
                  f"IC updates ran only {sorted(modes)}; need incremental and full")
    outcome.guard(warm_loaded > 0, "the boot warm-started no store records")
    outcome.guard(certified >= len(minimized)
                  and all(r[3].certificate is not None for r in minimized),
                  f"{certified} certified checks for {len(minimized)} answers")
    _check(outcome, data, records)

    if traced:
        spans, events = trace.within(tracer.spans, tracer.events, window_start, window_end)
        outcome.metrics = trace.layer_metrics(spans, events, len(traced_run.records), percentile)
        outcome.metrics["trace.overhead_ratio"] = traced_run.throughput / plain.throughput
        outcome.tracer = tracer
        return outcome

    def latencies(*kinds):
        return [latency * m.factor for m in runs for latency in m.latencies(*kinds)]

    requests = latencies("minimize", "equiv")
    p50 = percentile(requests, 50) * 1e3
    outcome.metrics = {
        "throughput_ops_s": (sum(len(m.records) for m in runs)
                             / sum(m.elapsed * m.factor for m in runs)),
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(requests, 90) * 1e3,
        # One caller: every request is alone in flight.
        "solo_p50_ms": p50,
        "equiv_p50_ms": percentile(latencies("equiv"), 50) * 1e3,
        "update_p50_ms": percentile(latencies("update"), 50) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    return outcome


def _closed(notations):
    from repro.constraints.closure import closure
    from repro.constraints.repository import ConstraintRepository

    return closure(ConstraintRepository(_parse(notations)))


def chain_depth(closed) -> int:
    """Longest chain of required child/descendant links in a closed
    repository; raises ``ValueError`` on a cycle (a type requiring its
    own type, which no finite database satisfies)."""
    from repro.constraints.model import ConstraintKind

    kinds = (ConstraintKind.REQUIRED_CHILD, ConstraintKind.REQUIRED_DESCENDANT)
    depth: dict[str, int] = {}
    active: set[str] = set()

    def visit(t: str) -> int:
        if t in depth:
            return depth[t]
        if t in active:
            raise ValueError(f"type {t!r} requires itself")
        active.add(t)
        below = [visit(u) for kind in kinds for u in closed.targets(kind, t)]
        active.discard(t)
        depth[t] = 1 + max(below) if below else 0
        return depth[t]

    return max((visit(t) for t in closed.types()), default=0)


def _guard_constraint_sets(outcome: Outcome) -> None:
    """Every IC set the toggles can reach is finitely satisfiable with
    implied chains at most :data:`MAX_CHAIN` deep."""
    from repro.core.ic_containment import finitely_satisfiable

    for state in inputs.churn_states():
        closed = _closed(state)
        try:
            deep = chain_depth(closed)
        except ValueError as exc:
            outcome.guard(False, f"IC set not finitely satisfiable: {exc}")
            continue
        outcome.guard(finitely_satisfiable(closed) and deep <= MAX_CHAIN,
                      f"IC set with chains {deep} deep (limit {MAX_CHAIN})")


def _check(outcome: Outcome, data, records) -> None:
    """Answers against cold certified references per closure, verdicts
    against recomputation with the oracle cache off, digests against a
    mirror closure."""
    from repro.core.ic_containment import is_contained_in_under
    from repro.core.oracle_cache import oracle_cache_disabled

    closures = {}
    wanted: dict[tuple, set] = {}
    for index, kind, _, result, base in records:
        if base not in closures:
            closures[base] = _closed(base)
        if kind == "minimize":
            wanted.setdefault(base, set()).add(data.stream[index].a[0])
    answers = {}
    for base, families in wanted.items():
        order = sorted(families)
        with reference.cold_session(base) as session:
            solved = reference.solve(session, [data.families[f] for f in order])
        answers.update({(base, f): key for f, (key, _) in zip(order, solved)})

    verdicts = {}
    with oracle_cache_disabled():
        for index, kind, _, result, base in records:
            op = data.stream[index]
            if kind == "minimize":
                if result.pattern.canonical_key() != answers[(base, op.a[0])]:
                    outcome.fail(f"op {index}: minimized answer differs from the reference")
            elif kind == "equiv":
                if op.a[0] == op.b[0]:
                    expected = True  # variants of one family are isomorphic
                else:
                    key = (base, op.a[0], op.b[0])
                    if key not in verdicts:
                        a, b = (inputs.to_pattern(data.families[f]) for f in key[1:])
                        closed = closures[base]
                        verdicts[key] = (is_contained_in_under(a, b, closed)
                                         and is_contained_in_under(b, a, closed))
                    expected = verdicts[key]
                if result is not expected:
                    outcome.fail(f"op {index}: equivalence verdict {result}, expected {expected}")
            elif result.new_digest != closures[base].digest():
                outcome.fail(f"op {index}: closure digest differs from the mirror closure")


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass
