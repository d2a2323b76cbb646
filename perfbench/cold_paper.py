"""cold-paper: one caller, ``Session.minimize``, every query distinct.

Every query misses the memo, so nearly all time is ``core`` work under
the paper-sized IC set (107 base constraints, 5065 after closure):
Figure 7(a) redundancy queries and Figure 8(b) right-deep/bushy shapes,
where CDM removes most nodes, and random twigs with one duplicated
branch, where only ACIM's containment step removes any.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from . import host, inputs, reference, trace
from .common import Outcome, median, min_samples, peak_rss_mb, percentile

#: Session boots per run; ``setup_s`` is their median.
SETUPS = 5
#: Measured slices per run.
SLICES = 8
#: Queries generated per measured second; more than the host can serve.
QUERIES_PER_SECOND = 40


def _session(constraints):
    from repro import MinimizeOptions, Session

    return Session(MinimizeOptions(), constraints=constraints)


@dataclass
class Measured:
    """One closed-loop phase: ``(index, QueryResult)`` answers, their
    latencies in seconds, failed operations, wall time, next input."""

    answers: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0
    next_index: int = 0
    #: Multiplier to the nominal vCPU speed (see host.py).
    factor: float = 1.0

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed


def _measure(session, patterns, start_index, seconds, minimum, tracer=None) -> Measured:
    """Minimize ``patterns[start_index:]`` one at a time for ``seconds``
    (longer, up to three times as long, while fewer than ``minimum``
    answers came back)."""
    answers, latencies, errors = [], [], []
    start = perf_counter()
    deadline = start + seconds
    index = start_index
    while index < len(patterns) and (perf_counter() < deadline or len(latencies) < minimum):
        if perf_counter() > start + 3 * seconds:
            break
        sent = perf_counter()
        try:
            with tracer.request(index) if tracer else nullcontext():
                result = session.minimize(patterns[index])
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            errors.append(f"query {index}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(perf_counter() - sent)
            answers.append((index, result))
        index += 1
    return Measured(answers, latencies, errors, perf_counter() - start, index)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.constraints.model import parse_constraints

    outcome = Outcome()
    constraints = inputs.paper_constraints()
    parsed = parse_constraints("\n".join(constraints))
    queries = inputs.cold_paper_inputs(seed, int(QUERIES_PER_SECOND * seconds) + 200)
    patterns = [inputs.to_pattern(query.spec) for query in queries]

    with reference.Pool(constraints) as pool:
        meter = host.Speedometer()
        setups = []

        def boot():
            cpu, before = meter.fastest()
            started = perf_counter()
            session = _session(parsed)
            session.constraints_digest()  # closure computed: ready to serve
            elapsed = perf_counter() - started
            setups.append(elapsed * host.factor(before, meter.probe(cpu)))
            return session

        session = boot()
        if traced:
            half = seconds / 2
            plain = _measure(session, patterns, 0, half, 20)
            tracer = trace.install(trace.Tracer())
            window = [perf_counter()]
            try:
                traced_run = _measure(session, patterns, plain.next_index, half, 20, tracer)
            finally:
                tracer.uninstall()
            window.append(perf_counter())
            slices = [plain, traced_run]
        else:
            # Measured slices alternate with this run's other work (the
            # reference checks of the slice just measured, further setup
            # samples), so each run samples the host over a longer span;
            # each slice runs pinned between two probes of its vCPU.
            slices, index = [], 0
            for _ in range(SLICES):
                cpu, before = meter.fastest()
                measured = _measure(session, patterns, index, seconds / SLICES,
                                    -(-min_samples(90) // SLICES))
                measured.factor = host.factor(before, meter.probe(cpu))
                slices.append(measured)
                index = measured.next_index
                _check(outcome, pool, queries, measured.answers)
                if len(setups) < SETUPS:
                    boot().close()
        meter.release()
        rss = peak_rss_mb()
        session.close()
        if traced:
            _check(outcome, pool, queries, plain.answers + traced_run.answers)

    answers = [a for m in slices for a in m.answers]
    for m in slices:
        for error in m.errors:
            outcome.fail(error)
    outcome.attempted = len(answers) + sum(len(m.errors) for m in slices)
    outcome.guard(all(not result.cache_hit for _, result in answers),
                  "cold-paper served a memo hit; its queries must all be distinct")

    if traced:
        spans, events = trace.within(tracer.spans, tracer.events, *window)
        outcome.metrics = trace.layer_metrics(
            spans, events, len(traced_run.latencies), percentile)
        outcome.metrics["trace.overhead_ratio"] = traced_run.throughput / plain.throughput
        outcome.tracer = tracer
        return outcome

    latencies = [latency * m.factor for m in slices for latency in m.latencies]
    p50 = percentile(latencies, 50) * 1e3
    outcome.metrics = {
        "throughput_ops_s": len(latencies) / sum(m.elapsed * m.factor for m in slices),
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        # One caller, so every request is alone in flight; there are no
        # equivalence checks or IC updates, so those carry latency_p50.
        "solo_p50_ms": p50,
        "equiv_p50_ms": p50,
        "update_p50_ms": p50,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    return outcome


def _check(outcome: Outcome, pool, queries, answers) -> None:
    """Served answers against their cold certified references and, for
    the paper constructions, the known output size."""
    expected = pool.solve([queries[i].spec for i, _ in answers])
    for (index, result), (key, size) in zip(answers, expected):
        query = queries[index]
        if result.pattern.canonical_key() != key:
            outcome.fail(f"query {index} ({query.kind}): served answer differs from the reference")
        elif query.expected_size is not None and size != query.expected_size:
            outcome.fail(f"query {index} ({query.kind}): {size} nodes, expected {query.expected_size}")
