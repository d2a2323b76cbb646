"""Tests of the benchmark's own code (not of the program it measures).

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import common, inputs, run, trace  # noqa: E402
from perfbench.trace import Span  # noqa: E402

common.use_checkout_sources()


# -- percentiles -------------------------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 90) == 90
    assert common.percentile([float(v) for v in range(20)], 50) == 9.0


def test_percentiles_need_ten_samples_beyond():
    with pytest.raises(common.TooFewSamples):
        common.percentile(range(99), 90)
    assert common.percentile(range(100), 90) == 89
    with pytest.raises(common.TooFewSamples):
        common.percentile(range(19), 50)
    assert common.min_samples(90) == 100
    assert common.min_samples(50) == 20
    with pytest.raises(ValueError):
        common.percentile(range(200), 100)


# -- self time ---------------------------------------------------------------


def _span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end, None, None, None, None)


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(1, None, "api.root", 0.0, 10.0),
        _span(2, 1, "batch.a", 1.0, 4.0),
        _span(3, 2, "core.a1", 2.0, 3.0),
        _span(4, 1, "batch.b", 3.0, 6.0),   # overlaps a (another thread)
        _span(5, 1, "store.late", 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)  # covered [1,6] and [9,10]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_split_sums_to_one_and_skips_waits():
    spans = [
        _span(1, None, "service.protocol", 0.0, 0.010),
        _span(2, 1, "service.wait", 0.001, 0.009),
        _span(3, None, "api.minimize_many", 0.002, 0.008),
        _span(4, 3, "batch.minimize_all", 0.003, 0.007),
    ]
    metrics = trace.layer_metrics(spans, [], 1, common.percentile)
    shares = [metrics[f"split.{layer}_share"] for layer in trace.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["split.service_share"] == pytest.approx(2 / 8)
    assert metrics["service.protocol_ms_per_req"] == pytest.approx(2.0)
    assert set(metrics) == {name for name, _, _ in trace.PER_LAYER} - {"trace.overhead_ratio"}


# -- the tracer --------------------------------------------------------------


def test_tracer_nests_spans_across_tasks_and_threads():
    module = types.SimpleNamespace()

    def leaf():
        return "leaf"

    def middle():
        return module.leaf()

    async def top():
        return await asyncio.to_thread(module.middle)

    module.leaf, module.middle, module.top = leaf, middle, top
    tracer = trace.Tracer()
    tracer.wrap(module, "leaf", "core.leaf")
    tracer.wrap(module, "middle", "batch.middle")
    tracer.wrap(module, "top", "service.top", root=True)

    async def two_requests():
        return await asyncio.gather(module.top(), module.top())

    assert asyncio.run(two_requests()) == ["leaf", "leaf"]
    tracer.uninstall()
    assert module.leaf is leaf and module.top is top
    by_id = {span.id: span for span in tracer.spans}
    leaves = [s for s in tracer.spans if s.name == "core.leaf"]
    assert len(leaves) == 2
    roots = set()
    for span in leaves:
        middle_span = by_id[span.parent]
        root_span = by_id[middle_span.parent]
        assert (middle_span.name, root_span.name) == ("batch.middle", "service.top")
        assert span.request == middle_span.request == root_span.id
        roots.add(root_span.id)
    assert len(roots) == 2


def test_install_and_uninstall_restore_the_program():
    import repro.api as api
    import repro.constraints.repository as repository

    before = (api.Session.minimize_many, repository.ConstraintRepository.__iter__,
              api.to_xpath)
    tracer = trace.install(trace.Tracer())
    assert api.Session.minimize_many is not before[0]
    tracer.uninstall()
    assert (api.Session.minimize_many, repository.ConstraintRepository.__iter__,
            api.to_xpath) == before


def test_speedometer_pins_to_the_probed_vcpu_and_releases():
    from perfbench import host

    everything = os.sched_getaffinity(0)
    meter = host.Speedometer()
    cpu, seconds = meter.fastest()
    assert os.sched_getaffinity(0) == {cpu} and cpu in meter.cpus
    assert 0 < seconds < 1.0
    meter.release()
    assert os.sched_getaffinity(0) == everything
    assert host.factor(host.NOMINAL, host.NOMINAL) == pytest.approx(1.0)
    assert host.factor(2 * host.NOMINAL, 2 * host.NOMINAL) == pytest.approx(0.5)


def test_reference_closure_keeps_the_real_digest():
    from perfbench import reference
    from repro.constraints.closure import closure
    from repro.constraints.model import parse_constraints
    from repro.constraints.repository import ConstraintRepository

    closed = closure(ConstraintRepository(parse_constraints("a -> b; b ->> c; c ~ d")))
    copy = reference._Closed(closed)
    assert copy.digest() == closed.digest() and copy.is_closed and list(copy) == list(closed)


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = inputs.encode(workload, 7, length=60)
    assert first == inputs.encode(workload, 7, length=60)
    assert first != inputs.encode(workload, 8, length=60)


def test_cold_paper_queries_are_distinct_and_sized():
    queries = inputs.cold_paper_inputs(3, 120)
    assert len({inputs.canon(q.spec) for q in queries}) == 120
    assert all(15 <= inputs.spec_size(q.spec) <= 80 for q in queries)
    assert {q.kind for q in queries[:4]} == set(inputs.KINDS)


def test_paper_constructions_have_their_known_minimum():
    from repro import MinimizeOptions, Session
    from repro.constraints.model import parse_constraints

    queries = [q for q in inputs.cold_paper_inputs(4, 12) if q.kind != "twig"][:3]
    constraints = parse_constraints("\n".join(inputs.paper_constraints()))
    with Session(MinimizeOptions(), constraints=constraints) as session:
        for query in queries:
            result = session.minimize(inputs.to_pattern(query.spec))
            assert result.output_size == query.expected_size


def test_churn_constraint_sets_stay_shallow_and_satisfiable():
    from perfbench import churn

    depths = {churn.chain_depth(churn._closed(state)) for state in inputs.churn_states()}
    assert max(depths) == churn.MAX_CHAIN
    with pytest.raises(ValueError):
        churn.chain_depth(churn._closed(["a -> b", "b ->> a"]))
    outcome = common.Outcome()
    churn._guard_constraint_sets(outcome)
    assert outcome.problems == []


# -- the contract ------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
