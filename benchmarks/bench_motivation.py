"""Motivation benchmark: minimization pays off at *match* time.

Not a figure of the paper, but its opening argument ("the efficiency of
tree pattern matching depends on the size of the pattern"): evaluate a
redundant query and its minimized form against generated documents and
compare wall-clock matching time, with an assertion that answers agree
and the cost estimate ranks the two correctly.
"""

from __future__ import annotations

import pytest

from repro.constraints.closure import closure
from repro.core.pipeline import minimize
from repro.data.generate import random_satisfying_tree
from repro.matching import EmbeddingEngine
from repro.matching.stats import DocumentStatistics, estimate_cost
from repro.workloads.querygen import redundancy_query


@pytest.fixture(scope="module")
def workload():
    query, ics = redundancy_query(31, red_nodes=3, red_degree=5, seed=31)
    repo = closure(ics)
    minimized = minimize(query, repo).pattern
    types = sorted(query.node_types())
    documents = [
        random_satisfying_tree(types, repo, size=400, seed=seed) for seed in range(3)
    ]
    return query, minimized, documents


@pytest.mark.benchmark(group="motivation: matching the original query")
def test_match_original(benchmark, workload):
    query, _, documents = workload

    def run():
        return [EmbeddingEngine(query, d).answer_set() for d in documents]

    benchmark(run)


@pytest.mark.benchmark(group="motivation: matching the minimized query")
def test_match_minimized(benchmark, workload):
    query, minimized, documents = workload

    def run():
        return [EmbeddingEngine(minimized, d).answer_set() for d in documents]

    answers = benchmark(run)
    originals = [EmbeddingEngine(query, d).answer_set() for d in documents]
    assert answers == originals


def test_cost_estimate_ranks_correctly(workload):
    query, minimized, documents = workload
    stats = DocumentStatistics.collect(documents)
    assert estimate_cost(minimized, stats) <= estimate_cost(query, stats)
