"""Micro-benchmarks for the core primitives under the algorithms.

Not figures of the paper, but the quantities its complexity analysis is
phrased in: the closure computation (quadratic in the type count), one
containment-mapping test, one ``redundant-leaf`` images check, and the
constraint repository's O(1) probes.
"""

from __future__ import annotations

import pytest

from repro.constraints.closure import closure
from repro.constraints.model import required_child
from repro.core.containment import has_containment_mapping
from repro.core.flat import FlatImagesEngine
from repro.workloads.querygen import chain_query, duplicate_random_branch, random_query


@pytest.mark.benchmark(group="micro: constraint closure (chain of N types)")
@pytest.mark.parametrize("n_types", [20, 40, 80])
def test_closure_chain(benchmark, n_types):
    base = [required_child(f"t{i}", f"t{i+1}") for i in range(n_types - 1)]
    repo = benchmark(closure, base)
    # Transitive ->> pairs: the quadratic growth the paper states.
    assert len(repo) >= (n_types - 1) * n_types // 2


@pytest.mark.benchmark(group="micro: repository point probe")
def test_repository_probe(benchmark):
    repo = closure([required_child(f"t{i}", f"t{i+1}") for i in range(60)])

    def probes():
        hits = 0
        for i in range(0, 59, 3):
            if repo.has_required_descendant(f"t{i}", f"t{i+30}"):
                hits += 1
        return hits

    assert benchmark(probes) >= 10


@pytest.mark.benchmark(group="micro: containment mapping test")
@pytest.mark.parametrize("size", [10, 30, 60])
def test_containment(benchmark, size):
    q1 = random_query(size, seed=size, max_fanout=3)
    q2 = duplicate_random_branch(q1, seed=size)
    assert benchmark(has_containment_mapping, q2, q1) in (True, False)


@pytest.mark.benchmark(group="micro: one redundant-leaf check (chain)")
@pytest.mark.parametrize("size", [25, 100])
def test_images_check(benchmark, size):
    query = chain_query(size)
    leaf = next(iter(query.leaves()))

    def check():
        return FlatImagesEngine(query).is_redundant_leaf(leaf)

    assert benchmark(check) is False  # distinct types: never redundant
