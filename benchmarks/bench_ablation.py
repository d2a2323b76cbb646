"""Ablation benchmarks for the implementation choices the paper calls out.

* **CIM enhancements** (Section 4): the enhanced driver (test each leaf
  at most once; early exits on the walk to the root) vs. the naive
  restart-after-every-deletion baseline.
* **Virtual vs. materialized temporaries** (Section 6.1): ACIM keeps
  augmentation rows only in the images/ancestor hash tables ("not
  physically added to the initial query"); the ``a·m·r`` strategy
  materializes them. Same final query — different constant factors.
* **CDM pre-filter** (already measured per-figure in ``bench_fig9.py``)
  is the third ablation the paper itself studies.
"""

from __future__ import annotations

import pytest

from repro.core.acim import acim_minimize
from repro.core.cim import cim_minimize
from repro.core.cim_naive import cim_minimize_naive
from repro.core.strategy import amr
from repro.workloads.querygen import duplicate_random_branch, random_query, redundancy_query

SIZES = [15, 30, 60]


def _cim_workload(size: int):
    """A query with plenty of CIM-removable structure: random base with
    several duplicated branches."""
    query = random_query(size // 2, seed=size, max_fanout=3)
    for i in range(3):
        query = duplicate_random_branch(query, seed=size + i)
    return query


@pytest.mark.benchmark(group="ablation: CIM enhanced (Figure 3)")
@pytest.mark.parametrize("size", SIZES)
def test_cim_enhanced(benchmark, size):
    query = _cim_workload(size)
    result = benchmark(cim_minimize, query)
    assert result.removed_count > 0


@pytest.mark.benchmark(group="ablation: CIM naive baseline")
@pytest.mark.parametrize("size", SIZES)
def test_cim_naive(benchmark, size):
    query = _cim_workload(size)
    result = benchmark(cim_minimize_naive, query)
    assert result.removed_count > 0


@pytest.mark.benchmark(group="ablation: redundancy checks, enhanced vs naive")
@pytest.mark.parametrize("size", [60])
def test_check_counts(benchmark, size):
    """The enhancements' effect in counters rather than seconds: the
    naive baseline performs strictly more redundancy checks."""
    query = _cim_workload(size)

    def both():
        enhanced = cim_minimize(query)
        naive = cim_minimize_naive(query)
        assert enhanced.pattern.isomorphic(naive.pattern)
        return enhanced.stats.redundancy_checks, naive.stats.redundancy_checks

    enhanced_checks, naive_checks = benchmark(both)
    assert enhanced_checks < naive_checks
    benchmark.extra_info["enhanced_checks"] = enhanced_checks
    benchmark.extra_info["naive_checks"] = naive_checks


def _acim_workload(size: int):
    """Half the nodes IC-redundant in groups of five, ample spine."""
    return redundancy_query(size, red_nodes=size // 10, red_degree=5, seed=size)


@pytest.mark.benchmark(group="ablation: ACIM with virtual targets (Section 6.1)")
@pytest.mark.parametrize("size", [40, 80])
def test_acim_virtual(benchmark, size, closed):
    query, ics = _acim_workload(size)
    repo = closed(("ablation", size), ics)
    benchmark(acim_minimize, query, repo)


@pytest.mark.benchmark(group="ablation: a*m*r with materialized temporaries")
@pytest.mark.parametrize("size", [40, 80])
def test_acim_materialized(benchmark, size, closed):
    query, ics = _acim_workload(size)
    repo = closed(("ablation", size), ics)
    direct = acim_minimize(query, repo).pattern
    result = benchmark(amr, query, repo)
    assert result.isomorphic(direct)
