"""Figure 8 benchmarks — studying CDM.

Figure 8(a): CDM time on a fixed 127-node query is independent of the
number of constraints in the (hash-indexed) repository.

Figure 8(a), ACIM: the same premise for ACIM and the CDM+ACIM
pipeline — time on a fixed query does not grow with the number of
closed constraints that mention none of its types.

Figure 8(b): CDM time vs query size for right-deep / bushy /
varying-fanout workloads where every edge is redundant — linear in size
for fixed fanout, quadratic along the fanout axis.
"""

from __future__ import annotations

import pytest

from repro.constraints.model import required_child
from repro.core.acim import acim_minimize
from repro.core.cdm import cdm_minimize
from repro.core.pipeline import minimize
from repro.workloads.icgen import relevant_constraints
from repro.workloads.querygen import (
    bushy_cdm_query,
    cyclic_chain_constraints,
    fanout_cdm_query,
    fanout_constraints,
    redundancy_query,
    right_deep_cdm_query,
)


@pytest.mark.benchmark(group="fig8a: CDM vs repository size (127-node query)")
@pytest.mark.parametrize("n_constraints", [0, 50, 100, 150])
def test_fig8a_constraint_sweep(benchmark, n_constraints, closed):
    query = bushy_cdm_query(127)
    repo = closed(
        ("fig8a", n_constraints),
        relevant_constraints(query, n_constraints, seed=n_constraints),
    )
    benchmark(cdm_minimize, query, repo)


@pytest.mark.benchmark(group="fig8a-acim: ACIM/pipeline vs irrelevant closed constraints")
@pytest.mark.parametrize("stage", ["acim", "pipeline"])
@pytest.mark.parametrize("chain_links", [0, 40, 99])
def test_fig8a_acim_irrelevant_sweep(benchmark, stage, chain_links, closed):
    query, driving = redundancy_query(20, red_nodes=2, red_degree=2, seed=0)
    chain = [required_child(f"X{i}", f"X{i + 1}") for i in range(chain_links)]
    repo = closed(("fig8a-acim", chain_links), driving + chain)
    run = acim_minimize if stage == "acim" else minimize
    run(query, repo)  # the repository's per-closure facts, as on load
    benchmark(run, query, repo)


@pytest.mark.benchmark(group="fig8b: CDM right-deep")
@pytest.mark.parametrize("size", [20, 60, 100, 140])
def test_fig8b_right_deep(benchmark, size, closed):
    query = right_deep_cdm_query(size)
    repo = closed("fig8b-cyclic", cyclic_chain_constraints())
    result = benchmark(cdm_minimize, query, repo)
    assert result.pattern.size == 1


@pytest.mark.benchmark(group="fig8b: CDM bushy")
@pytest.mark.parametrize("size", [20, 60, 100, 140])
def test_fig8b_bushy(benchmark, size, closed):
    query = bushy_cdm_query(size)
    repo = closed("fig8b-cyclic", cyclic_chain_constraints())
    result = benchmark(cdm_minimize, query, repo)
    assert result.pattern.size == 1


@pytest.mark.benchmark(group="fig8b: CDM varying fanout")
@pytest.mark.parametrize("fanout", [19, 59, 99, 139])
def test_fig8b_fanout(benchmark, fanout, closed):
    query = fanout_cdm_query(fanout)
    repo = closed(("fig8b-fanout", fanout), fanout_constraints(fanout))
    result = benchmark(cdm_minimize, query, repo)
    assert result.pattern.size == 1
