"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import TreePattern
from repro.constraints.closure import closure
from repro.constraints.model import parse_constraints
from repro.constraints.repository import ConstraintRepository, coerce_repository
from repro.core.containment import equivalent, find_containment_mapping
from repro.core.edges import EdgeKind
from repro.data.generate import random_satisfying_tree
from repro.matching.evaluator import agree_on
from repro.workloads.querygen import (
    bushy_cdm_query,
    chain_constraints,
    random_query,
    right_deep_cdm_query,
)


def assert_valid_mapping(source: TreePattern, target: TreePattern, mapping: dict[int, int]):
    """Assert that ``mapping`` is a genuine containment mapping."""
    for v in source.nodes():
        assert v.id in mapping, f"node #{v.id} unmapped"
        u = target.node(mapping[v.id])
        assert u.has_type(v.type), f"type mismatch at #{v.id}"
        if v.is_output:
            assert u.is_output, "output node must map to the output node"
        if v.parent is not None:
            pu = target.node(mapping[v.parent.id])
            if v.edge is EdgeKind.CHILD:
                assert u.parent is pu and u.edge is EdgeKind.CHILD, (
                    f"c-edge broken at #{v.id}"
                )
            else:
                assert target.is_ancestor(pu, u), f"d-edge broken at #{v.id}"


def assert_equivalent(q1: TreePattern, q2: TreePattern, context: str = ""):
    """Assert absolute equivalence via the containment oracle, with a
    readable failure message."""
    assert equivalent(q1, q2), (
        f"queries not equivalent {context}\n--- q1 ---\n{q1.to_ascii()}"
        f"\n--- q2 ---\n{q2.to_ascii()}"
    )


def assert_semantically_equal_under(q1, q2, constraints, *, seeds=range(4), size=40):
    """Assert both queries answer identically on several random databases
    satisfying the constraints."""
    repo = closure(coerce_repository(constraints))
    types = sorted(q1.node_types() | q2.node_types() | repo.types())
    for seed in seeds:
        db = random_satisfying_tree(types, repo, size=size, seed=seed)
        assert agree_on(q1, q2, db), (
            f"answer sets differ on satisfying database (seed {seed})\n"
            f"--- q1 ---\n{q1.to_ascii()}\n--- q2 ---\n{q2.to_ascii()}\n"
            f"--- db ---\n{db.to_ascii()}"
        )


def hom_exists(source: TreePattern, target: TreePattern) -> bool:
    """Convenience wrapper returning containment-mapping existence."""
    return find_containment_mapping(source, target) is not None


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20010521)  # SIGMOD 2001 conference date


@pytest.fixture
def random_queries() -> list[TreePattern]:
    """A deterministic corpus of small random patterns."""
    return [random_query(size, seed=seed) for seed in range(6) for size in (3, 5, 8, 12)]


@pytest.fixture(scope="module")
def paper_closure() -> ConstraintRepository:
    """The Figure 8 depth chain plus the Figure 7(a) anchors: 107 base
    constraints, 5065 after closure."""
    chain = [f"T{i} -> T{i + 1}" for i in range(99)]
    anchors = [f"S{i} -> R{i}" for i in range(8)]
    repo = closure(parse_constraints("\n".join(chain + anchors)))
    assert len(repo) == 5065
    return repo


def spine_query(rng: random.Random, size: int) -> TreePattern:
    """A Figure 7(a) query for :func:`paper_closure`: a spine
    ``S0*/S1/...`` of ``size`` nodes whose first anchors carry copies of
    an IC-implied ``R`` leaf (``S{i} -> R{i}``)."""
    pattern = TreePattern("S0", root_is_output=True)
    spine = [pattern.root]
    for depth in range(1, size):
        spine.append(pattern.add_child(spine[-1], f"S{depth}", EdgeKind.CHILD))
    for depth in rng.sample(range(8), rng.randint(1, 4)):
        for _ in range(rng.randint(1, 4)):
            pattern.add_child(spine[depth], f"R{depth}", EdgeKind.CHILD)
    return pattern


def incremental_workload(size: int, *, shape: str = "right-deep"):
    """A Figure 8(b)-shaped query (``right-deep`` or ``bushy``) typed by
    depth, under the closed depth-chain set ``T(d) -> T(d+1)``. Under
    ACIM every node below the marked root is redundant, so the
    elimination loop makes ``size - 1`` deletions on one engine. The
    type cycle (150) exceeds every size used, so the chain is acyclic."""
    if shape == "right-deep":
        query = right_deep_cdm_query(size, cycle=150)
        n_constraints = size
    else:
        query = bushy_cdm_query(size, cycle=150)
        n_constraints = query.depth + 2
    return query, closure(chain_constraints(n_constraints))
