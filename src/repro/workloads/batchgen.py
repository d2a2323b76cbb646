"""Workload generators for the batch minimization backend.

The paper's experiments (Figures 7–9) minimize *workloads* of generated
queries, not single patterns. This module builds such workloads in the
regime the batch backend targets: many queries, one shared constraint
repository, and a controlled amount of structural duplication —
isomorphic queries under renamed node ids and shuffled sibling order, as
produced by real query logs and by the paper's generators when run over
a parameter grid.

All generators are deterministic given their arguments.
"""

from __future__ import annotations

import random
from typing import Optional

from ..constraints.model import IntegrityConstraint
from ..core.pattern import TreePattern
from .querygen import (
    bushy_cdm_query,
    chain_constraints,
    redundancy_query,
    right_deep_cdm_query,
)

__all__ = ["isomorphic_shuffle", "batch_workload", "chaos_workload", "BATCH_WORKLOAD_KINDS"]

#: Workload flavours understood by :func:`batch_workload`.
BATCH_WORKLOAD_KINDS = ("fig7", "fig8", "mixed")

#: Type-cycle length for the Figure 8 shapes — larger than any size used,
#: so depth types stay distinct.
_FIG8_CYCLE = 150


def isomorphic_shuffle(
    pattern: TreePattern, *, seed: Optional[int] = None, rng: Optional[random.Random] = None
) -> TreePattern:
    """A structurally identical copy with shuffled sibling order and
    fresh (construction-order) node ids.

    The result is isomorphic to ``pattern`` —
    :func:`repro.core.fingerprint.fingerprint` collides by construction —
    but is a genuinely different object for the per-query pipeline:
    different ids, different child order. Used to inject realistic
    duplicate queries into batch workloads and to property-test the
    fingerprint.
    """
    r = rng if rng is not None else random.Random(seed)
    clone = TreePattern(pattern.root.type, root_is_output=pattern.root.is_output)
    stack = [(pattern.root, clone.root)]
    while stack:
        original, twin = stack.pop()
        twin.extra_types = original.extra_types
        children = list(original.children)
        r.shuffle(children)
        for child in children:
            copy = clone.add_child(
                twin,
                child.type,
                child.edge,
                is_output=child.is_output,
                temporary=child.temporary,
            )
            stack.append((child, copy))
    return clone


def _fig7_bases(distinct: int, size: int, rng: random.Random):
    """Figure 7(a)-style bases: fixed size, varying redundancy placement."""
    bases: list[TreePattern] = []
    constraints: list[IntegrityConstraint] = []
    for i in range(distinct):
        red_nodes = 1 + i % 3
        degree = max(1, (size // 4) // red_nodes)
        query, driving = redundancy_query(
            size, red_nodes=red_nodes, red_degree=degree, seed=rng.randrange(1 << 30)
        )
        bases.append(query)
        constraints.extend(driving)
    return bases, constraints


def _fig8_bases(distinct: int, size: int, rng: random.Random):
    """Figure 8(b)-style bases: right-deep and bushy depth-typed shapes
    of varying size under the depth-chain constraint set."""
    bases: list[TreePattern] = []
    max_size = 1
    for i in range(distinct):
        shape_size = max(4, size - 3 * (i // 2))
        max_size = max(max_size, shape_size)
        maker = right_deep_cdm_query if i % 2 == 0 else bushy_cdm_query
        bases.append(maker(shape_size, cycle=_FIG8_CYCLE))
    return bases, chain_constraints(max_size)


def batch_workload(
    n_queries: int,
    *,
    kind: str = "fig8",
    distinct: int = 8,
    size: int = 40,
    seed: int = 0,
) -> tuple[list[TreePattern], list[IntegrityConstraint]]:
    """A workload of ``n_queries`` queries over one constraint set.

    ``distinct`` base queries are drawn from the Figure 7(a)
    (``kind="fig7"``: redundancy queries) or Figure 8(b) (``kind="fig8"``:
    right-deep/bushy depth-typed shapes) generators — or half each for
    ``kind="mixed"`` — and the workload is filled to ``n_queries`` with
    isomorphic shuffles of the bases in deterministic random order (every
    base occurs at least once when ``n_queries >= distinct``).

    Returns ``(queries, constraints)``; the constraint list is shared by
    the whole workload, matching the batch backend's
    closure-once-per-repository model.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    if kind not in BATCH_WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r} (expected {BATCH_WORKLOAD_KINDS})")
    rng = random.Random(seed)
    distinct = min(distinct, n_queries)

    if kind == "fig7":
        bases, constraints = _fig7_bases(distinct, size, rng)
    elif kind == "fig8":
        bases, constraints = _fig8_bases(distinct, size, rng)
    else:
        half = max(1, distinct // 2)
        fig7_bases, fig7_ics = _fig7_bases(half, size, rng)
        fig8_bases, fig8_ics = _fig8_bases(distinct - half or 1, size, rng)
        bases = fig7_bases + fig8_bases
        constraints = fig7_ics + fig8_ics

    queries: list[TreePattern] = []
    for i in range(n_queries):
        base = bases[i % len(bases)] if i < len(bases) else rng.choice(bases)
        queries.append(isomorphic_shuffle(base, rng=rng))
    rng.shuffle(queries)
    return queries, constraints


def chaos_workload(
    n_queries: int = 12,
    *,
    seed: int = 0,
) -> tuple[list[str], list[IntegrityConstraint]]:
    """A small deterministic workload for the chaos suite, as XPath text.

    Chaos tests drive the stack over the wire protocol, so queries are
    returned *serialized* (via :func:`repro.parsing.serializer.to_xpath`)
    rather than as patterns: the same strings go to ``repro-serve`` and
    to the in-process serial oracle, keeping the byte-identical
    comparison honest. Sizes are kept small — chaos runs repeat the
    workload under many fault plans and must stay fast.
    """
    from ..parsing.serializer import to_xpath

    queries, constraints = batch_workload(
        n_queries, kind="mixed", distinct=min(4, n_queries), size=10, seed=seed
    )
    return [to_xpath(q) for q in queries], constraints
