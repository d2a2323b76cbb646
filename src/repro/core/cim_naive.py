"""Naive CIM implementation — the baseline of Section 4's analysis.

The paper derives CIM in two steps: first a *naive* algorithm — after
every deletion, re-test **every** remaining leaf with a fresh images
computation — with worst-case ``O(n^3 · maxImage^2)`` time, and then the
enhanced implementation of Figure 3 (our
:func:`repro.core.cim.cim_minimize`) with the two key improvements:

1. a leaf found non-redundant is never re-tested (redundancy is
   monotone under deletions);
2. the walk up from the tested leaf stops early on an empty images set
   (NO) or a self-image (YES).

This module keeps the naive variant alive for two purposes: an
*ablation benchmark* quantifying what the enhancements buy
(``benchmarks/bench_ablation.py``), and a differential-testing target —
both implementations must produce isomorphic results on every input.
"""

from __future__ import annotations

from .cim import CimResult
from .flat import FlatImagesEngine
from .images import ImagesStats
from .node import PatternNode
from .pattern import TreePattern

__all__ = ["cim_minimize_naive"]


def _candidate_leaves(pattern: TreePattern) -> list[PatternNode]:
    return [
        leaf
        for leaf in pattern.leaves()
        if not leaf.is_root and not leaf.is_output and not leaf.temporary
    ]


def cim_minimize_naive(pattern: TreePattern, *, in_place: bool = False) -> CimResult:
    """Minimize by restarting the scan over all leaves after every
    deletion, with no memory of previous NO answers.

    Produces the same minimal query as :func:`~repro.core.cim.cim_minimize`
    (unique up to isomorphism), just slower — quadratically many
    redundancy checks instead of linearly many.
    """
    query = pattern if in_place else pattern.copy()
    result = CimResult(pattern=query, stats=ImagesStats())

    changed = True
    while changed:
        changed = False
        engine = FlatImagesEngine(query, stats=result.stats)
        for leaf in _candidate_leaves(query):
            if engine.is_redundant_leaf(leaf):
                result.eliminated.append((leaf.id, leaf.type))
                query.delete_leaf(leaf)
                changed = True
                break  # restart the scan from scratch
    return result
