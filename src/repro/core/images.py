"""Shared types of the ``redundant-leaf`` test (Figure 3 of the paper).

The test itself runs in :class:`repro.core.flat.FlatImagesEngine`,
which documents the algorithm. This module holds the two types its
callers share with it:

* :class:`VirtualTarget` — a node that IC augmentation guarantees but
  never materializes. Following Section 6.1 of the paper, such nodes
  live only as extra *targets* in the images and ancestor/descendant
  tables;
* :class:`ImagesStats` — the engine's timing and counter
  instrumentation (the Figure 7(b) table-vs-prune split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..errors import InvalidPatternError
from ..obs import Stats
from .edges import EdgeKind

__all__ = ["VirtualTarget", "ImagesStats"]


@dataclass(frozen=True, slots=True)
class VirtualTarget:
    """An augmentation-implied node used only as a mapping target.

    A required-child IC ``t1 -> t2`` applied to node ``p`` guarantees that
    in every constraint-satisfying database the image of ``p`` has a child
    of type ``t2``; a required-descendant IC guarantees a descendant. Such
    guaranteed nodes never need to be mapped themselves — they only
    *receive* mappings.

    Attributes
    ----------
    id:
        Negative integer id, disjoint from real pattern node ids.
    node_type:
        The guaranteed node's type.
    parent_id:
        Id of the node the IC was applied to. Usually a real pattern node;
        may be another (earlier) virtual target when the augmentation
        expands whole witness subtrees. Sequences of targets must list
        every virtual parent before its virtual children.
    edge:
        ``CHILD`` if the IC was ``t1 -> t2`` (the target is a c-child of
        its parent), ``DESCENDANT`` for ``t1 ->> t2``.
    extra_types:
        Co-occurrence types the guaranteed node must also carry (``t2 ~
        t3`` makes every ``t2`` node a ``t3`` node too), so the target can
        receive mappings from sources of those types as well.
    """

    id: int
    node_type: str
    parent_id: int
    edge: EdgeKind
    extra_types: frozenset[str] = frozenset()

    @property
    def all_types(self) -> frozenset[str]:
        """Primary type plus co-occurrence extras."""
        return self.extra_types | {self.node_type}

    def __post_init__(self) -> None:
        if self.id >= 0:
            raise InvalidPatternError("virtual target ids must be negative")


@dataclass
class ImagesStats(Stats):
    """Instrumentation counters for the images engine.

    ``tables_seconds`` covers building **and incrementally maintaining**
    the relation tables (c-child, ancestor/descendant) and the type
    index: engine builds and deletions — the table side of Figure 7(b).
    ``prune_seconds`` covers the redundancy checks, including the images
    rows each check builds inside its sweep (a row is built when the
    prune first reads it).

    ``engine_builds`` / ``incremental_deletes`` attribute table
    maintenance: a from-scratch driver rebuilds the engine per deletion
    (``engine_builds`` ≈ deletions), the incremental driver builds once
    and applies cheap deletes. ``base_cache_hits`` / ``base_cache_misses``
    instrument the memoized per-node base candidate sets.

    ``max_image_size`` samples images sets as initialized (pre-pruning),
    over the rows a check reads; ``max_image_size_post_prune`` samples
    them after the bottom-up sweep. Both stay maxima when stats are
    merged (:meth:`~repro.obs.Stats.add`).
    """

    tables_seconds: float = 0.0
    prune_seconds: float = 0.0
    redundancy_checks: int = 0
    max_image_size: int = 0
    max_image_size_post_prune: int = 0
    pruned_entries: int = 0
    engine_builds: int = 0
    incremental_deletes: int = 0
    base_cache_hits: int = 0
    base_cache_misses: int = 0
    # Always 0 and outside the counters namespace: the engine keeps no
    # prune memo. perfbench's tracer still reads both under --trace 1,
    # so they stay until its metrics go.
    prune_memo_hits: ClassVar[int] = 0
    prune_memo_misses: ClassVar[int] = 0

    @property
    def total_seconds(self) -> float:
        """Tables time plus pruning time."""
        return self.tables_seconds + self.prune_seconds
