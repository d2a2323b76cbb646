"""Algorithm CIM — constraint-independent minimization (Section 4).

CIM computes the unique (up to isomorphism) minimal query equivalent to a
tree pattern, by repeatedly deleting redundant leaves — a *maximal
elimination ordering* (MEO). Its polynomiality rests on two properties
proved in the paper:

* a node cannot be redundant unless its children are — so testing leaves
  suffices, and a node only becomes testable once it becomes a leaf;
* the order of elimination is immaterial (Lemmas 4.1–4.3) — so each leaf
  needs to be tested at most once, and a leaf found non-redundant never
  needs re-testing.

The same driver implements the minimization phase of ACIM: augmentation
hands it :class:`~repro.core.images.VirtualTarget` rows (never-materialized
temporary nodes, per Section 6.1) which act as extra mapping targets and
are dropped automatically when their anchor node is eliminated.

CIM maintains **one** :class:`~repro.core.flat.FlatImagesEngine`
for the whole elimination loop, applying
:meth:`~repro.core.flat.FlatImagesEngine.delete_leaf` after each deletion —
the O(n⁴) bound of Section 4 assumes exactly this maintenance; rebuilding
the tables per deletion (the pre-incremental behaviour, kept as
``incremental=False`` as the differential tests' reference) adds an
O(n²) rebuild to every one of up to n deletions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .flat import FlatImagesEngine
from .images import ImagesStats, VirtualTarget
from .node import PatternNode
from .pattern import TreePattern

__all__ = ["CimResult", "cim_minimize", "is_minimal"]


@dataclass
class CimResult:
    """Outcome of a CIM run.

    Attributes
    ----------
    pattern:
        The minimized query (a copy unless ``in_place=True``).
    eliminated:
        ``(node_id, node_type)`` pairs in elimination order — an MEO
        restricted to the deleted nodes.
    witnesses:
        When requested, for each eliminated node the endomorphism (node id
        → target id; negative targets are virtual) that certified its
        redundancy at deletion time.
    stats:
        Shared :class:`ImagesStats` across all redundancy checks.
    """

    pattern: TreePattern
    eliminated: list[tuple[int, str]] = field(default_factory=list)
    witnesses: dict[int, dict[int, int]] = field(default_factory=dict)
    stats: ImagesStats = field(default_factory=ImagesStats)

    @property
    def removed_count(self) -> int:
        """Number of nodes eliminated."""
        return len(self.eliminated)


def _eligible(
    node: PatternNode, protect: frozenset[int], include_temporaries: bool = False
) -> bool:
    return (
        node.is_leaf
        and not node.is_root
        and not node.is_output
        and (include_temporaries or not node.temporary)
        and node.id not in protect
    )


def cim_minimize(
    pattern: TreePattern,
    *,
    virtual: Sequence[VirtualTarget] = (),
    in_place: bool = False,
    collect_witnesses: bool = False,
    protect: frozenset[int] = frozenset(),
    stats: Optional[ImagesStats] = None,
    seed: Optional[int] = None,
    include_temporaries: bool = False,
    pair_filter=None,
    incremental: bool = True,
) -> CimResult:
    """Minimize ``pattern`` by maximal elimination of redundant leaves.

    Parameters
    ----------
    pattern:
        The query to minimize. Untouched unless ``in_place=True``.
    virtual:
        Augmentation targets (used by ACIM); empty for plain CIM.
    collect_witnesses:
        Record the endomorphism certifying each deletion (slower; for
        tests and debugging).
    protect:
        Node ids that must never be eliminated (beyond the root and the
        output node, which are always protected).
    stats:
        Accumulate timing/counter instrumentation into this object.
    seed:
        When given, candidate leaves are tried in a seeded-random order
        instead of ascending id order. The result is the same query up to
        isomorphism whatever the order (Theorem 4.1); tests use this to
        exercise order-independence.
    include_temporaries:
        Treat temporary (augmentation) nodes as ordinary elimination
        candidates. Off for ACIM (which must keep them as pure targets);
        on when CIM plays the ``M`` step of the strategy algebra, where
        temporaries are regular nodes.
    pair_filter:
        Extra ``(source_node_id, target_id) -> bool`` admissibility hook
        forwarded to the images engine (see the value-predicate
        extension).
    incremental:
        Maintain one images engine across the whole elimination loop
        (default). ``False`` restores the historical from-scratch
        behaviour — a fresh engine per deletion — kept as the
        differential-testing and benchmarking baseline; results are
        identical, only slower.

    Returns
    -------
    CimResult
        The minimized pattern plus the elimination record.
    """
    query = pattern if in_place else pattern.copy()
    result = CimResult(pattern=query, stats=stats if stats is not None else ImagesStats())
    rng = random.Random(seed) if seed is not None else None

    # A target is live when its anchor chain reaches a node of the query:
    # witness subtrees anchor virtual targets on other (earlier-listed)
    # virtual targets, so liveness propagates down the list.
    live_virtual: list[VirtualTarget] = []
    kept_ids: set[int] = set()
    for vt in virtual:
        if vt.parent_id in kept_ids or (
            vt.parent_id >= 0 and query.has_node(vt.parent_id)
        ):
            live_virtual.append(vt)
            kept_ids.add(vt.id)
    non_redundant: set[int] = set()
    candidates = [
        n.id for n in query.leaves() if _eligible(n, protect, include_temporaries)
    ]
    engine = FlatImagesEngine(
        query, live_virtual, result.stats, pair_filter=pair_filter
    )

    while candidates:
        if rng is not None:
            index = rng.randrange(len(candidates))
            candidates[index], candidates[-1] = candidates[-1], candidates[index]
        leaf_id = candidates.pop()
        if not query.has_node(leaf_id):
            continue
        leaf = query.node(leaf_id)
        if not _eligible(leaf, protect, include_temporaries) or leaf_id in non_redundant:
            continue

        if collect_witnesses:
            witness = engine.redundancy_witness(leaf)
            redundant = witness is not None
        else:
            witness = None
            redundant = engine.is_redundant_leaf(leaf)

        if not redundant:
            # Once non-redundant, always non-redundant (Section 4,
            # enhancement (1)): never re-test.
            non_redundant.add(leaf_id)
            continue

        parent = leaf.parent
        result.eliminated.append((leaf_id, leaf.type))
        if witness is not None:
            result.witnesses[leaf_id] = witness
        query.delete_leaf(leaf)
        if incremental:
            # One engine for the whole loop: the deletion (and the virtual
            # targets anchored at the deleted node, which die with it) is
            # applied to the live tables instead of rebuilding them.
            engine.delete_leaf(leaf)
        else:
            # From-scratch baseline: virtual targets anchored (possibly
            # through other virtual targets) at the deleted node die with
            # it; skip the list rebuild when the leaf anchored none.
            if any(vt.parent_id == leaf_id for vt in live_virtual):
                dead = {leaf_id}
                survivors = []
                for vt in live_virtual:
                    if vt.parent_id in dead:
                        dead.add(vt.id)
                    else:
                        survivors.append(vt)
                live_virtual = survivors
            engine = FlatImagesEngine(
                query, live_virtual, result.stats, pair_filter=pair_filter
            )
        if (
            parent is not None
            and _eligible(parent, protect, include_temporaries)
            and parent.id not in non_redundant
        ):
            candidates.append(parent.id)

    return result


def is_minimal(pattern: TreePattern) -> bool:
    """Whether a pattern is already minimal (no redundant leaf exists).

    Equivalent to ``cim_minimize(pattern).removed_count == 0`` but without
    copying or deleting.
    """
    engine = FlatImagesEngine(pattern)
    return not any(
        engine.is_redundant_leaf(leaf)
        for leaf in pattern.leaves()
        if _eligible(leaf, frozenset())
    )
