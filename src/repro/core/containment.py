"""Containment mappings between tree pattern queries.

Adapting the homomorphism theorem of Chandra and Merlin to tree patterns
(Section 4 of the paper): query ``Q1`` is contained in ``Q2``
(``Q1 ⊆ Q2``: every database gives ``Q1(D) ⊆ Q2(D)``) iff there is a
*containment mapping* ``h : Q2 → Q1`` such that

* ``h`` preserves node types (``v`` and ``h(v)`` have the same type — with
  augmented targets, ``v``'s original type must be among ``h(v)``'s
  associated types) and the output marker (``h(v)`` is starred iff ``v``
  is);
* a c-child maps to a c-child, and a d-child to a *proper descendant*.

Embeddings are unanchored in this library (see DESIGN.md), so the root of
the mapped query may map to any node of the target query.

Unlike general conjunctive queries (where this test is NP-complete), tree
patterns admit a polynomial dynamic program: process the mapped query in
postorder, computing for each of its nodes the set of admissible targets.
This module is the library's *ground-truth oracle*: the minimizers
(:mod:`repro.core.cim`, :mod:`repro.core.acim`, :mod:`repro.core.cdm`)
are validated against it in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import Stats
from . import oracle_cache as _oracle_cache
from .flat import flat_mapping_targets
from .fingerprint import are_isomorphic
from .node import PatternNode
from .pattern import TreePattern

__all__ = [
    "ContainmentStats",
    "mapping_targets",
    "find_containment_mapping",
    "has_containment_mapping",
    "is_contained_in",
    "equivalent",
]

#: Sentinel: resolve the cache argument to the process-wide instance
#: (:func:`repro.core.oracle_cache.global_cache`). Pass ``cache=None``
#: to force an uncached run.
USE_GLOBAL_CACHE = object()


@dataclass
class ContainmentStats(Stats):
    """Cache instrumentation for the containment oracle, flattened under
    ``containment_``.

    One ``mapping_targets`` run memoizes two sub-results:

    * the *base* compatibility set per ``(type, is_output)`` source class
      — every source node of the same class admits the same label-level
      targets (``base_cache_*``);
    * the reachability pass per admissible set — distinct d-children
      with equal target sets share one pass (``reach_cache_*``).

    Across runs, the process-wide content-keyed cache
    (:mod:`repro.core.oracle_cache`) may serve the whole DP table
    (``oracle_cache_*``: the lookups these checks made; a hit skips the
    DP, so the per-run counters above stay untouched for that call), and
    :func:`equivalent` may answer from canonical-key equality
    (``equivalent_fast_path``).
    """

    prefix = "containment_"

    base_cache_hits: int = 0
    base_cache_misses: int = 0
    reach_cache_hits: int = 0
    reach_cache_misses: int = 0
    oracle_cache_hits: int = 0
    oracle_cache_misses: int = 0
    equivalent_fast_path: int = 0


def mapping_targets(
    source: TreePattern,
    target: TreePattern,
    *,
    stats: Optional[ContainmentStats] = None,
    cache: object = USE_GLOBAL_CACHE,
) -> dict[int, set[int]]:
    """For every node ``v`` of ``source``, the ids of ``target`` nodes that
    ``v`` can map to under some containment mapping of ``v``'s subtree.

    Computed by the bottom-up dynamic program described in Section 4: a
    target ``u`` is admissible for ``v`` iff the labels are compatible and
    every c-child (d-child) of ``v`` has an admissible target among ``u``'s
    children (proper descendants). Labels are compatible when ``u``
    carries ``v``'s type (possibly as an augmented co-occurrence type)
    and ``u`` is the output node whenever ``v`` is. The converse is not
    required: a non-output node may map onto the output node, because
    the ``*`` is a query-side marker, not a data label (the paper's
    Figure 2(b) → 2(c) minimization, where the unstarred ``Article``
    branch folds onto the starred one, depends on this).

    Two sub-results are memoized across the run (pass ``stats`` to observe
    hit rates): label-compatibility base sets are shared by every source
    node of the same ``(type, is_output)`` class, and the per-d-child
    reachability pass is shared by d-children with equal admissible sets.

    Across runs, whole DP tables are keyed on the (source, target)
    content fingerprints in the process-wide
    :class:`~repro.core.oracle_cache.ContainmentOracleCache` and remapped
    onto the caller's node ids on a hit — identical output, no DP. Pass
    ``cache=None`` for an uncached run, or an explicit cache instance to
    use instead of the global one. The DP itself runs over bitsets in
    :func:`repro.core.flat.flat_mapping_targets`.
    """
    if stats is None:
        stats = ContainmentStats()
    oc = _oracle_cache.global_cache() if cache is USE_GLOBAL_CACHE else cache
    if oc is not None:
        remapped = oc.lookup(source, target)
        if remapped is not None:
            stats.oracle_cache_hits += 1
            return remapped
        stats.oracle_cache_misses += 1
    targets = flat_mapping_targets(source, target, stats)
    if oc is not None:
        oc.store(source, target, targets)
    return targets


def find_containment_mapping(
    source: TreePattern, target: TreePattern
) -> Optional[dict[int, int]]:
    """A concrete containment mapping ``source → target`` as a dict from
    source node ids to target node ids, or ``None`` if none exists.

    The mapping is extracted top-down from the DP table; on trees a greedy
    choice per subtree is always safe because sibling subtrees impose
    independent requirements on the target.
    """
    targets = mapping_targets(source, target)
    root_targets = targets[source.root.id]
    if not root_targets:
        return None
    mapping: dict[int, int] = {}
    # Deterministic tie-break (smallest id) keeps results reproducible.
    root_choice = target.node(min(root_targets))
    _assign(source.root, root_choice, targets, mapping, target)
    return mapping


def _assign(
    v: PatternNode,
    u: PatternNode,
    targets: dict[int, set[int]],
    mapping: dict[int, int],
    target: TreePattern,
) -> None:
    mapping[v.id] = u.id
    for cv in v.children:
        if cv.edge.is_child:
            candidates = (uc for uc in u.c_children() if uc.id in targets[cv.id])
        else:
            candidates = (ud for ud in u.descendants() if ud.id in targets[cv.id])
        chosen = min(candidates, key=lambda n: n.id, default=None)
        if chosen is None:  # pragma: no cover - DP guarantees a choice
            raise AssertionError("DP admitted a target with no child assignment")
        _assign(cv, chosen, targets, mapping, target)


def has_containment_mapping(
    source: TreePattern,
    target: TreePattern,
    *,
    stats: Optional[ContainmentStats] = None,
    cache: object = USE_GLOBAL_CACHE,
) -> bool:
    """Whether a containment mapping ``source → target`` exists."""
    return bool(
        mapping_targets(source, target, stats=stats, cache=cache)[source.root.id]
    )


def is_contained_in(
    q1: TreePattern,
    q2: TreePattern,
    *,
    stats: Optional[ContainmentStats] = None,
    cache: object = USE_GLOBAL_CACHE,
) -> bool:
    """``Q1 ⊆ Q2``: every database ``D`` satisfies ``Q1(D) ⊆ Q2(D)``.

    By the homomorphism theorem for tree patterns this holds iff there is a
    containment mapping from ``q2`` into ``q1``.
    """
    return has_containment_mapping(q2, q1, stats=stats, cache=cache)


def equivalent(
    q1: TreePattern,
    q2: TreePattern,
    *,
    stats: Optional[ContainmentStats] = None,
    cache: object = USE_GLOBAL_CACHE,
) -> bool:
    """Two-way containment: ``Q1 ⊆ Q2`` and ``Q2 ⊆ Q1``.

    Patterns with equal canonical keys short-circuit to ``True`` without
    running the DP. Equal keys mean isomorphic patterns (the key decodes
    uniquely, :mod:`repro.core.fingerprint`), and an isomorphism preserves
    types, the output marker, and edge kinds, so it *is* a containment
    mapping in both directions: the verdict is its own proof.
    """
    if are_isomorphic(q1, q2):
        if stats is not None:
            stats.equivalent_fast_path += 1
        return True
    return is_contained_in(q1, q2, stats=stats, cache=cache) and is_contained_in(
        q2, q1, stats=stats, cache=cache
    )
