"""The flat, array-native minimization core.

This module implements the two hot kernels of the minimizer — the
``redundant-leaf`` images engine (Figure 3 of the paper) and the
containment DP behind :func:`repro.core.containment.mapping_targets`
(Section 4) — over a *flat* representation:

* a :class:`FlatPattern` compiles a :class:`~repro.core.pattern.TreePattern`
  into parallel preorder arrays (interned type table, parent/depth/type/
  edge-kind per node, children as CSR index ranges). It round-trips
  losslessly (node ids, child insertion order, flags, extra types), computes
  canonical subtree keys directly over the arrays, and is what
  :class:`TreePattern` pickles as — batch workers ship a handful of tuples
  instead of a cyclic object graph;
* every *target set* (an images set, a DP row, an ancestor/descendant
  relation row) is a **bitset**: one Python int whose bit ``s`` stands for
  the target in *slot* ``s``. Slots are assigned in ascending id order
  (virtual targets have negative ids, so they occupy the low slots), which
  makes the lowest set bit of any row the minimum id — every
  smallest-id tie-break is one ``bits & -bits``.

``tests/test_engine_v2.py`` pins the results — minimized patterns,
elimination orders, witnesses — against reference outputs frozen in
``tests/fixtures/core_v1_reference.json``.

Deletion maintenance is where the flat design pays most: the relation
bitsets and type index are **never** maintained — they are built once
and may contain bits of deleted targets forever. A single ``live`` mask
is cleared instead, and every row is computed as
``base & live & ~excluded`` at the point of use, which masks stale bits
automatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from ..errors import InvalidPatternError
from . import oracle_cache as _oracle_cache
from .edges import EdgeKind
from .images import ImagesStats, VirtualTarget
from .node import PatternNode
from .pattern import TreePattern

__all__ = [
    "FlatPattern",
    "FlatImagesEngine",
    "flat_mapping_targets",
    "pattern_from_flat",
    "bits_to_ids",
    "ids_to_bits",
    "iter_slots",
]


# ---------------------------------------------------------------------------
# Bitset helpers
# ---------------------------------------------------------------------------


def iter_slots(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bits_to_ids(bits: int, id_of: Sequence[int]) -> set[int]:
    """Decode a bitset row into the set of target ids it represents."""
    return {id_of[s] for s in iter_slots(bits)}


def ids_to_bits(ids, slot_of: dict) -> int:
    """Encode an iterable of target ids as a bitset row."""
    bits = 0
    for node_id in ids:
        bits |= 1 << slot_of[node_id]
    return bits


# ---------------------------------------------------------------------------
# FlatPattern — the compiled array form of a TreePattern
# ---------------------------------------------------------------------------

#: Edge-kind codes in the flat arrays (the root carries -1).
_EDGE_OF_CODE = (EdgeKind.CHILD, EdgeKind.DESCENDANT)
_EDGE_SYMBOL = ("/", "//")


@dataclass(frozen=True)
class FlatPattern:
    """A :class:`TreePattern` compiled to parallel preorder arrays.

    All per-node arrays are indexed by *preorder position*; ``ids[i]`` is
    the original node id at position ``i`` (position 0 is the root).
    ``types`` is the interned type table; ``type_id``/``extra_type_ids``
    index into it. Children are stored CSR-style: the children of
    position ``i`` are ``child_index[child_start[i]:child_start[i+1]]``,
    in insertion order. ``next_id`` preserves the pattern's id counter so
    the round trip is exact.
    """

    types: tuple[str, ...]
    ids: tuple[int, ...]
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    type_id: tuple[int, ...]
    edge: tuple[int, ...]
    flags: tuple[int, ...]  # bit 0: is_output, bit 1: temporary
    extra_type_ids: tuple[tuple[int, ...], ...]
    child_start: tuple[int, ...]
    child_index: tuple[int, ...]
    next_id: int

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.ids)

    @classmethod
    def from_pattern(cls, pattern: TreePattern) -> "FlatPattern":
        """Compile ``pattern``; the inverse of :meth:`to_pattern`."""
        nodes = list(pattern.nodes())
        pos = {node.id: i for i, node in enumerate(nodes)}
        type_index: dict[str, int] = {}
        types: list[str] = []

        def intern(name: str) -> int:
            ti = type_index.get(name)
            if ti is None:
                ti = len(types)
                type_index[name] = ti
                types.append(name)
            return ti

        ids: list[int] = []
        parent: list[int] = []
        depth: list[int] = []
        type_id: list[int] = []
        edge: list[int] = []
        flags: list[int] = []
        extra: list[tuple[int, ...]] = []
        child_index: list[int] = []
        child_start: list[int] = [0]
        for node in nodes:
            ids.append(node.id)
            p = node.parent
            if p is None:
                parent.append(-1)
                depth.append(0)
            else:
                pi = pos[p.id]
                parent.append(pi)
                depth.append(depth[pi] + 1)
            type_id.append(intern(node.type))
            if node.edge is None:
                edge.append(-1)
            else:
                edge.append(0 if node.edge is EdgeKind.CHILD else 1)
            flags.append((1 if node.is_output else 0) | (2 if node.temporary else 0))
            extra.append(tuple(intern(t) for t in sorted(node.extra_types)))
            child_index.extend(pos[c.id] for c in node.children)
            child_start.append(len(child_index))
        return cls(
            types=tuple(types),
            ids=tuple(ids),
            parent=tuple(parent),
            depth=tuple(depth),
            type_id=tuple(type_id),
            edge=tuple(edge),
            flags=tuple(flags),
            extra_type_ids=tuple(extra),
            child_start=tuple(child_start),
            child_index=tuple(child_index),
            next_id=pattern._next_id,
        )

    def to_pattern(self) -> TreePattern:
        """Reconstruct the exact original pattern (ids, id counter, child
        insertion order, flags, extra types)."""
        pattern = TreePattern.__new__(TreePattern)
        pattern._next_id = self.next_id
        pattern._nodes = {}
        pattern._version = 0
        types = self.types
        created: list[PatternNode] = []
        for i, node_id in enumerate(self.ids):
            code = self.edge[i]
            node = PatternNode(
                pattern,
                node_id,
                types[self.type_id[i]],
                None if code < 0 else _EDGE_OF_CODE[code],
                is_output=bool(self.flags[i] & 1),
                temporary=bool(self.flags[i] & 2),
            )
            if self.extra_type_ids[i]:
                node.extra_types = frozenset(
                    types[t] for t in self.extra_type_ids[i]
                )
            pattern._nodes[node_id] = node
            created.append(node)
            p = self.parent[i]
            if p < 0:
                pattern._root = node
            else:
                created[p]._attach_child(node)
        return pattern

    def subtree_keys(self) -> dict[int, str]:
        """Canonical subtree encodings computed over the flat arrays.

        Byte-identical to :func:`repro.core.fingerprint.subtree_keys` on
        the reconstructed pattern.
        """
        return dict(zip(self.ids, self._subtree_key_sweep()))

    def canonical_key(self) -> str:
        """The root's canonical key (equals ``TreePattern.canonical_key``)."""
        return self._subtree_key_sweep()[0]

    def _subtree_key_sweep(self) -> list[str]:
        """Every node's canonical subtree key, by preorder position.

        Reversed preorder puts every node after its descendants, so one
        backward sweep replaces the explicit postorder stack.
        """
        n = len(self.ids)
        keys: list[str] = [""] * n
        types = self.types
        cs, ci, edges = self.child_start, self.child_index, self.edge
        for i in range(n - 1, -1, -1):
            child_keys = sorted(
                _EDGE_SYMBOL[edges[j]] + keys[j] for j in ci[cs[i] : cs[i + 1]]
            )
            extras = ",".join(sorted(types[t] for t in self.extra_type_ids[i]))
            flags = ("*" if self.flags[i] & 1 else "") + (
                "?" if self.flags[i] & 2 else ""
            )
            keys[i] = f"{types[self.type_id[i]]}|{extras}|{flags}({';'.join(child_keys)})"
        return keys


def pattern_from_flat(flat: FlatPattern) -> TreePattern:
    """Module-level reconstruction hook — the callable
    :meth:`TreePattern.__reduce_ex__` ships to unpickling processes."""
    return flat.to_pattern()


# ---------------------------------------------------------------------------
# FlatImagesEngine — bitset redundant-leaf tests
# ---------------------------------------------------------------------------


class FlatImagesEngine:
    """Runs the paper's ``redundant-leaf`` tests against one pattern.

    To test whether a leaf ``b`` of query ``Q`` is redundant, associate
    with every node ``v`` the set ``images(v)`` of nodes ``v`` could map
    to under a containment mapping into ``Q - b`` (type-compatible;
    ``b`` itself and any augmentation target anchored at ``b`` are
    excluded from every set, so a surviving mapping certifies ``Q - b``
    equivalent to ``Q``). The sets are pruned bottom-up: a target ``s``
    is dropped from ``images(v)`` when some c-child (d-child) ``u`` of
    ``v`` has no member of ``images(u)`` that is a c-child (proper
    descendant) of ``s``. The leaf is redundant iff the pruned
    ``images(root)`` is non-empty (Theorem 4.2). The walk from the
    leaf's parent to the root implements the early exits of Figure 3:
    empty ``images(v)`` means NO immediately; ``v ∈ images(v)`` means
    YES immediately (identity extends upward).

    Following Section 6.1, the ancestor/descendant relation and the
    images sets are tables (here: bitset rows), and nodes contributed by
    IC augmentation are never materialized — they take part only as
    extra targets (:class:`~repro.core.images.VirtualTarget`).

    The engine snapshots the pattern once and then *tracks* leaf
    deletions through :meth:`delete_leaf`, so the CIM elimination loop
    (:mod:`repro.core.cim`) reuses one engine for its whole run instead
    of rebuilding it O(n) times; any other mutation of the pattern while
    the engine is in use invalidates it. Build compiles the pattern plus
    its virtual targets into per-slot relation bitsets (``cc``:
    c-children, ``desc``: proper descendants, ``anc``: ancestors) over
    the combined tree, a type→slots index, and a static anchored-virtuals
    map. None of these are maintained across deletions — see the module
    docstring for the ``live``-mask invariant that makes
    :meth:`delete_leaf` O(1) modulo memo eviction.

    Parameters
    ----------
    pattern:
        The query under test.
    virtual:
        Augmentation targets (see :class:`~repro.core.images.VirtualTarget`).
        Empty for constraint-independent minimization.
    stats:
        Optional shared :class:`~repro.core.images.ImagesStats` to
        accumulate timings into.
    pair_filter:
        Optional extra compatibility predicate ``(source_node_id,
        target_id) -> bool`` applied when initializing images sets. Used
        by the value-predicate extension (Section 7 of the paper): a
        target is admissible only if its conditions entail the source's.
        Must be deterministic — the prune memo replays its results.
    prune_memo:
        Reuse pruned sibling-subtree images across redundancy checks
        (see :meth:`_prune_child_subtree`). ``None`` (default) follows
        the process-wide oracle-cache switch
        (:func:`repro.core.oracle_cache.global_enabled`); pass ``False``
        for the memo-free baseline.
    """

    #: Whole-memo reset threshold: entries reference the pruned rows of
    #: past checks, so an unbounded memo would pin every check's rows.
    PRUNE_MEMO_CAP = 4096

    def __init__(
        self,
        pattern: TreePattern,
        virtual: Sequence[VirtualTarget] = (),
        stats: Optional[ImagesStats] = None,
        pair_filter: Optional[Callable[[int, int], bool]] = None,
        prune_memo: Optional[bool] = None,
    ) -> None:
        self.pattern = pattern
        self.virtual = tuple(virtual)
        self.pair_filter = pair_filter
        self.use_prune_memo = (
            _oracle_cache.global_enabled() if prune_memo is None else bool(prune_memo)
        )
        # (subtree root id, excluded & relevant) -> ({node id -> pruned
        # row}, relevant mask when stored). Rows are ints, hence shared
        # safely on hits.
        self._prune_memo: dict[tuple[int, int], tuple[dict[int, int], int]] = {}
        self._relevant_cache: dict[int, int] = {}
        self.stats = stats if stats is not None else ImagesStats()
        self.stats.engine_builds += 1
        start = time.perf_counter()
        self._build(pattern, self.virtual)
        self.stats.tables_seconds += time.perf_counter() - start

    def _build(self, pattern: TreePattern, virtual: tuple[VirtualTarget, ...]) -> None:
        nodes = list(pattern.nodes())
        seen = {node.id for node in nodes}
        for vt in virtual:
            if vt.parent_id not in seen:
                raise InvalidPatternError(
                    f"virtual target {vt.id} attached to unknown node {vt.parent_id}"
                )
            seen.add(vt.id)
        all_ids = sorted(seen)
        slot_of = {node_id: s for s, node_id in enumerate(all_ids)}
        n = len(all_ids)
        self._slot_of = slot_of
        self._id_of = all_ids
        self._live = (1 << n) - 1

        # Combined-tree adjacency: real children plus attached virtuals.
        children: list[list[int]] = [[] for _ in range(n)]
        cc = [0] * n
        for node in nodes:
            s = slot_of[node.id]
            row = children[s]
            for child in node.children:
                cs = slot_of[child.id]
                row.append(cs)
                if child.edge is EdgeKind.CHILD:
                    cc[s] |= 1 << cs
        anchored: dict[int, list[VirtualTarget]] = {}
        anchored_mask: dict[int, int] = {}
        real_anchor: dict[int, int] = {}
        for vt in virtual:
            vs = slot_of[vt.id]
            ps = slot_of[vt.parent_id]
            children[ps].append(vs)
            if vt.edge is EdgeKind.CHILD:
                cc[ps] |= 1 << vs
            anchor = vt.parent_id if vt.parent_id >= 0 else real_anchor[vt.parent_id]
            real_anchor[vt.id] = anchor
            anchored.setdefault(anchor, []).append(vt)
            anchored_mask[anchor] = anchored_mask.get(anchor, 0) | 1 << vs
        self._cc = cc
        self._anchored = {k: tuple(v) for k, v in anchored.items()}
        self._anchored_mask = anchored_mask

        # Descendant and ancestor bitsets: one pass over the combined tree.
        desc = [0] * n
        anc = [0] * n
        stack: list[tuple[int, bool]] = [(slot_of[pattern.root.id], False)]
        while stack:
            s, expanded = stack.pop()
            if expanded:
                acc = 0
                for c in children[s]:
                    acc |= 1 << c | desc[c]
                desc[s] = acc
            else:
                stack.append((s, True))
                up = anc[s] | 1 << s
                for c in children[s]:
                    anc[c] = up
                    stack.append((c, False))
        self._desc = desc
        self._anc = anc

        # Type index and output markers over all targets.
        type_bits: dict[str, int] = {}
        starred = 0
        for node in nodes:
            b = 1 << slot_of[node.id]
            for t in node.all_types:
                type_bits[t] = type_bits.get(t, 0) | b
            if node.is_output:
                starred |= b
        for vt in virtual:
            b = 1 << slot_of[vt.id]
            for t in vt.all_types:
                type_bits[t] = type_bits.get(t, 0) | b
        self._type_bits = type_bits
        self._starred = starred
        self._base_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def is_redundant_leaf(self, leaf: PatternNode) -> bool:
        """The paper's ``redundant-leaf`` test for ``leaf``."""
        return self._run(leaf) is not None

    def delete_leaf(self, leaf: PatternNode) -> tuple[VirtualTarget, ...]:
        """Incrementally track the deletion of ``leaf``; returns the
        virtual targets that died with it.

        Relation bitsets, type index, and base rows are left untouched:
        clearing the leaf's (and its anchored virtuals') bits from the
        ``live`` mask retires them everywhere at once, because every row
        is masked with ``live`` at the point of use. Only the prune memo
        needs real eviction: subtrees on the leaf's ancestor path changed
        structurally, so their memoized prunes and relevant masks are
        stale; elsewhere an entry stays exact unless its relevant mask saw
        a dead bit.
        """
        start = time.perf_counter()
        leaf_id = leaf.id
        slot = self._slot_of.get(leaf_id)
        if slot is None or not self._live >> slot & 1:
            raise InvalidPatternError(f"node {leaf_id} is not in the table")
        dropped = self._anchored.get(leaf_id, ())
        dead = 1 << slot | self._anchored_mask.get(leaf_id, 0)
        if self._desc[slot] & self._live & ~dead:
            raise InvalidPatternError(
                f"node {leaf_id} still has descendants; delete them first"
            )
        self._live &= ~dead
        if dropped:
            dead_ids = {vt.id for vt in dropped}
            self.virtual = tuple(vt for vt in self.virtual if vt.id not in dead_ids)
        self._base_cache.pop(leaf_id, None)
        if self.use_prune_memo:
            stale = self._anc[slot] | 1 << slot
            slot_of = self._slot_of
            self._prune_memo = {
                (root, key): entry
                for (root, key), entry in self._prune_memo.items()
                if not stale >> slot_of[root] & 1 and not entry[1] & dead
            }
            self._relevant_cache = {
                node_id: relevant & ~dead
                for node_id, relevant in self._relevant_cache.items()
                if not stale >> slot_of[node_id] & 1
            }
        self.stats.incremental_deletes += 1
        self.stats.tables_seconds += time.perf_counter() - start
        return dropped

    def redundancy_witness(self, leaf: PatternNode) -> Optional[dict[int, int]]:
        """A concrete endomorphism witnessing redundancy of ``leaf`` (node
        id → target id, negative = virtual), or ``None``."""
        result = self._run(leaf)
        if result is None:
            return None
        rows, stop_node = result
        return self._extract(rows, stop_node)

    def row_ids(self, row: int) -> set[int]:
        """Decode a bitset row into target ids (testing/introspection)."""
        return bits_to_ids(row, self._id_of)

    # ------------------------------------------------------------------
    # Core algorithm (Figure 3, over bitset rows)
    # ------------------------------------------------------------------

    def _base_row(self, node: PatternNode) -> int:
        """The memoized deletion-invariant part of ``images(node)``.

        Cached rows may keep bits of targets that die later; consumers
        mask with ``live`` at use, so the cache needs no maintenance.
        """
        cached = self._base_cache.get(node.id)
        if cached is not None:
            self.stats.base_cache_hits += 1
            return cached
        self.stats.base_cache_misses += 1
        row = self._type_bits.get(node.type, 0) & self._live
        if node.is_output:
            row &= self._starred
        if self.pair_filter is not None:
            id_of = self._id_of
            kept = 0
            bits = row
            while bits:
                low = bits & -bits
                bits ^= low
                if self.pair_filter(node.id, id_of[low.bit_length() - 1]):
                    kept |= low
            row = kept
        self._base_cache[node.id] = row
        return row

    def _excluded_mask(self, leaf: PatternNode) -> int:
        """Bits barred from every row when testing ``leaf``: the leaf
        itself plus the virtual targets anchored at it."""
        return 1 << self._slot_of[leaf.id] | self._anchored_mask.get(leaf.id, 0)

    def _initial_rows(self, excluded: int) -> dict[int, int]:
        start = time.perf_counter()
        rows: dict[int, int] = {}
        live_not_excluded = self._live & ~excluded
        max_size = self.stats.max_image_size
        for node in self.pattern.nodes():
            row = self._base_row(node) & live_not_excluded
            rows[node.id] = row
            size = row.bit_count()
            if size > max_size:
                max_size = size
        self.stats.max_image_size = max_size
        self.stats.tables_seconds += time.perf_counter() - start
        return rows

    def _run(
        self, leaf: PatternNode
    ) -> Optional[tuple[dict[int, int], PatternNode]]:
        """Run the test; return ``(pruned rows, stop node)`` when the
        leaf is redundant, else ``None``.

        ``stop node`` is the ancestor at which an early YES fired
        (identity extends above it), or the root.
        """
        if not leaf.is_leaf:
            raise InvalidPatternError("redundant-leaf requires a leaf node")
        if leaf.is_output:
            return None
        self.stats.redundancy_checks += 1
        excluded = self._excluded_mask(leaf)
        rows = self._initial_rows(excluded)
        if not rows[leaf.id]:
            return None

        start = time.perf_counter()
        try:
            marked: set[int] = {leaf.id}
            node = leaf.parent
            while node is not None:
                self._minimize_rows(node, rows, marked, excluded)
                row = rows[node.id]
                if not row:
                    return None
                if row >> self._slot_of[node.id] & 1:
                    # Early YES: node maps to itself, identity extends to
                    # all ancestors (Figure 3, step 4.3).
                    return rows, node
                node = node.parent
            root = self.pattern.root
            if rows[root.id]:
                return rows, root
            return None
        finally:
            self.stats.prune_seconds += time.perf_counter() - start

    def _relevant(self, node: PatternNode) -> int:
        """Union of base rows over ``node``'s subtree, cached per node."""
        cached = self._relevant_cache.get(node.id)
        if cached is not None:
            return cached
        stack: list[tuple[PatternNode, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if current.id in self._relevant_cache:
                continue
            if not expanded:
                stack.append((current, True))
                stack.extend((child, False) for child in current.children)
                continue
            relevant = self._base_row(current)
            for child in current.children:
                relevant |= self._relevant_cache[child.id]
            self._relevant_cache[current.id] = relevant
        return self._relevant_cache[node.id]

    def _prune_child_subtree(
        self,
        child: PatternNode,
        rows: dict[int, int],
        marked: set[int],
        excluded: int,
    ) -> None:
        """Prune ``child``'s subtree, reusing a memoized result when an
        earlier check pruned it under an equivalent exclusion.

        The pruned rows of a subtree are a pure function of its
        structure, its initial rows (base rows minus the excluded bits)
        and the relation among live targets. Base rows are bounded by the
        subtree's *relevant* mask, so two exclusions with the same
        intersection with it yield identical pruned rows: the memo key is
        ``(subtree root, excluded & relevant)``. Sibling-leaf checks
        differ only in the leaf under test, so subtrees that cannot see
        either leaf share a key — the reuse this memo exists for.
        Excluded bits never include dead targets, so the key is
        insensitive to the stale bits a cached relevant mask may carry.
        """
        if not self.use_prune_memo:
            self._minimize_rows(child, rows, marked, excluded)
            return
        relevant = self._relevant(child)
        key = (child.id, excluded & relevant)
        entry = self._prune_memo.get(key)
        if entry is not None:
            self.stats.prune_memo_hits += 1
            pruned, _ = entry
            for node_id, row in pruned.items():
                rows[node_id] = row
                marked.add(node_id)
            return
        self.stats.prune_memo_misses += 1
        self._minimize_rows(child, rows, marked, excluded)
        if len(self._prune_memo) >= self.PRUNE_MEMO_CAP:
            self._prune_memo.clear()
            self.stats.prune_memo_evictions += 1
        pruned = {}
        stack = [child]
        while stack:
            current = stack.pop()
            pruned[current.id] = rows[current.id]
            stack.extend(current.children)
        self._prune_memo[key] = (pruned, relevant)

    def _minimize_rows(
        self,
        node: PatternNode,
        rows: dict[int, int],
        marked: set[int],
        excluded: int,
    ) -> None:
        """Prune ``rows`` throughout ``node``'s subtree (post-order)."""
        if node.is_leaf:
            marked.add(node.id)
            return
        for child in node.children:
            if child.id not in marked:
                self._prune_child_subtree(child, rows, marked, excluded)
        cc = self._cc
        desc = self._desc
        # One (child row, relation table) pair per child: the support test
        # for candidate s is a single AND per child.
        tests = [
            (rows[u.id], cc if u.edge is EdgeKind.CHILD else desc)
            for u in node.children
        ]
        stats = self.stats
        survivors = 0
        bits = rows[node.id]
        while bits:
            low = bits & -bits
            bits ^= low
            s = low.bit_length() - 1
            for child_row, relation in tests:
                if not child_row & relation[s]:
                    stats.pruned_entries += 1
                    break
            else:
                survivors |= low
        rows[node.id] = survivors
        size = survivors.bit_count()
        if size > stats.max_image_size_post_prune:
            stats.max_image_size_post_prune = size
        marked.add(node.id)

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------

    def _extract(
        self, rows: dict[int, int], stop_node: PatternNode
    ) -> dict[int, int]:
        """Build a concrete endomorphism from pruned rows.

        Identity is used on ``stop_node``'s strict ancestors and their
        other subtrees (sound: the early-YES condition means ``stop_node``
        maps to itself, and everything outside its subtree is untouched).
        Inside the subtree the choice is greedy top-down, smallest id
        first, which is safe on trees.
        """
        mapping: dict[int, int] = {}
        for node in self.pattern.nodes():
            mapping[node.id] = node.id
        row = rows[stop_node.id]
        if row >> self._slot_of[stop_node.id] & 1:
            root_target = stop_node.id
        else:
            # Lowest set bit = minimum id (slots ascend by id).
            root_target = self._id_of[(row & -row).bit_length() - 1]
        self._assign(stop_node, root_target, rows, mapping)
        return mapping

    def _assign(
        self, v: PatternNode, s: int, rows: dict[int, int], mapping: dict[int, int]
    ) -> None:
        mapping[v.id] = s
        slot = self._slot_of[s]
        for u in v.children:
            pool = self._cc[slot] if u.edge is EdgeKind.CHILD else self._desc[slot]
            choices = pool & rows[u.id]
            if not choices:  # pragma: no cover - pruning guarantees a choice
                raise AssertionError("pruned images admitted an unsupported target")
            chosen = self._id_of[(choices & -choices).bit_length() - 1]
            self._assign(u, chosen, rows, mapping)


# ---------------------------------------------------------------------------
# Flat containment DP
# ---------------------------------------------------------------------------


def flat_mapping_targets(source: TreePattern, target: TreePattern, stats) -> dict[int, set[int]]:
    """Bitset implementation of the ``mapping_targets`` DP.

    Called by :func:`repro.core.containment.mapping_targets` (which owns
    the oracle-cache lookup/store around it); ``stats`` is a
    non-optional :class:`~repro.core.containment.ContainmentStats`. Rows
    are bitsets over the target's slots; the reach pass is memoized per
    distinct row value, and base rows per ``(type, is_output)`` source
    class.
    """
    target_nodes = list(target.nodes())
    id_of = sorted(node.id for node in target_nodes)
    slot_of = {node_id: s for s, node_id in enumerate(id_of)}
    n = len(id_of)
    type_bits: dict[str, int] = {}
    starred = 0
    cc = [0] * n
    child_bits = [0] * n
    for u in target_nodes:
        s = slot_of[u.id]
        b = 1 << s
        for t in u.all_types:
            type_bits[t] = type_bits.get(t, 0) | b
        if u.is_output:
            starred |= b
        for c in u.children:
            cb = 1 << slot_of[c.id]
            child_bits[s] |= cb
            if c.edge.is_child:
                cc[s] |= cb
    post_slots = [slot_of[u.id] for u in target.postorder()]

    rows: dict[int, int] = {}
    base_cache: dict[tuple[str, bool], int] = {}
    reach_cache: dict[int, int] = {}

    def base_for(v: PatternNode) -> int:
        key = (v.type, v.is_output)
        cached = base_cache.get(key)
        if cached is not None:
            stats.base_cache_hits += 1
            return cached
        stats.base_cache_misses += 1
        base = type_bits.get(v.type, 0)
        if v.is_output:
            base &= starred
        base_cache[key] = base
        return base

    def reach_for(row: int) -> int:
        cached = reach_cache.get(row)
        if cached is not None:
            stats.reach_cache_hits += 1
            return cached
        stats.reach_cache_misses += 1
        reach = 0
        for s in post_slots:
            if child_bits[s] & (row | reach):
                reach |= 1 << s
        reach_cache[row] = reach
        return reach

    for v in source.postorder():
        base = base_for(v)
        if v.is_leaf:
            rows[v.id] = base
            continue
        # Per child: (row, relation) for c-edges, (reach, None) for
        # d-edges — admissibility of candidate s is one AND either way.
        c_tests = []
        d_reach = []
        for cv in v.children:
            if cv.edge.is_child:
                c_tests.append(rows[cv.id])
            else:
                d_reach.append(reach_for(rows[cv.id]))
        required_reach = ~0
        for reach in d_reach:
            required_reach &= reach
        admissible = base & required_reach if d_reach else base
        if c_tests:
            bits = admissible
            admissible = 0
            while bits:
                low = bits & -bits
                bits ^= low
                s = low.bit_length() - 1
                for child_row in c_tests:
                    if not child_row & cc[s]:
                        break
                else:
                    admissible |= low
        rows[v.id] = admissible
    return {
        node_id: bits_to_ids(row, id_of) for node_id, row in rows.items()
    }
