"""The flat, array-native minimization core.

This module implements the two hot kernels of the minimizer — the
``redundant-leaf`` images engine (Figure 3 of the paper) and the
containment DP behind :func:`repro.core.containment.mapping_targets`
(Section 4) — over a *flat* representation:

* a :class:`FlatPattern` compiles a :class:`~repro.core.pattern.TreePattern`
  into parallel preorder arrays (interned type table, parent/depth/type/
  edge-kind per node, children as CSR index ranges). It round-trips
  losslessly (node ids, child insertion order, flags, extra types) and is
  what :class:`TreePattern` pickles as — batch workers ship a handful of
  tuples instead of a cyclic object graph;
* every *target set* (an images set, a DP row, an ancestor/descendant
  relation row) is a **bitset**: one Python int whose bit ``s`` stands for
  the target in *slot* ``s``. Slots are assigned in ascending id order
  (virtual targets have negative ids, so they occupy the low slots), which
  makes the lowest set bit of any row the minimum id — every
  smallest-id tie-break is one ``bits & -bits``.

``tests/test_flat.py`` pins the results — minimized patterns,
elimination orders, witnesses — against reference outputs frozen in
``tests/fixtures/core_v1_reference.json``.

Deletion maintenance is where the flat design pays most: the relation
bitsets and type index are **never** maintained — they are built once
and may contain bits of deleted targets forever. A single ``live`` mask
is cleared instead, and every row is computed as
``base & live & ~excluded`` at the point of use, which masks stale bits
automatically.

The images engine also compiles the pattern's real nodes into slot
arrays (child slots, parent slot, child-edge flag, type, output flag),
so a redundancy check walks ints only, and it builds a node's row only
when the bottom-up prune first reads it: a check costs the subtree at
which its early YES or NO fires, not the whole query. Its sweeps are
iterative, so patterns deeper than the interpreter's recursion limit
minimize too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from ..errors import InvalidPatternError
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

    The engine compiles the pattern once and then *tracks* leaf
    deletions through :meth:`delete_leaf`, so the CIM elimination loop
    (:mod:`repro.core.cim`) reuses one engine for its whole run instead
    of rebuilding it O(n) times; any other mutation of the pattern while
    the engine is in use invalidates it. Build compiles the pattern plus
    its virtual targets into per-slot relation bitsets (``cc``:
    c-children, ``desc``: proper descendants, ``anc``: ancestors) over
    the combined tree, a type→slots index, a static anchored-virtuals
    map, and the real nodes as slot arrays (live child slots in
    insertion order, parent slot, child-edge flag, type, output flag).
    A check reads nothing else: it walks slot ints, and builds a node's
    images row (``base & live & ~excluded``) only when the prune first
    reads it, so it costs the subtree at which its early YES or NO
    fires, not the whole query. The relation tables, type index and
    base rows are not maintained across deletions — see the module
    docstring for the ``live``-mask invariant; :meth:`delete_leaf` only
    clears bits and drops the leaf's slot from its parent's child list.
    Like Figure 3, a check carries nothing over to the next one.

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
        Must be deterministic: base rows are cached across checks.
    """

    def __init__(
        self,
        pattern: TreePattern,
        virtual: Sequence[VirtualTarget] = (),
        stats: Optional[ImagesStats] = None,
        pair_filter: Optional[Callable[[int, int], bool]] = None,
    ) -> None:
        self._virtual = tuple(virtual)
        self.pair_filter = pair_filter
        self.stats = stats if stats is not None else ImagesStats()
        self.stats.engine_builds += 1
        start = time.perf_counter()
        self._build(pattern, self._virtual)
        self.stats.tables_seconds += time.perf_counter() - start

    def _build(self, pattern: TreePattern, virtual: tuple[VirtualTarget, ...]) -> None:
        # Breadth-first: every parent precedes its children.
        nodes = [pattern.root]
        child_lists = []
        for node in nodes:
            children = node.children
            child_lists.append(children)
            nodes.extend(children)
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
        self._root = slot_of[pattern.root.id]

        # The real nodes as slot arrays — the sources a check sweeps.
        # ``kids`` lists live child slots in insertion order; delete_leaf
        # keeps it current.
        kids: list[list[int]] = [[] for _ in range(n)]
        parent = [-1] * n
        child_edge = [False] * n
        type_of: list[str] = [""] * n
        cc = [0] * n
        type_bits: dict[str, int] = {}
        starred = 0
        # c-children whose parent holds the previous slot, and the others.
        first_c = other_c = 0
        # Every parent precedes its children in ``order``.
        order: list[int] = []
        for node, children in zip(nodes, child_lists):
            s = slot_of[node.id]
            b = 1 << s
            type_of[s] = node.type
            type_bits[node.type] = type_bits.get(node.type, 0) | b
            for t in node.extra_types:
                type_bits[t] = type_bits.get(t, 0) | b
            if node.is_output:
                starred |= b
            row = kids[s]
            for child in children:
                c = slot_of[child.id]
                row.append(c)
                order.append(c)
                parent[c] = s
                if child.edge is EdgeKind.CHILD:
                    child_edge[c] = True
                    cc[s] |= 1 << c
                    if c == s + 1:
                        first_c |= 1 << c
                    else:
                        other_c |= 1 << c
        self._kids = kids
        self._parent = parent
        self._child_edge = child_edge
        self._type_of = type_of

        # Virtual targets: extra children in the relation tables, never
        # swept (they are targets only).
        anchored: dict[int, list[VirtualTarget]] = {}
        anchored_mask: dict[int, int] = {}
        real_anchor: dict[int, int] = {}
        for vt in virtual:
            vs = slot_of[vt.id]
            ps = slot_of[vt.parent_id]
            parent[vs] = ps
            order.append(vs)
            if vt.edge is EdgeKind.CHILD:
                cc[ps] |= 1 << vs
                other_c |= 1 << vs
            anchor = ps if vt.parent_id >= 0 else real_anchor[ps]
            real_anchor[vs] = anchor
            anchored.setdefault(anchor, []).append(vt)
            anchored_mask[anchor] = anchored_mask.get(anchor, 0) | 1 << vs
            b = 1 << vs
            for t in vt.all_types:
                type_bits[t] = type_bits.get(t, 0) | b
        self._cc = cc
        self._first_c = first_c
        self._other_c = other_c
        self._anchored = {k: tuple(v) for k, v in anchored.items()}
        self._anchored_mask = anchored_mask
        self._type_bits = type_bits
        self._starred = starred

        # Ancestor and descendant bitsets over the combined tree (the
        # virtual targets list virtual parents first).
        anc = [0] * n
        desc = [0] * n
        for s in order:
            p = parent[s]
            anc[s] = anc[p] | 1 << p
        for s in reversed(order):
            desc[parent[s]] |= 1 << s | desc[s]
        self._desc = desc
        self._anc = anc
        self._base_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def virtual(self) -> tuple[VirtualTarget, ...]:
        """The live virtual targets, in the order the engine was given."""
        live = self._live
        slot_of = self._slot_of
        return tuple(vt for vt in self._virtual if live >> slot_of[vt.id] & 1)

    def is_redundant_leaf(self, leaf: PatternNode) -> bool:
        """The paper's ``redundant-leaf`` test for ``leaf``."""
        return self._run(leaf) is not None

    def delete_leaf(self, leaf: PatternNode) -> tuple[VirtualTarget, ...]:
        """Incrementally track the deletion of ``leaf``; returns the
        virtual targets that died with it.

        Relation bitsets, type index, and base rows are left untouched:
        clearing the leaf's (and its anchored virtuals') bits from the
        ``live`` mask retires them everywhere at once, because every row
        (and :attr:`virtual`) is masked with ``live`` at the point of
        use. The leaf's slot leaves its parent's child list (the engine
        keeps its own parent slots: the caller may already have detached
        the leaf).
        """
        start = time.perf_counter()
        leaf_id = leaf.id
        slot = self._slot_of.get(leaf_id)
        if slot is None or not self._live >> slot & 1:
            raise InvalidPatternError(f"node {leaf_id} is not in the table")
        dropped = self._anchored.get(slot, ())
        dead = 1 << slot | self._anchored_mask.get(slot, 0)
        if self._desc[slot] & self._live & ~dead:
            raise InvalidPatternError(
                f"node {leaf_id} still has descendants; delete them first"
            )
        self._live &= ~dead
        parent = self._parent[slot]
        if parent >= 0:
            self._kids[parent].remove(slot)
        self._base_cache.pop(slot, None)
        self.stats.incremental_deletes += 1
        self.stats.tables_seconds += time.perf_counter() - start
        return dropped

    def redundancy_witness(self, leaf: PatternNode) -> Optional[dict[int, int]]:
        """A concrete endomorphism witnessing redundancy of ``leaf`` (node
        id → target id, negative = virtual), or ``None``."""
        result = self._run(leaf)
        if result is None:
            return None
        rows, stop = result
        return self._extract(rows, stop)

    def row_ids(self, row: int) -> set[int]:
        """Decode a bitset row into target ids (testing/introspection)."""
        return bits_to_ids(row, self._id_of)

    # ------------------------------------------------------------------
    # Core algorithm (Figure 3, over bitset rows)
    # ------------------------------------------------------------------

    def _base_row(self, s: int) -> int:
        """The memoized deletion-invariant part of ``images`` of the
        real node in slot ``s``.

        Cached rows may keep bits of targets that die later; consumers
        mask with ``live`` at use, so the cache needs no maintenance.
        """
        cached = self._base_cache.get(s)
        if cached is not None:
            self.stats.base_cache_hits += 1
            return cached
        self.stats.base_cache_misses += 1
        row = self._type_bits.get(self._type_of[s], 0) & self._live
        if self._starred >> s & 1:
            row &= self._starred
        if self.pair_filter is not None:
            node_id = self._id_of[s]
            id_of = self._id_of
            kept = 0
            bits = row
            while bits:
                low = bits & -bits
                bits ^= low
                if self.pair_filter(node_id, id_of[low.bit_length() - 1]):
                    kept |= low
            row = kept
        self._base_cache[s] = row
        return row

    def _image_row(self, s: int, admissible: int) -> int:
        """``images`` of slot ``s`` as a check first reads it:
        ``base & live & ~excluded`` (``admissible`` is ``live &
        ~excluded``)."""
        row = self._base_row(s) & admissible
        size = row.bit_count()
        if size > self.stats.max_image_size:
            self.stats.max_image_size = size
        return row

    def _run(self, leaf: PatternNode) -> Optional[tuple[dict[int, int], int]]:
        """Run the test; return ``(pruned rows by slot, stop slot)`` when
        the leaf is redundant, else ``None``.

        ``stop slot`` is the ancestor at which an early YES fired
        (identity extends above it), or the root. The rows dict holds
        exactly the nodes whose subtree the check pruned (a leaf counts
        as pruned once its row is read).
        """
        slot = self._slot_of.get(leaf.id)
        if slot is None or not self._live >> slot & 1:
            raise InvalidPatternError(f"node {leaf.id} is not in the table")
        if self._kids[slot]:
            raise InvalidPatternError("redundant-leaf requires a leaf node")
        if self._starred >> slot & 1:
            return None
        self.stats.redundancy_checks += 1
        start = time.perf_counter()
        try:
            # The leaf itself plus the virtual targets anchored at it are
            # barred from every row.
            excluded = 1 << slot | self._anchored_mask.get(slot, 0)
            admissible = self._live & ~excluded
            row = self._image_row(slot, admissible)
            if not row:
                return None
            rows = {slot: row}
            parent = self._parent
            s = parent[slot]
            while s >= 0:
                self._sweep(s, rows, admissible)
                row = rows[s]
                if not row:
                    return None
                if row >> s & 1:
                    # Early YES: s maps to itself, identity extends to
                    # all ancestors (Figure 3, step 4.3).
                    return rows, s
                s = parent[s]
            if rows[self._root]:
                return rows, self._root
            return None
        finally:
            self.stats.prune_seconds += time.perf_counter() - start

    def _sweep(self, top: int, rows: dict[int, int], admissible: int) -> None:
        """Prune ``rows`` throughout ``top``'s subtree, children before
        parents and siblings in insertion order, skipping subtrees
        already pruned (keys of ``rows``).

        Iterative, so a check handles subtrees deeper than the
        interpreter's recursion limit.
        """
        kids = self._kids
        # Frames: [slot, next child index].
        frames: list[list[int]] = [[top, 0]]
        while frames:
            frame = frames[-1]
            children = kids[frame[0]]
            i = frame[1]
            while i < len(children):
                c = children[i]
                i += 1
                if c in rows:
                    continue
                if kids[c]:
                    break
                rows[c] = self._image_row(c, admissible)
            else:
                frames.pop()
                self._prune(frame[0], rows, admissible)
                continue
            frame[1] = i
            frames.append([c, 0])

    def _prune(self, s: int, rows: dict[int, int], admissible: int) -> None:
        """Prune the row of non-leaf slot ``s`` against its children's
        (already pruned) rows.

        A candidate target ``t`` survives when every child ``u`` has a
        member of ``rows[u]`` that is a c-child (d-child: a proper
        descendant) of ``t``. Per child, the survivors are filtered
        candidate by candidate, one AND with ``t``'s relation row each,
        unless it is cheaper to intersect them with the targets
        ``rows[u]`` supports (:meth:`_c_parents`, :meth:`_ancestors`).
        Both give the same survivors; ``pruned_entries`` counts the
        candidates that fail. The loop wins where a row holds many
        virtual c-children and the candidates are few (Figure 7's
        queries), the intersection on long chains, where the loop would
        make a check quadratic in the depth.
        """
        bits = self._image_row(s, admissible)
        survivors = bits
        for u in self._kids[s]:
            if not survivors:
                break
            row = rows[u]
            count = survivors.bit_count()
            if self._child_edge[u]:
                if (row & self._other_c).bit_count() < count:
                    survivors &= self._c_parents(row)
                    continue
                relation = self._cc
            elif row.bit_count() < count:
                survivors &= self._ancestors(row)
                continue
            else:
                relation = self._desc
            kept = 0
            pending = survivors
            while pending:
                low = pending & -pending
                pending ^= low
                if row & relation[low.bit_length() - 1]:
                    kept |= low
            survivors = kept
        rows[s] = survivors
        stats = self.stats
        stats.pruned_entries += bits.bit_count() - survivors.bit_count()
        size = survivors.bit_count()
        if size > stats.max_image_size_post_prune:
            stats.max_image_size_post_prune = size

    def _c_parents(self, row: int) -> int:
        """The targets with a c-child in ``row``: one shift for the
        members whose parent holds the previous slot (the first child of
        every node of a pattern built in preorder), one lookup for each
        other c-child."""
        parents = (row & self._first_c) >> 1
        rest = row & self._other_c
        parent = self._parent
        while rest:
            low = rest & -rest
            rest ^= low
            parents |= 1 << parent[low.bit_length() - 1]
        return parents

    def _ancestors(self, row: int) -> int:
        """The targets with a proper descendant in ``row``, highest slot
        first: a member already among the ancestors found adds nothing,
        so a row along one path costs one step."""
        anc = self._anc
        ancestors = 0
        while row:
            x = row.bit_length() - 1
            ancestors |= anc[x]
            row &= ~(ancestors | 1 << x)
        return ancestors

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------

    def _extract(self, rows: dict[int, int], stop: int) -> dict[int, int]:
        """Build a concrete endomorphism from pruned rows.

        Identity is used on ``stop``'s strict ancestors and their other
        subtrees (sound: the early-YES condition means ``stop`` maps to
        itself, and everything outside its subtree is untouched). Inside
        the subtree the choice is greedy top-down, smallest id first,
        which is safe on trees.
        """
        id_of = self._id_of
        kids = self._kids
        mapping: dict[int, int] = {}
        stack = [self._root]
        while stack:  # identity, keyed in preorder
            s = stack.pop()
            mapping[id_of[s]] = id_of[s]
            stack.extend(reversed(kids[s]))
        row = rows[stop]
        # Lowest set bit = minimum id (slots ascend by id).
        target = stop if row >> stop & 1 else (row & -row).bit_length() - 1
        cc = self._cc
        desc = self._desc
        child_edge = self._child_edge
        todo = [(stop, target)]
        while todo:
            v, t = todo.pop()
            mapping[id_of[v]] = id_of[t]
            for u in kids[v]:
                choices = (cc[t] if child_edge[u] else desc[t]) & rows[u]
                if not choices:  # pragma: no cover - pruning guarantees a choice
                    raise AssertionError("pruned images admitted an unsupported target")
                todo.append((u, (choices & -choices).bit_length() - 1))
        return mapping


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
