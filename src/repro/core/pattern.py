"""Tree pattern queries.

A :class:`TreePattern` is the paper's *tree pattern query*: a rooted,
unordered tree of typed nodes connected by child (``/``) and descendant
(``//``) edges, with exactly one node carrying the output marker ``*``.

The class supports the exact mutations the minimization algorithms need —
leaf deletion, subtree deletion, augmentation bookkeeping — plus traversal,
copying, canonical forms, and unordered isomorphism testing (used to verify
Theorem 4.1's "unique up to isomorphism").

Every type name a pattern is given — of a node or an extra type — must
follow :data:`~repro.core.fingerprint.TYPE_NAME`; otherwise construction
raises :class:`~repro.errors.InvalidPatternError`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from ..errors import InvalidPatternError, OutputNodeError
from .edges import EdgeKind
from .fingerprint import TYPE_NAME_RULE, is_type_name, subtree_keys
from .node import NO_TYPES, PatternNode

__all__ = ["TreePattern", "BuildSpec"]

#: Recursive build specification: ``(type[*], [(edge_symbol, spec), ...])``
#: or just ``"type[*]"`` for a leaf.
BuildSpec = Union[str, tuple]


class TreePattern:
    """A tree pattern query (TPQ).

    Create patterns either imperatively::

        q = TreePattern("Articles")
        art = q.add_child(q.root, "Article", EdgeKind.CHILD, is_output=True)
        q.add_child(art, "Section", EdgeKind.DESCENDANT)

    or declaratively from a nested spec::

        q = TreePattern.build(
            ("Articles", [("/", ("Article*", [("//", "Section")]))])
        )

    The output marker is written by suffixing a type with ``*``; if no node
    carries it, the root is marked (a pattern always has exactly one output
    node).
    """

    def __init__(self, root_type: str, *, root_is_output: bool = False) -> None:
        self._next_id = 0
        self._nodes: dict[int, PatternNode] = {}
        # Bumped on every structural or semantic mutation (node flags,
        # extra types, attach/detach) — see PatternNode's setters. The
        # canonical-key memo in repro.core.fingerprint keys on it.
        self._version = 0
        self._root = self._new_node(root_type, None, is_output=root_is_output)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_node(
        self,
        node_type: str,
        edge: Optional[EdgeKind],
        *,
        is_output: bool = False,
        temporary: bool = False,
    ) -> PatternNode:
        _check_type_name(node_type)
        node = PatternNode(
            self, self._next_id, node_type, edge, is_output=is_output, temporary=temporary
        )
        self._nodes[node.id] = node
        self._next_id += 1
        return node

    def add_child(
        self,
        parent: PatternNode,
        node_type: str,
        edge: EdgeKind,
        *,
        is_output: bool = False,
        temporary: bool = False,
    ) -> PatternNode:
        """Create and attach a new child of ``parent``; return it."""
        if parent.pattern is not self:
            raise InvalidPatternError("parent node belongs to a different pattern")
        if is_output and self.output_node_or_none() is not None:
            raise OutputNodeError("pattern already has an output node")
        node = self._new_node(node_type, edge, is_output=is_output, temporary=temporary)
        parent._attach_child(node)
        return node

    @classmethod
    def build(cls, spec: BuildSpec) -> "TreePattern":
        """Build a pattern from a nested specification.

        ``spec`` is either ``"Type"`` / ``"Type*"`` (a leaf) or a tuple
        ``("Type[*]", [(edge_symbol, child_spec), ...])`` where
        ``edge_symbol`` is ``"/"`` or ``"//"``.

        If no node is marked with ``*``, the root becomes the output node.
        """
        root_type, star, children = cls._parse_spec(spec)
        pattern = cls(root_type, root_is_output=star)
        for edge_symbol, child_spec in children:
            cls._build_into(pattern, pattern.root, edge_symbol, child_spec)
        if pattern.output_node_or_none() is None:
            pattern.root.is_output = True
        pattern.validate()
        return pattern

    @staticmethod
    def _parse_spec(spec: BuildSpec) -> tuple[str, bool, Sequence]:
        if isinstance(spec, str):
            type_name, children = spec, ()
        elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
            type_name, children = spec[0], spec[1]
        else:
            raise InvalidPatternError(f"bad build spec: {spec!r}")
        star = type_name.endswith("*")
        if star:
            type_name = type_name[:-1]
        return type_name, star, children

    @classmethod
    def _build_into(
        cls, pattern: "TreePattern", parent: PatternNode, edge_symbol: str, spec: BuildSpec
    ) -> None:
        node_type, star, children = cls._parse_spec(spec)
        node = pattern.add_child(
            parent, node_type, EdgeKind.from_symbol(edge_symbol), is_output=star
        )
        for child_edge, child_spec in children:
            cls._build_into(pattern, node, child_edge, child_spec)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> PatternNode:
        """The pattern's root node."""
        return self._root

    def node(self, node_id: int) -> PatternNode:
        """Look up a live node by id (``KeyError`` if deleted/unknown)."""
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        """Whether a node with this id is still part of the pattern."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[PatternNode]:
        """All live nodes in preorder."""
        return self._root.subtree()

    def leaves(self) -> Iterator[PatternNode]:
        """All leaf nodes in preorder."""
        return (n for n in self.nodes() if n.is_leaf)

    def postorder(self) -> Iterator[PatternNode]:
        """All nodes, children before parents (iterative: works on
        patterns deeper than the interpreter recursion limit)."""
        stack: list[tuple[PatternNode, bool]] = [(self._root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))

    @property
    def size(self) -> int:
        """Number of nodes in the pattern (the paper's query size)."""
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(n.depth for n in self.nodes())

    @property
    def max_fanout(self) -> int:
        """Maximum number of children over all nodes."""
        return max(n.fanout for n in self.nodes())

    def output_node_or_none(self) -> Optional[PatternNode]:
        """The ``*`` node, or ``None`` if the pattern has none (only while
        under construction)."""
        for node in self.nodes():
            if node.is_output:
                return node
        return None

    @property
    def output_node(self) -> PatternNode:
        """The unique ``*`` node.

        Raises
        ------
        OutputNodeError
            If the pattern has no output node.
        """
        node = self.output_node_or_none()
        if node is None:
            raise OutputNodeError("pattern has no output (*) node")
        return node

    def node_types(self) -> set[str]:
        """The set of *original* node types occurring in the pattern."""
        return {n.type for n in self.nodes()}

    def find(self, node_type: str) -> list[PatternNode]:
        """All nodes whose original type equals ``node_type``, preorder."""
        return [n for n in self.nodes() if n.type == node_type]

    def is_ancestor(self, a: PatternNode, b: PatternNode) -> bool:
        """Whether ``a`` is a proper ancestor of ``b`` in this pattern."""
        return any(anc is a for anc in b.ancestors())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def delete_leaf(self, node: PatternNode) -> None:
        """Remove a leaf node (the paper's ``Q - [l]``).

        Raises
        ------
        InvalidPatternError
            If ``node`` is not a leaf of this pattern.
        OutputNodeError
            If ``node`` is the output node (never removable).
        """
        if node.pattern is not self or node.id not in self._nodes:
            raise InvalidPatternError("node does not belong to this pattern")
        if not node.is_leaf:
            raise InvalidPatternError(f"node #{node.id} ({node.label()}) is not a leaf")
        if node.is_output:
            raise OutputNodeError("the output (*) node cannot be deleted")
        if node.is_root:
            raise InvalidPatternError("cannot delete the root node")
        node._detach()
        del self._nodes[node.id]

    def delete_subtree(self, node: PatternNode) -> list[PatternNode]:
        """Remove ``node`` and its whole subtree; return removed nodes
        (leaves first, i.e., in a valid elimination ordering).

        Raises
        ------
        OutputNodeError
            If the subtree contains the output node.
        """
        if node.pattern is not self or node.id not in self._nodes:
            raise InvalidPatternError("node does not belong to this pattern")
        if node.is_root:
            raise InvalidPatternError("cannot delete the root's subtree")
        doomed = list(node.subtree())
        if any(n.is_output for n in doomed):
            raise OutputNodeError("subtree contains the output (*) node")
        # Postorder = leaves first, so the returned list is a valid
        # elimination ordering for the removed nodes.
        removed = self._postorder_from(node)
        for n in removed:
            n._children = ()
        node._detach()
        for n in removed:
            del self._nodes[n.id]
        return removed

    @staticmethod
    def _postorder_from(node: PatternNode) -> list[PatternNode]:
        out: list[PatternNode] = []
        stack: list[tuple[PatternNode, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                out.append(current)
            else:
                stack.append((current, True))
                stack.extend((child, False) for child in reversed(current.children))
        return out

    def strip_temporaries(self) -> int:
        """Delete every subtree rooted at a temporary node; return the
        number of nodes removed. Used as ACIM's final step."""
        removed = 0
        changed = True
        while changed:
            changed = False
            for node in list(self.nodes()):
                if node.temporary and node.id in self._nodes:
                    removed += len(self.delete_subtree(node))
                    changed = True
                    break
        return removed

    def add_extra_type(self, node: PatternNode, node_type: str) -> None:
        """Associate an additional (co-occurrence) type with ``node``."""
        if node.pattern is not self:
            raise InvalidPatternError("node does not belong to this pattern")
        _check_type_name(node_type)
        if node_type != node.type:
            node.extra_types = node.extra_types | {node_type}

    def clear_extra_types(self) -> None:
        """Drop all co-occurrence type annotations (augmentation cleanup)."""
        for node in self.nodes():
            node.extra_types = NO_TYPES

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def __reduce_ex__(self, protocol):
        """Pickle through the flat array form (:mod:`repro.core.flat`).

        A pattern's natural object graph is cyclic (parent/child links,
        node→pattern backrefs) and recursion-deep for chain queries;
        shipping a :class:`~repro.core.flat.FlatPattern` instead
        keeps batch-worker pickles small and depth-independent. The
        round trip preserves node ids, the id counter, and child
        insertion order, so unpickled patterns behave identically.
        """
        from . import flat  # local import: flat imports this module

        return (
            flat.pattern_from_flat,
            (flat.FlatPattern.from_pattern(self),),
        )

    def copy(self) -> "TreePattern":
        """Deep-copy this pattern, preserving node ids and flags."""
        clone = TreePattern.__new__(TreePattern)
        clone._next_id = self._next_id
        clone._nodes = {}
        clone._version = 0

        def clone_node(node: PatternNode) -> PatternNode:
            new = PatternNode(
                clone,
                node.id,
                node.type,
                node.edge,
                is_output=node.is_output,
                temporary=node.temporary,
            )
            new.extra_types = node.extra_types
            clone._nodes[new.id] = new
            return new

        root_copy = clone_node(self._root)
        stack: list[tuple[PatternNode, PatternNode]] = [(self._root, root_copy)]
        while stack:
            original, twin = stack.pop()
            for child in original.children:
                child_copy = clone_node(child)
                twin._attach_child(child_copy)
                stack.append((child, child_copy))
        clone._root = root_copy
        return clone

    # ------------------------------------------------------------------
    # Validation / canonical form / isomorphism
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check invariants: a single output node, registry consistency.

        Raises the appropriate :class:`~repro.errors.PatternError`.
        """
        seen: list[PatternNode] = list(self.nodes())
        outputs = [n for n in seen if n.is_output]
        if len(outputs) != 1:
            raise OutputNodeError(f"pattern must have exactly one output node, found {len(outputs)}")
        if len(seen) != len(self._nodes):
            raise InvalidPatternError("node registry out of sync with the tree")
        for node in seen:
            if self._nodes.get(node.id) is not node:
                raise InvalidPatternError(f"node #{node.id} not registered correctly")
            if node is not self._root and node.edge is None:
                raise InvalidPatternError(f"non-root node #{node.id} lacks an edge kind")

    def canonical_key(self) -> str:
        """The pattern's canonical key
        (:func:`repro.core.fingerprint.subtree_keys` of the root).

        Two patterns are isomorphic — equal up to sibling order and node
        ids — iff their canonical keys are equal. Temporary flags and
        extra types participate, so augmented patterns compare
        faithfully. Leaves no key table on the pattern.
        """
        return subtree_keys(self, memoize=False)[self._root.id]

    def isomorphic(self, other: "TreePattern") -> bool:
        """Unordered isomorphism test (type-, edge-, and ``*``-preserving)."""
        return self.canonical_key() == other.canonical_key()

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def to_ascii(self) -> str:
        """Multi-line indented rendering, one node per line."""
        lines: list[str] = []
        stack: list[tuple[PatternNode, int]] = [(self._root, 0)]
        while stack:
            node, indent = stack.pop()
            edge = node.edge.symbol if node.edge else ""
            lines.append("  " * indent + f"{edge}{node.label()}")
            stack.extend((child, indent + 1) for child in reversed(node.children))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TreePattern size={self.size} root={self._root.label()}>"

    def __len__(self) -> int:
        return self.size


def _check_type_name(name: str) -> None:
    if not is_type_name(name):
        raise InvalidPatternError(f"bad type name {name!r}: expected {TYPE_NAME_RULE}")
