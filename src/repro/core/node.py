"""Pattern node objects.

A :class:`PatternNode` is one node of a :class:`~repro.core.pattern.TreePattern`:
it carries a *type* (element/entry type name), the kind of edge connecting
it to its parent, the optional output marker ``*``, and bookkeeping used by
the minimization algorithms (temporary/augmented status, extra co-occurrence
types).

Nodes are created through :class:`TreePattern` and
:meth:`TreePattern.add_child` rather than directly, so that every node is
registered with its owning pattern, receives a pattern-unique id, and
has a type name that follows the type-name rule
(:data:`repro.core.fingerprint.TYPE_NAME`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from ..errors import InvalidPatternError
from .edges import EdgeKind

if TYPE_CHECKING:  # pragma: no cover
    from .pattern import TreePattern

__all__ = ["PatternNode", "NO_TYPES"]

#: The empty extra-type set, shared: most nodes carry no extra type, and
#: an empty frozenset of their own would cost 216 bytes each.
NO_TYPES: frozenset[str] = frozenset()


class PatternNode:
    """One node of a tree pattern query.

    Attributes
    ----------
    id:
        Integer identifier, unique within the owning pattern and stable
    type:
        The node's (original) type, e.g. ``"Book"``.
    edge:
        The :class:`EdgeKind` of the edge to the parent; ``None`` for the
        root.
    is_output:
        Whether this node carries the ``*`` output marker. Exactly one node
        per pattern does.
    temporary:
        True for nodes materialized by augmentation (Section 5.2 of the
        paper); such nodes are never candidates for redundancy checks and
        are stripped after minimization.
    extra_types:
        Additional types associated with the node by co-occurrence
        augmentation. :attr:`all_types` is ``{type} | extra_types``.
    """

    __slots__ = (
        "id",
        "type",
        "edge",
        "_is_output",
        "_temporary",
        "_extra_types",
        "_parent",
        "_children",
        "_pattern",
    )

    def __init__(
        self,
        pattern: "TreePattern",
        node_id: int,
        node_type: str,
        edge: Optional[EdgeKind],
        *,
        is_output: bool = False,
        temporary: bool = False,
    ) -> None:
        self.id = node_id
        self.type = node_type
        self.edge = edge
        self._is_output = is_output
        self._temporary = temporary
        self._extra_types = NO_TYPES
        self._parent: Optional[PatternNode] = None
        # A leaf holds the empty tuple, not an empty list of its own (56
        # bytes): most nodes of a pattern are leaves.
        self._children: "list[PatternNode] | tuple[()]" = ()
        self._pattern = pattern

    # ------------------------------------------------------------------
    # Semantic attributes
    #
    # Plain attributes to callers, but writes go through setters that
    # bump the owning pattern's structural version — the invalidation
    # signal for the canonical-key memo of repro.core.fingerprint.
    # ------------------------------------------------------------------

    @property
    def is_output(self) -> bool:
        """Whether this node carries the ``*`` output marker."""
        return self._is_output

    @is_output.setter
    def is_output(self, value: bool) -> None:
        self._is_output = value
        self._pattern._version += 1

    @property
    def temporary(self) -> bool:
        """True for nodes materialized by augmentation."""
        return self._temporary

    @temporary.setter
    def temporary(self, value: bool) -> None:
        self._temporary = value
        self._pattern._version += 1

    @property
    def extra_types(self) -> frozenset[str]:
        """Co-occurrence types associated by augmentation."""
        return self._extra_types

    @extra_types.setter
    def extra_types(self, value: frozenset[str]) -> None:
        self._extra_types = value
        self._pattern._version += 1

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def pattern(self) -> "TreePattern":
        """The pattern owning this node."""
        return self._pattern

    @property
    def parent(self) -> Optional["PatternNode"]:
        """The parent node, or ``None`` for the root."""
        return self._parent

    @property
    def children(self) -> tuple["PatternNode", ...]:
        """The node's children (both c- and d-children), in insertion order."""
        return tuple(self._children)

    @property
    def is_root(self) -> bool:
        """True when this node has no parent."""
        return self._parent is None

    @property
    def is_leaf(self) -> bool:
        """True when this node has no children."""
        return not self._children

    @property
    def all_types(self) -> frozenset[str]:
        """Original type plus any co-occurrence (augmented) types."""
        if not self.extra_types:
            return frozenset((self.type,))
        return self.extra_types | {self.type}

    def has_type(self, node_type: str) -> bool:
        """Whether ``node_type`` is among this node's associated types."""
        return node_type == self.type or node_type in self.extra_types

    def c_children(self) -> Iterator["PatternNode"]:
        """Iterate over children attached by child (c-) edges."""
        return (c for c in self._children if c.edge is EdgeKind.CHILD)

    def d_children(self) -> Iterator["PatternNode"]:
        """Iterate over children attached by descendant (d-) edges."""
        return (c for c in self._children if c.edge is EdgeKind.DESCENDANT)

    def ancestors(self) -> Iterator["PatternNode"]:
        """Iterate over proper ancestors, nearest (parent) first."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent

    def descendants(self) -> Iterator["PatternNode"]:
        """Iterate over proper descendants in preorder."""
        stack = list(reversed(self._children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def subtree(self) -> Iterator["PatternNode"]:
        """Iterate over this node and its descendants in preorder."""
        yield self
        yield from self.descendants()

    def path_from_root(self) -> tuple["PatternNode", ...]:
        """The root-to-this-node path, inclusive."""
        return tuple(reversed([self, *self.ancestors()]))

    @property
    def depth(self) -> int:
        """Edge distance from the root (root has depth 0)."""
        return sum(1 for _ in self.ancestors())

    @property
    def fanout(self) -> int:
        """Number of children."""
        return len(self._children)

    # ------------------------------------------------------------------
    # Internal mutation hooks (used by TreePattern only)
    # ------------------------------------------------------------------

    def _attach_child(self, child: "PatternNode") -> None:
        if child._parent is not None:
            raise InvalidPatternError(
                f"node {child.id} already has a parent; cannot attach twice"
            )
        child._parent = self
        if self._children:
            self._children.append(child)
        else:
            self._children = [child]
        self._pattern._version += 1

    def _detach(self) -> None:
        if self._parent is None:
            raise InvalidPatternError("cannot detach the root node")
        siblings = self._parent._children
        siblings.remove(self)
        if not siblings:
            self._parent._children = ()
        self._parent = None
        self._pattern._version += 1

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def label(self) -> str:
        """Human-readable label: type, marker, and temporary flag."""
        star = "*" if self.is_output else ""
        tmp = "?" if self.temporary else ""
        extra = ""
        if self.extra_types:
            extra = "+" + "+".join(sorted(self.extra_types))
        return f"{self.type}{extra}{star}{tmp}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        edge = self.edge.symbol if self.edge else "^"
        return f"<PatternNode #{self.id} {edge}{self.label()}>"
