"""Answer sets and embedding counts straight from the definition of an embedding.

The reference for the library's one evaluator, the candidate-set DP of
:class:`repro.matching.embeddings.EmbeddingEngine`. An embedding maps
every pattern node to a data node carrying its type; a c-child goes to a
child of its parent's image, a d-child to a proper descendant of it, and
the pattern root may land anywhere. :func:`reference_images` finds the
data nodes a pattern node takes over all embeddings, and
:func:`reference_count` counts the embeddings, by recursion over the
data tree's parent and child links alone: no index, no candidate
tables and nothing shared with the DP. :func:`reference_images` is
exponential in the worst case and meant for small patterns.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.node import PatternNode
from repro.core.pattern import TreePattern
from repro.data.tree import DataNode, DataTree


def _proper_descendants(d: DataNode) -> Iterator[DataNode]:
    stack = list(d.children)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _proper_ancestors(d: DataNode) -> Iterator[DataNode]:
    node = d.parent
    while node is not None:
        yield node
        node = node.parent


def _below(v: PatternNode, d: DataNode) -> Iterator[DataNode]:
    """Where ``v`` may go when its parent goes to ``d``."""
    return iter(d.children) if v.edge.is_child else _proper_descendants(d)


def _subtree_embeds(v: PatternNode, d: DataNode, skip: Optional[PatternNode] = None) -> bool:
    """Whether ``v``'s subtree, minus the branch at ``skip``, embeds with
    ``v`` at ``d``."""
    return v.type in d.types and all(
        any(_subtree_embeds(c, w) for w in _below(c, d))
        for c in v.children
        if c is not skip
    )


def _rest_embeds(v: PatternNode, d: DataNode) -> bool:
    """Whether the pattern outside ``v``'s subtree embeds around ``v`` at ``d``."""
    parent = v.parent
    if parent is None:
        return True
    if v.edge.is_child:
        above = [] if d.parent is None else [d.parent]
    else:
        above = _proper_ancestors(d)
    return any(
        _subtree_embeds(parent, p, skip=v) and _rest_embeds(parent, p) for p in above
    )


def reference_images(
    pattern: TreePattern, tree: DataTree, node: Optional[PatternNode] = None
) -> set[int]:
    """Ids of the data nodes ``node`` (default: the output node) takes
    over all embeddings of ``pattern`` into ``tree``."""
    v = pattern.output_node if node is None else node
    return {d.id for d in tree.nodes() if _subtree_embeds(v, d) and _rest_embeds(v, d)}


def reference_count(pattern: TreePattern, tree: DataTree) -> int:
    """Number of embeddings of ``pattern`` into ``tree``: at each node,
    the product over the pattern children of the ways each embeds
    below it, summed over where the root goes."""
    memo: dict[tuple[int, int], int] = {}

    def count(v: PatternNode, d: DataNode) -> int:
        key = (v.id, d.id)
        if key not in memo:
            total = int(v.type in d.types)
            for c in v.children:
                total *= sum(count(c, w) for w in _below(c, d))
            memo[key] = total
        return memo[key]

    return sum(count(pattern.root, d) for d in tree.nodes())
