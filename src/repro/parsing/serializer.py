"""Serializing tree patterns back to XPath-subset strings.

:func:`to_xpath` is the inverse of :func:`repro.parsing.xpath.parse_xpath`
up to query isomorphism: the root-to-output path becomes the main spine
and every side branch becomes a predicate, so
``parse_xpath(to_xpath(q)).isomorphic(q)`` always holds.
"""

from __future__ import annotations

from ..core.node import PatternNode
from ..core.pattern import TreePattern

__all__ = ["to_xpath"]


def to_xpath(pattern: TreePattern) -> str:
    """Render a pattern as an XPath-subset string.

    The main path ends at the output node, where the parser puts the
    output by default, so no ``*`` marker is emitted.
    """
    spine: list[PatternNode] = list(pattern.output_node.path_from_root())
    spine_ids = {n.id for n in spine}
    parts: list[str] = []
    for i, node in enumerate(spine):
        if i > 0:
            parts.append(node.edge.symbol)
        parts.append(node.type)
        for child in node.children:
            if child.id not in spine_ids:  # else: the next main-path step
                _branch(child, parts)
    return "".join(parts)


def _branch(top: PatternNode, parts: list[str]) -> None:
    """Append the predicate ``[...]`` rooted at ``top`` to ``parts``,
    iteratively so that predicates nest past the recursion limit."""
    stack: list = [top]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            parts.append(node)
            continue
        prefix = "[" if node.edge.is_child else "[//"
        parts.append(prefix + node.type + ("*" if node.is_output else ""))
        stack.append("]")
        stack.extend(reversed(node.children))
