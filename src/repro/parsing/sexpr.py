"""S-expression round-trip format for tree patterns.

A stable, whitespace-tolerant textual form used for fixtures and tooling::

    (Articles
      (/ (Article (/ Title) (// Paragraph)))
      (/ (Article* (// (Section (// Paragraph))))))

Grammar::

    pattern := '(' name child* ')' | name
    child   := '(' ('/' | '//') pattern ')'
    name    := type name, optionally suffixed with '*'

Leaves may omit their parentheses (``Title`` ≡ ``(Title)``).
"""

from __future__ import annotations

from ..core.edges import EdgeKind
from ..core.node import PatternNode
from ..core.pattern import TreePattern
from ..errors import ParseError

__all__ = ["parse_sexpr", "to_sexpr"]


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            tokens.append(text[start:i])
    return tokens


class _SexprParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return token

    def parse(self) -> TreePattern:
        pattern = self._pattern()
        if self.peek() is not None:
            raise self.error(f"trailing tokens starting at {self.peek()!r}")
        if pattern.output_node_or_none() is None:
            pattern.root.is_output = True
        pattern.validate()
        return pattern

    def _pattern(self) -> TreePattern:
        """Read the whole pattern, iteratively so that forms nest deeper
        than the interpreter's recursion limit.

        ``open_nodes`` holds the parenthesized nodes whose child lists
        are still open, outermost first.
        """
        pattern: TreePattern | None = None
        attach: tuple[PatternNode, EdgeKind] | None = None
        open_nodes: list[PatternNode] = []
        while True:
            token = self.next()
            parenthesized = token == "("
            if parenthesized:
                token = self.next()
            if token in ("(", ")", "/", "//"):
                raise self.error(f"expected a type name, got {token!r}")
            name, star = (token[:-1], True) if token.endswith("*") else (token, False)
            if not name:
                raise self.error("empty type name")
            if pattern is None:
                pattern = TreePattern(name, root_is_output=star)
                node = pattern.root
            else:
                assert attach is not None
                parent, edge = attach
                node = pattern.add_child(parent, name, edge, is_output=star)
            if parenthesized:
                open_nodes.append(node)
            elif open_nodes:
                self._close_child()
            while open_nodes and self.peek() == ")":
                self.next()  # consume ')'
                open_nodes.pop()
                if open_nodes:
                    self._close_child()
            if not open_nodes:
                return pattern
            attach = self._open_child(open_nodes[-1])

    def _open_child(self, parent: PatternNode) -> tuple[PatternNode, EdgeKind]:
        """Read ``'(' ('/' | '//')``; return where the child attaches."""
        if self.next() != "(":
            raise self.error("expected '(' to open a child form")
        edge_token = self.next()
        if edge_token not in ("/", "//"):
            raise self.error(f"expected '/' or '//', got {edge_token!r}")
        return parent, EdgeKind.from_symbol(edge_token)

    def _close_child(self) -> None:
        if self.next() != ")":
            raise self.error("expected ')' to close the child form")


def parse_sexpr(text: str) -> TreePattern:
    """Parse the s-expression form into a pattern (root becomes the
    output node when no ``*`` appears)."""
    return _SexprParser(text).parse()


def to_sexpr(pattern: TreePattern, *, pretty: bool = False) -> str:
    """Serialize a pattern to its s-expression form.

    ``pretty=True`` produces an indented multi-line rendering.
    """
    parts: list[str] = []
    # Nodes still to render, with their depth, and closing text.
    stack: list = [(pattern.root, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        node, level = item
        label = node.type + ("*" if node.is_output else "")
        children = node.children
        if not children:
            parts.append(label)
            continue
        sep = "\n" + "  " * (level + 1) if pretty else " "
        parts.append("(" + label)
        stack.append(")")
        for child in reversed(children):
            stack.append(")")
            stack.append((child, level + 1))
            stack.append(f"{sep}({child.edge.symbol} ")
    return "".join(parts)
