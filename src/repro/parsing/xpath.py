"""XPath-subset front-end for tree pattern queries.

The supported fragment is exactly the tree patterns of the paper — the
``/``, ``//`` axes and existential branch predicates::

    query      :=  '/'? path
    path       :=  step ( ('/' | '//') step )*
    step       :=  name '*'? predicate*
    predicate  :=  '[' ('/' | '//' | './/' | '')  path ']'
    name       :=  [A-Za-z_][A-Za-z0-9_.-]*

A predicate with no leading axis (or ``/``) constrains a *child*; ``//``
(or XPath-style ``.//``) constrains a *descendant*. The ``*`` suffix marks
the output node; without one, the last step of the main path is the
output (standard XPath result semantics). Examples::

    parse_xpath("Articles/Article[Title][//Paragraph]")
    parse_xpath("/OrgUnit*[/Dept/Researcher//DBProject][//Dept//DBProject]")

No wildcards, value comparisons, axes beyond ``/`` and ``//``, or
functions — those lie outside the paper's query class (value-based
predicates are its "future work"; see :mod:`repro.extensions.predicates`).
"""

from __future__ import annotations

from ..core.edges import EdgeKind
from ..core.node import PatternNode
from ..core.pattern import TreePattern
from ..errors import OutputNodeError, ParseError

__all__ = ["parse_xpath"]


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def take(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def read_name(self) -> str:
        start = self.pos
        if self.eof() or not (self.text[self.pos].isalpha() or self.text[self.pos] == "_"):
            raise self.error("expected a type name")
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_.-"
        ):
            self.pos += 1
        return self.text[start:self.pos]


class _XPathParser:
    """Parser for the fragment above, iterative so that predicates nest
    deeper than the interpreter's recursion limit."""

    def __init__(self, text: str) -> None:
        self.scanner = _Scanner(text.strip())
        self.pattern: TreePattern | None = None
        self.explicit_output = False

    def parse(self) -> TreePattern:
        s = self.scanner
        if not s.text:
            raise s.error("empty query")
        s.take("/")  # optional leading slash (absolute path)
        last = self._path()
        if not s.eof():
            raise s.error("trailing characters after the query")
        assert self.pattern is not None
        if not self.explicit_output:
            last.is_output = True
        self.pattern.validate()
        return self.pattern

    def _path(self) -> PatternNode:
        """Parse the main path with its predicates; return its last step
        (the default output position).

        ``open_steps`` holds the current step of every open path: the
        main path first, then one entry per unclosed predicate.
        """
        s = self.scanner
        open_steps = [self._step(None, EdgeKind.CHILD)]
        while True:
            node = open_steps[-1]
            if s.take("["):
                s.take(".")  # allow the XPath spelling .// (and ./)
                if s.take("//"):
                    edge = EdgeKind.DESCENDANT
                else:
                    s.take("/")
                    edge = EdgeKind.CHILD
                open_steps.append(self._step(node, edge))
            elif s.take("//"):
                open_steps[-1] = self._step(node, EdgeKind.DESCENDANT)
            elif s.take("/"):
                open_steps[-1] = self._step(node, EdgeKind.CHILD)
            elif len(open_steps) == 1:
                return node
            else:
                open_steps.pop()
                if not s.take("]"):
                    raise s.error("expected ']' to close the predicate")

    def _step(self, parent: PatternNode | None, edge: EdgeKind) -> PatternNode:
        """Read one step's name and ``*`` marker; its predicates follow."""
        s = self.scanner
        name = s.read_name()
        starred = s.take("*")
        if parent is None:
            self.pattern = TreePattern(name)
            node = self.pattern.root
        else:
            assert self.pattern is not None
            node = self.pattern.add_child(parent, name, edge)
        if starred:
            if self.explicit_output:
                raise OutputNodeError("more than one node marked '*'")
            node.is_output = True
            self.explicit_output = True
        return node


def parse_xpath(text: str) -> TreePattern:
    """Parse an XPath-subset string into a :class:`TreePattern`.

    Raises
    ------
    ParseError
        On syntax errors (with the offending offset).
    OutputNodeError
        When more than one step carries the ``*`` marker.
    """
    return _XPathParser(text).parse()
