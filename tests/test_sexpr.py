"""Tests for the s-expression pattern format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import TreePattern
from repro.core.edges import EdgeKind
from repro.errors import ParseError
from repro.parsing import parse_sexpr, parse_xpath, to_sexpr


class TestParse:
    def test_nested(self):
        q = parse_sexpr("(a (/ (b* (// c))) (// d))")
        assert q.size == 4
        assert q.output_node.type == "b"
        assert q.find("c")[0].edge is EdgeKind.DESCENDANT

    def test_leaf_without_parens(self):
        q = parse_sexpr("(a (/ b))")
        assert q.size == 2

    def test_bare_root(self):
        q = parse_sexpr("root")
        assert q.size == 1 and q.root.is_output

    def test_default_output_is_root(self):
        q = parse_sexpr("(a (/ b))")
        assert q.output_node is q.root

    def test_whitespace_insensitive(self):
        q1 = parse_sexpr("(a (/ b) (// c))")
        q2 = parse_sexpr("(a\n  (/ b)\n  (// c))")
        assert q1.isomorphic(q2)

    @pytest.mark.parametrize(
        "text",
        ["", "(", "(a", "(a (b))", "(a (/ b) extra)", "(a (/))", "(a (x b))", "()", "(*)",
         # A type holding a key delimiter: "/x" under "/" would share its
         # canonical key with "x" under "//".
         "(r* (/ /x))"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_sexpr(text)


class TestRoundTrip:
    def test_compact_and_pretty_agree(self):
        q = parse_xpath("a/b*[c][//d/e]")
        compact = to_sexpr(q)
        pretty = to_sexpr(q, pretty=True)
        assert parse_sexpr(compact).isomorphic(q)
        assert parse_sexpr(pretty).isomorphic(q)
        assert "\n" in pretty and "\n" not in compact


@st.composite
def patterns(draw, max_size: int = 8) -> TreePattern:
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(st.sampled_from(["a", "b", "c"])))
    nodes = [pattern.root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        nodes.append(pattern.add_child(parent, draw(st.sampled_from(["a", "b", "c"])), edge))
    nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))].is_output = True
    return pattern


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_round_trip_is_isomorphic(pattern: TreePattern):
    assert parse_sexpr(to_sexpr(pattern)).isomorphic(pattern)
