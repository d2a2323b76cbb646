"""Tests for the tree pattern model (nodes, construction, mutation)."""

from __future__ import annotations

import pytest

from repro import CHILD, DESCENDANT, EdgeKind, TreePattern
from repro.errors import InvalidPatternError, OutputNodeError


def small_pattern() -> TreePattern:
    return TreePattern.build(
        ("a", [("/", ("b*", [("//", "c"), ("/", "d")])), ("//", "e")])
    )


class TestEdgeKind:
    def test_symbols(self):
        assert CHILD.symbol == "/"
        assert DESCENDANT.symbol == "//"

    def test_from_symbol(self):
        assert EdgeKind.from_symbol("/") is CHILD
        assert EdgeKind.from_symbol("//") is DESCENDANT

    def test_from_symbol_rejects_garbage(self):
        with pytest.raises(ValueError):
            EdgeKind.from_symbol("///")

    def test_predicates(self):
        assert CHILD.is_child and not CHILD.is_descendant
        assert DESCENDANT.is_descendant and not DESCENDANT.is_child


class TestConstruction:
    def test_build_counts_nodes(self):
        q = small_pattern()
        assert q.size == 5
        assert len(q) == 5

    def test_root_properties(self):
        q = small_pattern()
        assert q.root.is_root
        assert q.root.edge is None
        assert q.root.type == "a"

    def test_star_suffix_marks_output(self):
        q = small_pattern()
        assert q.output_node.type == "b"

    def test_build_defaults_star_to_root(self):
        q = TreePattern.build(("x", [("/", "y")]))
        assert q.output_node is q.root

    def test_leaf_spec_as_bare_string(self):
        q = TreePattern.build("solo")
        assert q.size == 1 and q.root.is_leaf and q.root.is_output

    def test_add_child_returns_attached_node(self):
        q = TreePattern("r", root_is_output=True)
        child = q.add_child(q.root, "x", CHILD)
        assert child.parent is q.root
        assert q.root.children == (child,)
        assert child.edge is CHILD

    def test_two_outputs_rejected(self):
        q = TreePattern("r", root_is_output=True)
        with pytest.raises(OutputNodeError):
            q.add_child(q.root, "x", CHILD, is_output=True)

    def test_bad_build_spec_rejected(self):
        with pytest.raises(InvalidPatternError):
            TreePattern.build(42)  # type: ignore[arg-type]

    def test_empty_type_rejected(self):
        with pytest.raises(InvalidPatternError):
            TreePattern("")

    @pytest.mark.parametrize("name", ["x;/y", "b|", "/x", "a,b", "(a)", "a*", "1a", "a b"])
    def test_type_names_follow_the_rule(self, name):
        # The canonical key's delimiters may not occur in a type name.
        q = TreePattern("r")
        with pytest.raises(InvalidPatternError):
            TreePattern(name)
        with pytest.raises(InvalidPatternError):
            q.add_child(q.root, name, CHILD)
        with pytest.raises(InvalidPatternError):
            q.add_extra_type(q.root, name)
        assert q.size == 1 and not q.root.extra_types

    def test_cross_pattern_attach_rejected(self):
        q1, q2 = TreePattern("a"), TreePattern("b")
        with pytest.raises(InvalidPatternError):
            q1.add_child(q2.root, "x", CHILD)


class TestTraversal:
    def test_preorder_order(self):
        q = small_pattern()
        assert [n.type for n in q.nodes()] == ["a", "b", "c", "d", "e"]

    def test_postorder_children_first(self):
        q = small_pattern()
        order = [n.type for n in q.postorder()]
        assert order.index("c") < order.index("b")
        assert order[-1] == "a"

    def test_leaves(self):
        q = small_pattern()
        assert {n.type for n in q.leaves()} == {"c", "d", "e"}

    def test_ancestors_nearest_first(self):
        q = small_pattern()
        c = q.find("c")[0]
        assert [n.type for n in c.ancestors()] == ["b", "a"]

    def test_path_from_root(self):
        q = small_pattern()
        c = q.find("c")[0]
        assert [n.type for n in c.path_from_root()] == ["a", "b", "c"]

    def test_depth_and_fanout(self):
        q = small_pattern()
        assert q.depth == 2
        assert q.max_fanout == 2
        assert q.find("c")[0].depth == 2

    def test_c_and_d_children(self):
        q = small_pattern()
        b = q.find("b")[0]
        assert [n.type for n in b.c_children()] == ["d"]
        assert [n.type for n in b.d_children()] == ["c"]

    def test_is_ancestor(self):
        q = small_pattern()
        a, c, e = q.root, q.find("c")[0], q.find("e")[0]
        assert q.is_ancestor(a, c)
        assert not q.is_ancestor(c, a)
        assert not q.is_ancestor(c, e)

    def test_node_lookup(self):
        q = small_pattern()
        assert q.node(q.root.id) is q.root
        assert q.has_node(q.root.id)
        assert not q.has_node(999)


class TestMutation:
    def test_delete_leaf(self):
        q = small_pattern()
        c = q.find("c")[0]
        q.delete_leaf(c)
        assert q.size == 4
        assert not q.has_node(c.id)
        assert "c" not in q.node_types()

    def test_delete_leaf_rejects_internal(self):
        q = small_pattern()
        with pytest.raises(InvalidPatternError):
            q.delete_leaf(q.find("b")[0])

    def test_delete_leaf_rejects_output(self):
        q = TreePattern.build(("a", [("/", "b*")]))
        with pytest.raises(OutputNodeError):
            q.delete_leaf(q.output_node)

    def test_delete_leaf_rejects_root(self):
        q = TreePattern("a")  # not the output node, so the root check fires
        with pytest.raises(InvalidPatternError):
            q.delete_leaf(q.root)

    def test_delete_subtree(self):
        q = TreePattern.build(
            ("a*", [("/", ("b", [("//", "c"), ("/", "d")])), ("//", "e")])
        )
        removed = q.delete_subtree(q.find("b")[0])
        assert {n.type for n in removed} == {"b", "c", "d"}
        # Postorder: leaves before their parent.
        assert [n.type for n in removed][-1] == "b"
        assert q.size == 2

    def test_delete_subtree_protects_output(self):
        q = small_pattern()  # the output node is b itself
        with pytest.raises(OutputNodeError):
            q.delete_subtree(q.find("b")[0])

    def test_delete_subtree_rejects_root(self):
        q = small_pattern()
        with pytest.raises(InvalidPatternError):
            q.delete_subtree(q.root)

    def test_strip_temporaries(self):
        q = TreePattern.build(("a*", [("/", "b")]))
        q.add_child(q.root, "t", CHILD, temporary=True)
        tmp2 = q.add_child(q.find("b")[0], "u", DESCENDANT, temporary=True)
        q.add_child(tmp2, "v", CHILD)  # non-temp under temp goes too
        assert q.strip_temporaries() == 3
        assert q.size == 2

    def test_extra_types(self):
        q = TreePattern.build(("a*", [("/", "b")]))
        b = q.find("b")[0]
        q.add_extra_type(b, "x")
        q.add_extra_type(b, "b")  # self type is a no-op
        assert b.all_types == {"b", "x"}
        assert b.has_type("x") and b.has_type("b") and not b.has_type("y")
        q.clear_extra_types()
        assert b.all_types == {"b"}


class TestCopyAndCanonical:
    def test_copy_is_deep_and_id_preserving(self):
        q = small_pattern()
        clone = q.copy()
        assert clone.isomorphic(q)
        assert {n.id for n in clone.nodes()} == {n.id for n in q.nodes()}
        clone.delete_leaf(clone.find("c")[0])
        assert q.size == 5 and clone.size == 4

    def test_copy_preserves_flags(self):
        q = TreePattern.build(("a*", [("/", "b")]))
        q.add_child(q.root, "t", CHILD, temporary=True)
        q.add_extra_type(q.find("b")[0], "x")
        clone = q.copy()
        assert any(n.temporary for n in clone.nodes())
        assert clone.find("b")[0].all_types == {"b", "x"}

    def test_isomorphism_ignores_sibling_order(self):
        q1 = TreePattern.build(("a", [("/", "b"), ("//", "c")]))
        q2 = TreePattern.build(("a", [("//", "c"), ("/", "b")]))
        assert q1.isomorphic(q2)

    def test_isomorphism_distinguishes_edges(self):
        q1 = TreePattern.build(("a", [("/", "b")]))
        q2 = TreePattern.build(("a", [("//", "b")]))
        assert not q1.isomorphic(q2)

    def test_isomorphism_distinguishes_star(self):
        q1 = TreePattern.build(("a", [("/", "b*")]))
        q2 = TreePattern.build(("a*", [("/", "b")]))
        assert not q1.isomorphic(q2)

    def test_validate_detects_missing_output(self):
        q = TreePattern("a")
        with pytest.raises(OutputNodeError):
            q.validate()

    def test_to_ascii_mentions_every_node(self):
        art = small_pattern().to_ascii()
        for t in "abcde":
            assert t in art
        assert "b*" in art
