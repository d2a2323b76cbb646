"""Tests for the images-based ``redundant-leaf`` engine (Figure 3)."""

from __future__ import annotations

import pytest

from repro import CHILD, DESCENDANT, TreePattern
from repro.core.flat import FlatImagesEngine
from repro.core.images import ImagesStats, VirtualTarget
from repro.errors import InvalidPatternError


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


def is_c_child(pattern: TreePattern, node_id: int, parent_id: int) -> bool:
    node = pattern.node(node_id)
    return node.parent is not None and node.parent.id == parent_id and node.edge.is_child


def is_descendant(pattern: TreePattern, node_id: int, ancestor_id: int) -> bool:
    node = pattern.node(node_id).parent
    while node is not None:
        if node.id == ancestor_id:
            return True
        node = node.parent
    return False


class TestRedundantLeaf:
    def test_duplicate_sibling_leaves(self):
        pattern = q(("a*", [("/", "b"), ("/", "b")]))
        engine = FlatImagesEngine(pattern)
        leaves = pattern.find("b")
        assert engine.is_redundant_leaf(leaves[0])
        assert engine.is_redundant_leaf(leaves[1])

    def test_distinct_leaves_not_redundant(self):
        pattern = q(("a*", [("/", "b"), ("/", "c")]))
        engine = FlatImagesEngine(pattern)
        for leaf in pattern.leaves():
            assert not engine.is_redundant_leaf(leaf)

    def test_c_leaf_cannot_fold_to_d_leaf_chain(self):
        # a*[/b][//x/b]: the c-child b has no other c-child b target.
        pattern = q(("a*", [("/", "b"), ("//", ("x", [("/", "b")]))]))
        engine = FlatImagesEngine(pattern)
        c_leaf = [n for n in pattern.find("b") if n.parent.type == "a"][0]
        assert not engine.is_redundant_leaf(c_leaf)

    def test_d_leaf_folds_into_deeper_occurrence(self):
        # a*[//b][//x[/b]]: the outer //b maps to the deeper b.
        pattern = q(("a*", [("//", "b"), ("//", ("x", [("/", "b")]))]))
        engine = FlatImagesEngine(pattern)
        d_leaf = [n for n in pattern.find("b") if n.parent.type == "a"][0]
        assert engine.is_redundant_leaf(d_leaf)
        deep_leaf = [n for n in pattern.find("b") if n.parent.type == "x"][0]
        assert not engine.is_redundant_leaf(deep_leaf)

    def test_output_leaf_never_redundant(self):
        pattern = q(("a", [("/", "b*"), ("/", "b")]))
        engine = FlatImagesEngine(pattern)
        assert not engine.is_redundant_leaf(pattern.output_node)

    def test_requires_a_leaf(self):
        pattern = q(("a*", [("/", ("b", [("/", "c")]))]))
        engine = FlatImagesEngine(pattern)
        with pytest.raises(InvalidPatternError):
            engine.is_redundant_leaf(pattern.find("b")[0])

    def test_whole_branch_fold(self):
        # Figure 2(h): leaf of the right branch is redundant.
        pattern = q(("O*", [
            ("/", ("D", [("/", ("R", [("//", "P")]))])),
            ("//", ("D", [("//", "P")])),
        ]))
        engine = FlatImagesEngine(pattern)
        right_p = [n for n in pattern.find("P") if n.parent.type == "D" and n.parent.edge.is_descendant][0]
        assert engine.is_redundant_leaf(right_p)

    def test_witness_is_an_endomorphism(self):
        pattern = q(("O*", [
            ("/", ("D", [("/", ("R", [("//", "P")]))])),
            ("//", ("D", [("//", "P")])),
        ]))
        engine = FlatImagesEngine(pattern)
        right_p = [n for n in pattern.find("P") if n.parent.edge and n.parent.edge.is_descendant][0]
        witness = engine.redundancy_witness(right_p)
        assert witness is not None
        assert witness[right_p.id] != right_p.id
        for node in pattern.nodes():
            target = witness[node.id]
            assert pattern.node(target).has_type(node.type)
            if node.parent is not None:
                parent_target = witness[node.parent.id]
                if node.edge.is_child:
                    assert is_c_child(pattern, target, parent_target)
                else:
                    assert is_descendant(pattern, target, parent_target)

    def test_witness_none_when_not_redundant(self):
        pattern = q(("a*", [("/", "b"), ("/", "c")]))
        engine = FlatImagesEngine(pattern)
        assert engine.redundancy_witness(pattern.find("c")[0]) is None


class TestVirtualTargets:
    def test_virtual_requires_live_parent(self):
        pattern = q(("a*", [("/", "b")]))
        with pytest.raises(InvalidPatternError):
            FlatImagesEngine(pattern, [VirtualTarget(-1, "x", 999, CHILD)])

    def test_virtual_id_must_be_negative(self):
        with pytest.raises(InvalidPatternError):
            VirtualTarget(1, "x", 0, CHILD)

    def test_leaf_folds_onto_virtual_child(self):
        # a*[/b] with the IC-implied virtual b child present.
        pattern = q(("a*", [("/", "b")]))
        vt = VirtualTarget(-1, "b", pattern.root.id, CHILD)
        engine = FlatImagesEngine(pattern, [vt])
        assert engine.is_redundant_leaf(pattern.find("b")[0])

    def test_c_leaf_does_not_fold_onto_virtual_descendant(self):
        pattern = q(("a*", [("/", "b")]))
        vt = VirtualTarget(-1, "b", pattern.root.id, DESCENDANT)
        engine = FlatImagesEngine(pattern, [vt])
        assert not engine.is_redundant_leaf(pattern.find("b")[0])

    def test_d_leaf_folds_onto_virtual_descendant(self):
        pattern = q(("a*", [("//", "b")]))
        vt = VirtualTarget(-1, "b", pattern.root.id, DESCENDANT)
        engine = FlatImagesEngine(pattern, [vt])
        assert engine.is_redundant_leaf(pattern.find("b")[0])

    def test_virtual_target_deep_anchor(self):
        # Figure 2(d): virtual Paragraph under Section unlocks the fold of
        # the whole left branch (tested leaf-first).
        pattern = q(("Articles", [
            ("/", ("Article", [("//", "Paragraph")])),
            ("/", ("Article*", [("//", "Section")])),
        ]))
        section = pattern.find("Section")[0]
        vt = VirtualTarget(-1, "Paragraph", section.id, DESCENDANT)
        engine = FlatImagesEngine(pattern, [vt])
        left_paragraph = pattern.find("Paragraph")[0]
        assert engine.is_redundant_leaf(left_paragraph)

    def test_internal_nodes_never_map_to_virtual(self):
        # Virtual targets are leaves; an internal node requiring children
        # cannot map onto one even with matching type.
        pattern = q(("a*", [("//", ("b", [("/", "c")])), ("//", ("x", [("/", ("b", [("/", "c")]))]))]))
        vt = VirtualTarget(-1, "b", pattern.root.id, DESCENDANT)
        engine = FlatImagesEngine(pattern, [vt])
        outer_b = [n for n in pattern.find("b") if n.parent.type == "a"][0]
        outer_c = outer_b.children[0]
        # The c under the outer b: can still fold via the x-branch b/c.
        assert engine.is_redundant_leaf(outer_c)


class TestStatsAndFilter:
    def test_stats_accumulate(self):
        stats = ImagesStats()
        pattern = q(("a*", [("/", "b"), ("/", "b")]))
        engine = FlatImagesEngine(pattern, stats=stats)
        engine.is_redundant_leaf(pattern.find("b")[0])
        assert stats.redundancy_checks == 1
        assert stats.tables_seconds >= 0.0
        assert stats.total_seconds >= stats.tables_seconds

    def test_pair_filter_blocks_targets(self):
        pattern = q(("a*", [("/", "b"), ("/", "b")]))
        engine = FlatImagesEngine(pattern, pair_filter=lambda source, target: False)
        assert not engine.is_redundant_leaf(pattern.find("b")[0])
