"""Tests for containment mappings and the containment/equivalence oracle."""

from __future__ import annotations

from conftest import assert_valid_mapping, hom_exists

from repro import TreePattern, equivalent, is_contained_in
from repro.core.containment import (
    find_containment_mapping,
    has_containment_mapping,
    mapping_targets,
)


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


class TestCompatibleNodes:
    """The label rule of the containment DP: a target must carry the
    source's type, and the output node maps only onto the output node."""

    def test_same_type_unstarred(self):
        a, b = q("x"), q("x")
        assert mapping_targets(a, b, cache=None)[a.root.id] == {b.root.id}

    def test_type_mismatch(self):
        a, b = q("x"), q("y")
        assert mapping_targets(a, b, cache=None)[a.root.id] == set()

    def test_output_must_map_to_output(self):
        starred = q(("a", [("/", "b*")]))
        unstarred_b = q(("a*", [("/", "b")]))
        v = starred.find("b")[0]
        assert mapping_targets(starred, unstarred_b, cache=None)[v.id] == set()

    def test_non_output_may_map_onto_output(self):
        # One-directional star rule (Figure 2(b) -> (c) depends on this).
        unstarred = q(("a*", [("/", "b")]))
        starred = q(("a", [("/", "b*")]))
        v = unstarred.find("b")[0]
        u = starred.find("b")[0]
        assert mapping_targets(unstarred, starred, cache=None)[v.id] == {u.id}

    def test_extra_types_count(self):
        a = q("x")
        b = q("y")
        b.add_extra_type(b.root, "x")
        assert mapping_targets(a, b, cache=None)[a.root.id] == {b.root.id}


class TestContainment:
    def test_self_containment(self):
        pattern = q(("a", [("/", ("b*", [("//", "c")]))]))
        assert is_contained_in(pattern, pattern)

    def test_fewer_constraints_contain_more(self):
        big = q(("a", [("/", ("b*", [("//", "c")])), ("/", "d")]))
        small = q(("a", [("/", "b*")]))
        assert is_contained_in(big, small)
        assert not is_contained_in(small, big)

    def test_c_edge_maps_only_to_c_edge(self):
        child_q = q(("a*", [("/", "b")]))
        desc_q = q(("a*", [("//", "b")]))
        # a//b is less restrictive: a/b ⊆ a//b but not vice versa.
        assert is_contained_in(child_q, desc_q)
        assert not is_contained_in(desc_q, child_q)

    def test_d_edge_maps_to_longer_chain(self):
        chain = q(("a*", [("/", ("x", [("/", "b")]))]))  # a/x/b
        skip = q(("a*", [("//", "b")]))  # a//b
        assert is_contained_in(chain, skip)

    def test_descendant_is_proper(self):
        self_desc = q(("a", [("//", "a*")]))
        single = q("a")
        # a//a* requires two distinct a's; bare a* does not.
        assert is_contained_in(self_desc, single)
        assert not is_contained_in(single, self_desc)

    def test_unanchored_root(self):
        # Pattern root may map below the other root.
        inner = q(("r", [("/", ("a", [("/", "b*")]))]))
        floating = q(("a", [("/", "b*")]))
        assert is_contained_in(inner, floating)

    def test_star_position_blocks_containment(self):
        q1 = q(("a", [("/", "b*")]))
        q2 = q(("a*", [("/", "b")]))
        assert not is_contained_in(q1, q2)
        assert not is_contained_in(q2, q1)

    def test_branch_folding(self):
        # Figure 2(h)/(i): two branches fold into one.
        h = q(("O*", [
            ("/", ("D", [("/", ("R", [("//", "P")]))])),
            ("//", ("D", [("//", "P")])),
        ]))
        i = q(("O*", [("/", ("D", [("/", ("R", [("//", "P")]))]))]))
        assert equivalent(h, i)

    def test_equivalence_is_reflexive_symmetric(self):
        q1 = q(("a", [("/", "b*"), ("//", "c")]))
        q2 = q(("a", [("//", "c"), ("/", "b*")]))
        assert equivalent(q1, q2) and equivalent(q2, q1)


class TestMappingExtraction:
    def test_identity_mapping_found(self):
        pattern = q(("a", [("/", ("b*", [("//", "c")]))]))
        mapping = find_containment_mapping(pattern, pattern)
        assert mapping is not None
        assert_valid_mapping(pattern, pattern, mapping)

    def test_extracted_mapping_is_valid(self):
        big = q(("a*", [("//", ("b", [("/", "c")])), ("//", "b")]))
        small = q(("a*", [("//", ("b", [("/", "c")]))]))
        mapping = find_containment_mapping(big, small)
        assert mapping is not None
        assert_valid_mapping(big, small, mapping)

    def test_no_mapping_returns_none(self):
        q1 = q(("a*", [("/", "b")]))
        q2 = q(("a*", [("/", "c")]))
        assert find_containment_mapping(q1, q2) is None
        assert not has_containment_mapping(q1, q2)

    def test_mapping_targets_monotone_up_the_tree(self):
        source = q(("a*", [("/", ("b", [("/", "c")]))]))
        target = q(("a*", [("/", ("b", [("/", "c"), ("/", "d")]))]))
        targets = mapping_targets(source, target)
        # Root target set non-empty means full pattern maps.
        assert targets[source.root.id]

    def test_repeated_types_resolved(self):
        # Repeated types are the NP-hard core of general CQ containment;
        # the tree DP must still get them right.
        source = q(("a*", [("//", ("x", [("/", "x")]))]))
        target = q(("a*", [("/", ("x", [("/", ("x", [("/", "x")]))]))]))
        mapping = find_containment_mapping(source, target)
        assert mapping is not None
        assert_valid_mapping(source, target, mapping)


class TestHomHelper:
    def test_hom_exists_mirror(self):
        q1 = q(("a", [("/", "b*")]))
        assert hom_exists(q1, q1)
