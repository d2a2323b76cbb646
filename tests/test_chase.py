"""Tests for the chase and the paper's bounded augmentation (Section 5.2)."""

from __future__ import annotations

from repro import TreePattern, augment
from repro.constraints import closure, co_occurrence, required_child, required_descendant
from repro.core.chase import augmentation_targets, chase
from repro.core.edges import EdgeKind
from repro.core.ic_containment import equivalent_under


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


class TestAugmentationTargets:
    def test_child_ic_adds_c_virtual(self):
        pattern = q(("a*", [("/", "b")]))
        virtual, extra = augmentation_targets(pattern, [required_child("a", "b")])
        assert len(virtual) == 1
        (vt,) = virtual
        assert vt.node_type == "b" and vt.edge is EdgeKind.CHILD
        assert vt.parent_id == pattern.root.id
        assert not extra

    def test_descendant_ic_adds_d_virtual(self):
        pattern = q(("a*", [("//", "b")]))
        virtual, _ = augmentation_targets(pattern, [required_descendant("a", "b")])
        assert [vt.edge for vt in virtual] == [EdgeKind.DESCENDANT]

    def test_absent_type_not_introduced(self):
        # Section 5.2: ICs whose required type does not occur in the
        # original query are not applied.
        pattern = q(("a*", [("/", "b")]))
        virtual, _ = augmentation_targets(pattern, [required_child("a", "zzz")])
        assert virtual == []

    def test_child_virtual_subsumes_descendant_virtual(self):
        # Closure adds a ->> b from a -> b; only the (stronger) c-virtual
        # should materialize per anchor/type.
        pattern = q(("a*", [("/", "b")]))
        virtual, _ = augmentation_targets(pattern, closure([required_child("a", "b")]))
        per_anchor = [(vt.parent_id, vt.node_type) for vt in virtual]
        assert len(per_anchor) == len(set(per_anchor))

    def test_co_occurrence_becomes_extra_type(self):
        pattern = q(("a*", [("/", "b"), ("/", "c")]))
        b = pattern.find("b")[0]
        virtual, extra = augmentation_targets(pattern, [co_occurrence("b", "c")])
        assert virtual == []
        assert extra == {b.id: frozenset({"c"})}

    def test_co_occurrence_absent_type_skipped(self):
        pattern = q(("a*", [("/", "b")]))
        _, extra = augmentation_targets(pattern, [co_occurrence("b", "zzz")])
        assert extra == {}

    def test_ids_unique_and_negative(self):
        pattern = q(("a*", [("/", "b"), ("/", "b")]))
        virtual, _ = augmentation_targets(pattern, [required_child("a", "b"), required_child("b", "b")])
        ids = [vt.id for vt in virtual]
        assert len(set(ids)) == len(ids)
        assert all(i < 0 for i in ids)


class TestUnconstrainedTypes:
    """Nodes whose type no constraint mentions are skipped unprobed."""

    PROBES = ("required_children_of", "required_descendants_of", "co_occurring_with")

    def _probes(self, repo, monkeypatch) -> list[str]:
        """Record the source type of every probe of ``repo``."""
        calls: list[str] = []
        for name in self.PROBES:
            original = getattr(repo, name)

            def counting(source, _original=original):
                calls.append(source)
                return _original(source)

            monkeypatch.setattr(repo, name, counting)
        return calls

    def test_paper_closure_probes_nothing_for_twig_types(self, paper_closure, monkeypatch):
        pattern = q(("a0*", [("/", ("a1", [("//", "a2")])), ("//", "a3"), ("/", "a1")]))
        calls = self._probes(paper_closure, monkeypatch)
        assert augmentation_targets(pattern, paper_closure) == ([], {})
        assert calls == []

    def test_co_occurrence_branch_probes_only_mentioned_types(self, monkeypatch):
        repo = closure([co_occurrence("b", "c"), required_child("b", "d")])
        pattern = q(("a*", [("/", ("x", [("/", "b")])), ("/", "c"), ("/", "d")]))
        calls = self._probes(repo, monkeypatch)
        virtual, extra = augmentation_targets(pattern, repo)
        b = pattern.find("b")[0]
        assert [(vt.node_type, vt.parent_id) for vt in virtual] == [("d", b.id)]
        assert extra == {b.id: frozenset({"c"})}
        assert set(calls) == {"b", "c", "d"}


class TestMaterializedAugment:
    def test_adds_temporary_nodes(self):
        pattern = q(("a*", [("/", "b")]))
        augmented = augment(pattern, [required_child("a", "b")])
        assert augmented.size == 3
        temps = [n for n in augmented.nodes() if n.temporary]
        assert len(temps) == 1 and temps[0].type == "b"

    def test_equivalent_under_the_ics(self):
        pattern = q(("Articles", [("/", ("Article*", [("//", "Section")]))]))
        ics = [required_descendant("Section", "Paragraph")]
        # Paragraph not in the query: nothing happens.
        assert augment(pattern, ics).size == pattern.size
        with_par = q(("Articles", [
            ("/", ("Article", [("//", "Paragraph")])),
            ("/", ("Article*", [("//", "Section")])),
        ]))
        augmented = augment(with_par, ics)
        assert augmented.size == with_par.size + 1
        assert equivalent_under(augmented, with_par, ics)

    def test_depth_grows_by_at_most_one(self):
        pattern = q(("a*", [("/", ("b", [("/", "c")]))]))
        ics = closure([required_child("a", "b"), required_child("b", "c"), required_child("c", "a")])
        augmented = augment(pattern, ics)
        assert augmented.depth <= pattern.depth + 1

    def test_input_not_mutated(self):
        pattern = q(("a*", [("/", "b")]))
        augment(pattern, [required_child("a", "b")])
        assert pattern.size == 2
        assert all(not n.extra_types for n in pattern.nodes())


class TestClassicalChase:
    def test_single_round_fires_each_pair_once(self):
        pattern = q(("a*", [("/", "b")]))
        chased = chase(pattern, [required_child("a", "b")], rounds=1)
        assert chased.size == 3

    def test_rounds_grow_unboundedly_on_cycles(self):
        # a -> b, b -> a: every round deepens the query — the blowup that
        # motivates augmentation.
        pattern = q("a")
        ics = [required_child("a", "b"), required_child("b", "a")]
        sizes = [chase(pattern, ics, rounds=r).size for r in (1, 2, 3)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_applies_to_added_nodes_unlike_augmentation(self):
        pattern = q("a")
        ics = [required_child("a", "b"), required_child("b", "c")]
        chased = chase(pattern, ics, rounds=2)
        assert "c" in chased.node_types()  # child of the *added* b
        virtual, _ = augmentation_targets(pattern, ics)
        assert virtual == []  # b, c absent from the original query

    def test_co_occurrence_annotates(self):
        pattern = q(("a*", [("/", "b")]))
        chased = chase(pattern, [co_occurrence("b", "x")], rounds=1)
        assert chased.find("b")[0].all_types == {"b", "x"}

    def test_terminates_without_change(self):
        pattern = q("a")
        chased = chase(pattern, [], rounds=10)
        assert chased.size == 1


class TestWitnessSubtreeExpansion:
    ICS = closure([required_child("a", "b"), required_child("b", "c"), co_occurrence("b", "c")])

    def test_virtual_targets_form_subtrees(self):
        pattern = q(("a*", [("/", ("c", [("/", "c")])), ("/", "d")]))
        virtual, _ = augmentation_targets(pattern, self.ICS)
        by_id = {vt.id: vt for vt in virtual}
        # Some target is parented on another virtual target...
        nested = [vt for vt in virtual if vt.parent_id < 0]
        assert nested
        # ...and parents always precede children in the list.
        order = {vt.id: i for i, vt in enumerate(virtual)}
        assert all(order[vt.parent_id] < order[vt.id] for vt in nested)
        # The b-witness carries its co-occurrence type c.
        b_witnesses = [vt for vt in virtual if vt.node_type == "b"]
        assert b_witnesses and all("c" in vt.extra_types for vt in b_witnesses)
        assert all(by_id[vt.parent_id].node_type == "b" or vt.parent_id >= 0 for vt in nested)

    def test_depth_capped_at_pattern_height(self):
        deep_ics = closure(
            [required_child("a", "b"), required_child("b", "c"),
             required_child("c", "d"), co_occurrence("a", "d")]
        )
        pattern = q(("a*", [("/", "b")]))  # height 1
        virtual, _ = augmentation_targets(pattern, deep_ics)
        depth = {}
        for vt in virtual:
            depth[vt.id] = 1 if vt.parent_id >= 0 else depth[vt.parent_id] + 1
        assert max(depth.values()) == 1

    def test_degenerate_closure_stays_flat(self):
        ics = closure([required_child("a", "b"), co_occurrence("b", "a")])
        pattern = q(("a*", [("/", ("b", [("/", "a")]))]))
        virtual, _ = augmentation_targets(pattern, ics)
        assert all(vt.parent_id >= 0 for vt in virtual)

    def test_materialized_augment_matches_targets(self):
        pattern = q(("a*", [("/", ("c", [("/", "c")])), ("/", "d")]))
        augmented = augment(pattern, self.ICS)
        temps = [n for n in augmented.nodes() if n.temporary]
        virtual, _ = augmentation_targets(pattern, self.ICS)
        assert len(temps) == len(virtual)
        assert any(n.temporary and n.parent is not None and n.parent.temporary for n in temps)
