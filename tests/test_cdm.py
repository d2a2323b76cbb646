"""Tests for Algorithm CDM: propagation rules, minimization rules, cascades."""

from __future__ import annotations

import random

from repro import TreePattern, cdm_minimize
from repro.constraints import (
    closure,
    co_occurrence,
    parse_constraints,
    required_child,
    required_descendant,
)
from repro.core.infocontent import ArgKind, InfoArg, InfoContent
from repro.workloads.paper_queries import FIGURE5_CONSTRAINTS, figure5_query

from cdm_reference import propagate_child_content
from conftest import spine_query


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


class TestPropagationRules:
    """Figure 4, rule by rule, on the object sweep of ``cdm_reference``
    (the flat sweep is held to it by ``test_cdm_differential.py``)."""

    def _propagate(self, spec, child_args):
        pattern = q(spec)
        child = pattern.root.children[0]
        content = InfoContent()
        for a in child_args:
            content._sources.setdefault(a, set())
        return pattern, child, propagate_child_content(child, content)

    def test_rule1_d_edge_unconstrained_self(self):
        _, child, out = self._propagate(("t1*", [("//", "t2")]),
                                        [InfoArg(ArgKind.SELF, "t2", False)])
        assert (InfoArg(ArgKind.ANCESTOR, "t2", False), child.id) in out

    def test_rule1_d_edge_constrained_self(self):
        _, child, out = self._propagate(("t1*", [("//", "t2")]),
                                        [InfoArg(ArgKind.SELF, "t2", True)])
        assert (InfoArg(ArgKind.ANCESTOR, "t2", True), child.id) in out

    def test_rule2_d_edge_ancestor_obligation(self):
        _, _, out = self._propagate(
            ("t1*", [("//", "t2")]),
            [InfoArg(ArgKind.SELF, "t2", True), InfoArg(ArgKind.ANCESTOR, "t3", False)],
        )
        assert (InfoArg(ArgKind.ANCESTOR, "t3", True), None) in out

    def test_rule3_d_edge_parent_obligation(self):
        _, _, out = self._propagate(
            ("t1*", [("//", "t2")]),
            [InfoArg(ArgKind.SELF, "t2", True), InfoArg(ArgKind.PARENT, "t3", False)],
        )
        assert (InfoArg(ArgKind.ANCESTOR, "t3", True), None) in out

    def test_rule4_c_edge_self(self):
        _, child, out = self._propagate(("t1*", [("/", "t2")]),
                                        [InfoArg(ArgKind.SELF, "t2", False)])
        assert (InfoArg(ArgKind.PARENT, "t2", False), child.id) in out

    def test_rules56_c_edge_obligations_constrain(self):
        _, _, out = self._propagate(
            ("t1*", [("/", "t2")]),
            [InfoArg(ArgKind.SELF, "t2", True),
             InfoArg(ArgKind.ANCESTOR, "t3", False),
             InfoArg(ArgKind.PARENT, "t4", True)],
        )
        assert (InfoArg(ArgKind.ANCESTOR, "t3", True), None) in out
        assert (InfoArg(ArgKind.ANCESTOR, "t4", True), None) in out


class TestMinimizationRules:
    """The four local-redundancy conditions (i)-(iv) of Section 5.4."""

    def test_way_i_required_child(self):
        result = cdm_minimize(q(("Book*", [("/", "Title")])),
                              [required_child("Book", "Title")])
        assert result.pattern.size == 1
        assert result.eliminated[0][2] == "self-child"

    def test_way_i_needs_c_edge(self):
        # Required child does NOT discharge a c-child obligation... but a
        # d-child one it does (a child is a descendant, via closure).
        result = cdm_minimize(q(("Book*", [("/", "Title")])),
                              [required_descendant("Book", "Title")])
        assert result.pattern.size == 2

    def test_way_ii_required_descendant(self):
        result = cdm_minimize(q(("Book*", [("//", "LastName")])),
                              [required_descendant("Book", "LastName")])
        assert result.pattern.size == 1
        assert result.eliminated[0][2] == "self-descendant"

    def test_way_ii_child_ic_discharges_d_leaf(self):
        # Book -> Title implies Book ->> Title under closure.
        result = cdm_minimize(q(("Book*", [("//", "Title")])),
                              [required_child("Book", "Title")])
        assert result.pattern.size == 1

    def test_way_iii_sibling_co_occurrence(self):
        result = cdm_minimize(
            q(("Org*", [("/", "Manager"), ("/", "Employee")])),
            [co_occurrence("Manager", "Employee")],
        )
        assert result.pattern.size == 2
        assert result.pattern.find("Manager")
        assert not result.pattern.find("Employee")
        assert result.eliminated[0][2] == "sibling-co-occurrence"

    def test_way_iii_directional(self):
        result = cdm_minimize(
            q(("Org*", [("/", "Manager"), ("/", "Employee")])),
            [co_occurrence("Employee", "Manager")],
        )
        assert not result.pattern.find("Manager")
        assert result.pattern.find("Employee")

    def test_way_iv_descendant_witness(self):
        # n has a deep descendant of type t (through an internal child)
        # and a d-child leaf of type t'; t ->> t' discharges the leaf.
        pattern = q(("n*", [("/", ("mid", [("//", "t")])), ("//", "t2")]))
        result = cdm_minimize(pattern, [required_descendant("t", "t2")])
        assert result.pattern.size == 3
        assert not result.pattern.find("t2")
        assert result.eliminated[0][2] == "obligation-descendant"

    def test_way_iv_co_occurrence_witness(self):
        pattern = q(("n*", [("/", ("mid", [("//", "Proj")])), ("//", "Thing")]))
        result = cdm_minimize(pattern, [co_occurrence("Proj", "Thing")])
        assert not result.pattern.find("Thing")
        assert result.eliminated[0][2] == "obligation-co-occurrence"

    def test_way_iv_does_not_discharge_c_leaf(self):
        # A descendant witness cannot satisfy a *c-child* obligation.
        pattern = q(("n*", [("/", ("mid", [("//", "Proj")])), ("/", "Thing")]))
        result = cdm_minimize(pattern, [co_occurrence("Proj", "Thing")])
        assert result.pattern.find("Thing")


class TestCascade:
    def test_chain_collapses_bottom_up(self):
        pattern = q(("t0*", [("/", ("t1", [("/", ("t2", [("/", "t3")]))]))]))
        ics = [required_child(f"t{i}", f"t{i+1}") for i in range(3)]
        result = cdm_minimize(pattern, ics)
        assert result.pattern.size == 1
        # Deepest first: the ~t -> t relaxation drives the cascade.
        assert [t for _, t, _ in result.eliminated] == ["t3", "t2", "t1"]

    def test_figure5_reduces_to_root(self):
        result = cdm_minimize(figure5_query(), FIGURE5_CONSTRAINTS, keep_contents=True)
        assert result.pattern.size == 1
        assert result.pattern.root.type == "t1"

    def test_figure5_contents_at_root(self):
        result = cdm_minimize(figure5_query(), FIGURE5_CONSTRAINTS, keep_contents=True)
        root_content = result.contents[result.pattern.root.id]
        # All children discharged: the root's own argument relaxed to t1.
        assert root_content.self_arg().notation() == "t1"

    def test_no_contents_kept_by_default(self):
        result = cdm_minimize(figure5_query(), FIGURE5_CONSTRAINTS)
        assert result.contents == {}


class TestGuards:
    def test_output_leaf_never_removed(self):
        pattern = q(("Book", [("/", "Title*")]))
        result = cdm_minimize(pattern, [required_child("Book", "Title")])
        assert result.pattern.size == 2

    def test_no_constraints_no_changes(self):
        pattern = q(("a*", [("/", "b"), ("/", "b")]))  # CIM-redundant, not CDM's business
        result = cdm_minimize(pattern, [])
        assert result.removed_count == 0

    def test_input_not_mutated(self):
        pattern = q(("Book*", [("/", "Title")]))
        cdm_minimize(pattern, [required_child("Book", "Title")])
        assert pattern.size == 2

    def test_in_place(self):
        pattern = q(("Book*", [("/", "Title")]))
        result = cdm_minimize(pattern, [required_child("Book", "Title")], in_place=True)
        assert result.pattern is pattern and pattern.size == 1

    def test_rule_counts_tally(self):
        result = cdm_minimize(figure5_query(), FIGURE5_CONSTRAINTS)
        assert sum(result.rule_counts.values()) == result.removed_count

    def test_closed_repo_accepted(self):
        repo = closure([required_child("Book", "Title")])
        result = cdm_minimize(q(("Book*", [("/", "Title")])), repo)
        assert result.pattern.size == 1

    def test_seconds_recorded(self):
        result = cdm_minimize(figure5_query(), FIGURE5_CONSTRAINTS)
        assert result.seconds > 0


class TestMutualJustification:
    def test_two_way_co_occurrence_keeps_one(self):
        ics = parse_constraints("x ~ y; y ~ x")
        pattern = q(("r*", [("/", "x"), ("/", "y")]))
        result = cdm_minimize(pattern, ics)
        assert result.pattern.size == 2  # exactly one of x/y survives

    def test_self_pair_required_descendant(self):
        # t ->> t (degenerate but syntactically allowed): two t d-leaves,
        # one justifies trimming the other, never itself.
        ics = [required_descendant("t", "t")]
        pattern = q(("r*", [("//", "t"), ("//", "t")]))
        result = cdm_minimize(pattern, ics)
        assert result.pattern.size >= 2


class TestJustifierPreference:
    def test_full_discharge_beats_self_pair(self):
        # Both //a duplicates are justified by the /a sibling through
        # a ->> a; the self-pair reading (keep one duplicate) must not
        # shadow it (regression: CDM left a locally redundant leaf).
        repo = closure([co_occurrence("b", "a"), required_child("a", "b")])
        pattern = q(("c*", [("/", "a"), ("//", "a"), ("//", "a")]))
        result = cdm_minimize(pattern, repo)
        assert result.pattern.size == 2
        assert [n.type for n in result.pattern.leaves()] == ["a"]

    def test_sibling_justifier_discharges_both_duplicates(self):
        repo = closure([co_occurrence("b", "a"), required_child("a", "b")])
        pattern = q(("c*", [("//", "a"), ("//", "a"), ("/", "b")]))
        result = cdm_minimize(pattern, repo)
        assert result.pattern.size == 2
        assert [n.type for n in result.pattern.leaves()] == ["b"]


class TestCost:
    def test_sweep_builds_no_argument_objects(self, paper_closure, monkeypatch):
        # Without keep_contents the sweep runs on flat per-node state: no
        # InfoArg is compared (the object sweep sorted thousands per spine
        # query) and no InfoContent is built.
        calls = []
        less_than, init = InfoArg.__lt__, InfoContent.__init__

        def counting_lt(self, other):
            calls.append("InfoArg.__lt__")
            return less_than(self, other)

        def counting_init(self):
            calls.append("InfoContent")
            init(self)

        monkeypatch.setattr(InfoArg, "__lt__", counting_lt)
        monkeypatch.setattr(InfoContent, "__init__", counting_init)
        rng = random.Random(7)
        for _ in range(20):
            query = spine_query(rng, rng.randint(15, 80))
            redundant = sum(1 for node in query.nodes() if node.type.startswith("R"))
            result = cdm_minimize(query, paper_closure)
            assert result.removed_count == redundant
        assert calls == []
