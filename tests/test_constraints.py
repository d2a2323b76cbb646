"""Tests for the constraint model and the hash-indexed repository."""

from __future__ import annotations

import pytest

from repro.constraints import (
    ConstraintKind,
    ConstraintRepository,
    IntegrityConstraint,
    co_occurrence,
    coerce_repository,
    parse_constraint,
    parse_constraints,
    required_child,
    required_descendant,
)
from repro.errors import ConstraintError


class TestModel:
    def test_constructors_and_kinds(self):
        assert required_child("a", "b").is_required_child
        assert required_descendant("a", "b").is_required_descendant
        assert co_occurrence("a", "b").is_co_occurrence

    def test_notation_round_trip(self):
        for c in (required_child("A", "B"), required_descendant("A", "B"), co_occurrence("A", "B")):
            assert parse_constraint(c.notation()) == c

    def test_hashable_and_equal(self):
        assert required_child("a", "b") == required_child("a", "b")
        assert len({required_child("a", "b"), required_child("a", "b")}) == 1

    def test_ordering_is_total_and_stable(self):
        cs = [co_occurrence("b", "a"), required_child("a", "b"), required_descendant("a", "b")]
        ordered = sorted(cs)
        assert ordered[0].source == "a"
        assert sorted(ordered) == ordered

    def test_empty_types_rejected(self):
        with pytest.raises(ConstraintError):
            IntegrityConstraint(ConstraintKind.REQUIRED_CHILD, "", "b")

    def test_trivial_co_occurrence_rejected(self):
        with pytest.raises(ConstraintError):
            co_occurrence("a", "a")

    def test_reflexive_child_allowed(self):
        # t -> t is syntactically fine (unsatisfiable in finite trees, but
        # the model layer does not judge satisfiability).
        assert required_child("a", "a").source == "a"


class TestParsing:
    def test_parse_each_operator(self):
        assert parse_constraint("A -> B") == required_child("A", "B")
        assert parse_constraint("A ->> B") == required_descendant("A", "B")
        assert parse_constraint("A ~ B") == co_occurrence("A", "B")

    def test_whitespace_optional(self):
        assert parse_constraint("A->B") == required_child("A", "B")
        assert parse_constraint("  A  ->>   B ") == required_descendant("A", "B")

    def test_arrow_arrow_not_confused_with_arrow(self):
        c = parse_constraint("A ->> B")
        assert c.kind is ConstraintKind.REQUIRED_DESCENDANT

    def test_parse_errors(self):
        with pytest.raises(ConstraintError):
            parse_constraint("A B")
        with pytest.raises(ConstraintError):
            parse_constraint("-> B")
        with pytest.raises(ConstraintError):
            parse_constraint("A ->")
        with pytest.raises(ConstraintError):
            parse_constraint("a ~ b,c")  # not a type name

    def test_parse_block_with_comments(self):
        block = """
        # header comment
        Book -> Title
        Book ->> LastName   # trailing comment

        Employee ~ Person; Dept ->> Manager
        """
        cs = parse_constraints(block)
        assert len(cs) == 4
        assert co_occurrence("Employee", "Person") in cs

    def test_parse_empty_block(self):
        assert parse_constraints("   \n # nothing \n") == []


class TestRepository:
    def make(self) -> ConstraintRepository:
        return ConstraintRepository(
            [
                required_child("Book", "Title"),
                required_child("Book", "Author"),
                required_descendant("Book", "LastName"),
                co_occurrence("Employee", "Person"),
            ]
        )

    def test_point_lookups(self):
        repo = self.make()
        assert repo.has_required_child("Book", "Title")
        assert not repo.has_required_child("Book", "LastName")
        assert repo.has_required_descendant("Book", "LastName")
        assert repo.has_co_occurrence("Employee", "Person")
        assert not repo.has_co_occurrence("Person", "Employee")  # directional

    def test_target_sets(self):
        repo = self.make()
        assert repo.required_children_of("Book") == {"Title", "Author"}
        assert repo.required_descendants_of("Book") == {"LastName"}
        assert repo.co_occurring_with("Employee") == {"Person"}
        assert repo.required_children_of("Nope") == frozenset()

    def test_constraints_from(self):
        repo = self.make()
        assert len(repo.constraints_from("Book")) == 3

    def test_membership_and_len(self):
        repo = self.make()
        assert required_child("Book", "Title") in repo
        assert required_child("Book", "X") not in repo
        assert len(repo) == 4

    def test_duplicates_collapse(self):
        repo = self.make()
        assert not repo.add(required_child("Book", "Title"))
        assert len(repo) == 4
        assert repo.add(required_child("Book", "ISBN"))

    def test_update_counts_new(self):
        repo = self.make()
        added = repo.update([required_child("Book", "Title"), required_child("X", "Y")])
        assert added == 1

    def test_relevant_to(self):
        repo = self.make()
        sub = repo.relevant_to({"Book"})
        assert len(sub) == 3
        assert not sub.has_co_occurrence("Employee", "Person")

    def test_types(self):
        repo = self.make()
        assert repo.types() == {"Book", "Title", "Author", "LastName", "Employee", "Person"}

    def test_iteration_deterministic(self):
        repo = self.make()
        assert list(repo) == list(repo)

    def test_copy_independent(self):
        repo = self.make()
        clone = repo.copy()
        clone.add(required_child("Z", "W"))
        assert len(repo) == 4 and len(clone) == 5
        assert repo == self.make()

    def test_closed_repository_rejects_direct_mutation(self):
        from repro.errors import RepositoryClosedError

        repo = self.make()
        repo._mark_closed()
        assert repo.is_closed
        with pytest.raises(RepositoryClosedError):
            repo.add(required_child("Z", "W"))
        with pytest.raises(RepositoryClosedError):
            repo.update([required_child("Z", "W")])
        with pytest.raises(RepositoryClosedError):
            repo.discard(required_child("Book", "Title"))
        assert repo.is_closed and len(repo) == 4

    def test_begin_update_is_the_closed_mutation_path(self):
        repo = self.make()
        repo._mark_closed()
        with repo.begin_update() as update:
            update.add(required_child("Z", "W"))
        assert repo.is_closed
        assert required_child("Z", "W") in repo
        assert update.new_digest == repo.digest()
        assert update.new_digest != update.old_digest

    def test_notation_deterministic(self):
        repo = self.make()
        assert repo.notation() == repo.copy().notation()


class TestCoerce:
    def test_none_gives_empty(self):
        assert len(coerce_repository(None)) == 0

    def test_list_wrapped(self):
        repo = coerce_repository([required_child("a", "b")])
        assert repo.has_required_child("a", "b")

    def test_repository_passes_through(self):
        repo = ConstraintRepository()
        assert coerce_repository(repo) is repo
