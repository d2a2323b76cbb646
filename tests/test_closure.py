"""Tests for the logical closure of constraint sets (Section 5.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import (
    closure,
    co_occurrence,
    required_child,
    required_descendant,
)
from repro.constraints.closure import implied_by
from repro.constraints.model import ConstraintKind
from repro.constraints.repository import ConstraintRepository, coerce_repository


def naive_closure(constraints) -> ConstraintRepository:
    """The reference fixpoint: apply every rule to every constraint (the
    sorted set, re-read each round) until a round adds nothing."""
    repo = coerce_repository(constraints).copy()
    changed = True
    while changed:
        changed = False
        for c in list(repo):
            for implied in implied_by(c, repo):
                if repo._insert(implied, base=False):
                    changed = True
    repo._mark_closed()
    return repo


TYPES = [f"t{i}" for i in range(7)]
MAKERS = (required_child, required_descendant, co_occurrence)


def random_constraints(rng: random.Random, n: int, types=TYPES) -> list:
    """``n`` draws of any kind between any two types: cycles, synonyms and
    unsatisfiable sets included, since the closure is defined for all."""
    out = []
    for _ in range(n):
        make = rng.choice(MAKERS)
        a, b = rng.choice(types), rng.choice(types)
        if make is co_occurrence and a == b:
            continue
        out.append(make(a, b))
    return out


def assert_same_closure(constraints) -> None:
    got, want = closure(constraints), naive_closure(constraints)
    assert got.is_closed and want.is_closed
    assert got.digest() == want.digest()
    assert got.base == want.base
    assert set(got) == set(want) and len(got) == len(want)


class TestRules:
    def test_child_implies_descendant(self):
        repo = closure([required_child("a", "b")])
        assert repo.has_required_descendant("a", "b")

    def test_descendant_transitive(self):
        repo = closure([required_descendant("a", "b"), required_descendant("b", "c")])
        assert repo.has_required_descendant("a", "c")

    def test_child_chains_compose_to_descendant_not_child(self):
        repo = closure([required_child("a", "b"), required_child("b", "c")])
        assert repo.has_required_descendant("a", "c")
        assert not repo.has_required_child("a", "c")  # grandchild, not child

    def test_descendant_then_child(self):
        repo = closure([required_descendant("a", "b"), required_child("b", "c")])
        assert repo.has_required_descendant("a", "c")

    def test_co_occurrence_transitive(self):
        repo = closure([co_occurrence("a", "b"), co_occurrence("b", "c")])
        assert repo.has_co_occurrence("a", "c")

    def test_co_occurrence_transfers_obligations(self):
        # a ~ b and b -> c: an a node IS a b node, so it has a c child.
        repo = closure([co_occurrence("a", "b"), required_child("b", "c")])
        assert repo.has_required_child("a", "c")
        assert repo.has_required_descendant("a", "c")

    def test_target_co_occurrence_widens_requirement(self):
        # a -> b and b ~ c: the required b child IS a c node.
        repo = closure([required_child("a", "b"), co_occurrence("b", "c")])
        assert repo.has_required_child("a", "c")

    def test_descendant_target_co_occurrence(self):
        repo = closure([required_descendant("a", "b"), co_occurrence("b", "c")])
        assert repo.has_required_descendant("a", "c")

    def test_no_trivial_self_co_occurrence(self):
        repo = closure([co_occurrence("a", "b"), co_occurrence("b", "a")])
        for c in repo:
            assert not (c.is_co_occurrence and c.source == c.target)

    def test_synonym_pair_has_no_self_pair(self):
        # CDM's only self-pair rule is t ->> t: a ~ a can be neither
        # written nor derived, whether the pair arrives at once or the
        # second half through an incremental update.
        at_once = closure([co_occurrence("a", "d"), co_occurrence("d", "a")])
        stepwise = closure([co_occurrence("a", "d")])
        with stepwise.begin_update() as update:
            update.add(co_occurrence("d", "a"))
        assert update.mode == "incremental"
        for repo in (at_once, stepwise):
            assert not repo.has_co_occurrence("a", "a")
            assert not repo.has_co_occurrence("d", "d")
            assert set(repo.sources(ConstraintKind.CO_OCCURRENCE, "a")) == {"d"}
            assert set(repo.sources(ConstraintKind.CO_OCCURRENCE, "d")) == {"a"}

    def test_cooccurrence_cycle_terminates(self):
        repo = closure([co_occurrence("a", "b"), co_occurrence("b", "c"), co_occurrence("c", "a")])
        assert repo.has_co_occurrence("a", "c")
        assert repo.has_co_occurrence("c", "b")


class TestClosureProperties:
    def test_closure_is_idempotent(self):
        base = [
            required_child("a", "b"),
            required_descendant("b", "c"),
            co_occurrence("c", "d"),
        ]
        once = closure(base)
        twice = closure(once)
        assert set(once) == set(twice)

    def test_closure_marks_closed(self):
        repo = closure([required_child("a", "b")])
        assert repo.is_closed

    def test_closure_does_not_mutate_input(self):
        base = ConstraintRepository([required_child("a", "b")])
        closure(base)
        assert len(base) == 1
        assert not base.is_closed

    def test_closure_contains_input(self):
        base = [required_child("a", "b"), co_occurrence("x", "y")]
        repo = closure(base)
        for c in base:
            assert c in repo

    def test_size_stays_polynomial(self):
        # A long chain: closure is O(T^2), not exponential.
        chain = [required_child(f"t{i}", f"t{i+1}") for i in range(20)]
        repo = closure(chain)
        assert len(repo) <= 4 * 21 * 21

    def test_empty_closure(self):
        repo = closure([])
        assert len(repo) == 0 and repo.is_closed


class TestImpliedBy:
    def test_single_step_child(self):
        repo = ConstraintRepository([co_occurrence("b", "c")])
        implied = implied_by(required_child("a", "b"), repo)
        assert required_descendant("a", "b") in implied
        assert required_child("a", "c") in implied

    def test_single_step_co_occurrence_skips_self(self):
        repo = ConstraintRepository([co_occurrence("b", "a")])
        implied = implied_by(co_occurrence("a", "b"), repo)
        assert all(not (c.is_co_occurrence and c.source == c.target) for c in implied)


class TestAgainstNaiveFixpoint:
    """:func:`closure` runs the semi-naive worklist; the naive fixpoint
    above is its reference."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_sets(self, seed):
        rng = random.Random(seed)
        assert_same_closure(random_constraints(rng, rng.randint(0, 14)))

    def test_long_chains_with_synonyms(self):
        types = [f"c{i}" for i in range(40)]
        chain = [required_child(a, b) for a, b in zip(types, types[1:])]
        extra = random_constraints(random.Random(7), 30, types)
        assert_same_closure(chain + extra + [co_occurrence("c3", "x"), co_occurrence("x", "c3")])

    def test_open_repository_with_derived_members_keeps_its_split(self):
        repo = ConstraintRepository([required_child("a", "b"), co_occurrence("b", "c")])
        repo._insert(required_descendant("a", "b"), base=False)
        assert_same_closure(repo)
        assert required_descendant("a", "b") not in closure(repo).base

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(MAKERS),
                st.sampled_from(TYPES[:5]),
                st.sampled_from(TYPES[:5]),
            ).filter(lambda d: not (d[0] is co_occurrence and d[1] == d[2])),
            max_size=12,
        )
    )
    def test_drawn_sets(self, draws):
        assert_same_closure([make(a, b) for make, a, b in draws])
