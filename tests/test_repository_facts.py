"""Whole-set facts of a constraint repository: computed once per closure,
dropped by every mutation path, never recomputed on the query path."""

from __future__ import annotations

import pytest

from repro.api import MinimizeOptions, Session
from repro.constraints import closure
from repro.constraints.model import ConstraintKind, IntegrityConstraint, parse_constraint
from repro.constraints.repository import ConstraintRepository
from repro.parsing.xpath import parse_xpath


def facts(repo: ConstraintRepository) -> tuple:
    """Every cached whole-set fact, read through the public surface."""
    return (
        list(repo),
        repo.digest(),
        {kind: repo.has_kind(kind) for kind in ConstraintKind},
        repo.finitely_satisfiable(),
        repo.types(),
    )


def closed(*notations: str) -> ConstraintRepository:
    """A fresh closure of ``notations``; none of its facts is cached yet."""
    return closure(ConstraintRepository(parse_constraint(n) for n in notations))


BASE = ("a -> b", "b ->> c")


def warm(repo: ConstraintRepository) -> ConstraintRepository:
    facts(repo)
    return repo


class TestMutationPathsDropFacts:
    # "c ~ d" turns co-occurrence presence on; "c -> a" makes a require a
    # descendant of its own type, so the set stops being satisfiable.
    @pytest.mark.parametrize("added", ["c ~ d", "c -> a"])
    def test_incremental_add(self, added):
        repo = warm(closed(*BASE))
        before = repo.digest()
        with repo.begin_update() as update:
            update.add(parse_constraint(added))
        assert update.mode == "incremental"
        assert facts(repo) == facts(closed(*BASE, added))
        assert (update.old_digest, update.new_digest) == (before, repo.digest())

    @pytest.mark.parametrize("dropped", ["c ~ d", "c -> a"])
    def test_drop_recomputes_in_full(self, dropped):
        repo = warm(closed(*BASE, dropped))
        with repo.begin_update() as update:
            update.drop(parse_constraint(dropped))
        assert update.mode == "full"
        assert facts(repo) == facts(closed(*BASE))

    def test_noop(self):
        repo = warm(closed(*BASE))
        with repo.begin_update() as update:
            update.add(parse_constraint("a -> b"))
        assert update.mode == "noop"
        assert facts(repo) == facts(closed(*BASE))

    def test_base_only_promotion(self):
        repo = warm(closed(*BASE))
        with repo.begin_update() as update:
            update.add(parse_constraint("a ->> c"))  # derived already
        assert update.new_digest == update.old_digest
        assert parse_constraint("a ->> c") in repo.base
        assert facts(repo) == facts(closed(*BASE, "a ->> c"))

    def test_copy_carries_facts_and_stays_independent(self):
        repo = warm(closed(*BASE))
        clone = repo.copy()
        assert facts(clone) == facts(closed(*BASE))
        with clone.begin_update() as update:
            update.add(parse_constraint("c ~ d"))
        assert facts(clone) == facts(closed(*BASE, "c ~ d"))
        assert facts(repo) == facts(closed(*BASE))

    def test_open_add_and_discard(self):
        repo = ConstraintRepository(parse_constraint(n) for n in BASE)
        warm(repo)
        repo.add(parse_constraint("c -> a"))
        assert facts(repo) == facts(ConstraintRepository(
            parse_constraint(n) for n in (*BASE, "c -> a")))
        repo.discard(parse_constraint("c -> a"))
        assert facts(repo) == facts(ConstraintRepository(parse_constraint(n) for n in BASE))


@pytest.mark.parametrize("certify", [False, True])
def test_queries_never_sort_the_closure(paper_closure, monkeypatch, certify):
    calls = []
    original = IntegrityConstraint.__lt__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    with Session(MinimizeOptions(certify=certify), constraints=paper_closure) as session:
        session.minimize(parse_xpath("S0*[R0][R0]"))  # warm-up: closure facts
        monkeypatch.setattr(IntegrityConstraint, "__lt__", counting)
        results = [
            session.minimize(parse_xpath(f"T{i}*[T{i + 1}/T{i + 2}][R{i % 8}]"))
            for i in range(20)
        ]
    assert not any(result.cache_hit for result in results)
    assert all((result.certificate is not None) == certify for result in results)
    assert len(calls) == 0
