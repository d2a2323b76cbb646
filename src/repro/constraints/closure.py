"""Logical closure of an integrity-constraint set (Section 5.2).

Augmentation and the CDM rules assume the constraint set is *logically
closed*: every constraint implied by the given ones is materialized. The
paper notes the closure "can be obtained in a straightforward way, and has
size at most quadratic in the size of the original ICs"; this module
implements it as a fixpoint over the sound inference rules for the three
constraint forms:

========================  ==============================================
Rule                      Reading
========================  ==============================================
``t1->t2 ⊢ t1->>t2``      a required child is a required descendant
``t1->>t2, t2->>t3 ⊢
t1->>t3``                 descendant requirements compose transitively
``t1~t2, t2~t3 ⊢ t1~t3``  co-occurrence composes transitively
``t1~t2, t2->t3 ⊢
t1->t3``                  a t1 node *is* a t2 node, so t2's obligations
                          transfer (same for ``->>``)
``t1->t2, t2~t3 ⊢
t1->t3``                  the required t2 child *is* a t3 node (same for
                          ``->>``)
========================  ==============================================

Trivial co-occurrences ``t ~ t`` are never generated (they are vacuous and
the model class forbids them).

Both entry points run one semi-naive worklist: each new fact is joined
against the facts already present through the forward
(:func:`implied_by`) and reverse (:func:`reverse_implied_by`) indexes, and
each derived fact is queued once. :func:`closure` seeds the worklist with
every input constraint; :func:`extend_closure` grows an already-closed
repository by a handful of new constraints, so its cost is proportional
to the consequences of the *delta*, not to the whole repository. The
fixpoint is unique, so both agree with the naive "apply every rule to
every constraint until nothing changes" iteration, which the tests keep
as the reference and compare digest-for-digest.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    ConstraintKind,
    IntegrityConstraint,
    co_occurrence,
    required_child,
    required_descendant,
)
from .repository import ConstraintRepository, coerce_repository

__all__ = ["closure", "extend_closure", "implied_by", "reverse_implied_by"]


def closure(
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint]",
) -> ConstraintRepository:
    """The logical closure of ``constraints`` as a closed repository.

    The input is not modified (an already-closed repository is returned
    as an independent copy), and its base/derived split carries over.
    The worklist starts with every input constraint; with ``T`` types the
    result has O(T²) constraints per kind, so the computation is
    polynomial.
    """
    repo = coerce_repository(constraints).copy()
    if not repo.is_closed:
        _saturate(repo, list(repo))
        repo._mark_closed()
    return repo


def extend_closure(
    repo: ConstraintRepository, additions: Sequence[IntegrityConstraint]
) -> list[IntegrityConstraint]:
    """Grow ``repo``'s closure in place by ``additions`` (new *base*
    constraints); returns every constraint actually inserted (the staged
    additions plus their derived consequences).

    ``repo`` must hold a closed constraint set (the closed *flag* may be
    temporarily cleared by the caller — :class:`RepositoryUpdate` does),
    so the worklist starts with the additions alone.
    """
    inserted = [c for c in additions if repo._insert(c, base=True)]
    return inserted + _saturate(repo, list(inserted))


def _saturate(
    repo: ConstraintRepository, worklist: list[IntegrityConstraint]
) -> list[IntegrityConstraint]:
    """Drain ``worklist`` (constraints already in ``repo``), inserting
    every consequence as a derived constraint and queueing it in turn;
    returns the derived constraints inserted.

    Every fact is in ``repo`` before it is queued, so of two facts that
    combine, the one popped later finds the other present: the forward
    join covers it as first premise, the reverse join as second, and the
    result is the full fixpoint.
    """
    derived: list[IntegrityConstraint] = []
    while worklist:
        c = worklist.pop()
        for implied in (*implied_by(c, repo), *reverse_implied_by(c, repo)):
            if repo._insert(implied, base=False):
                derived.append(implied)
                worklist.append(implied)
    return derived


def implied_by(
    c: IntegrityConstraint, repo: ConstraintRepository
) -> list[IntegrityConstraint]:
    """One-step consequences of constraint ``c`` against ``repo``, with
    ``c`` as the *first* premise of each binary rule.

    Exposed separately so tests can exercise each inference rule in
    isolation.
    """
    out: list[IntegrityConstraint] = []
    if c.is_required_child:
        # t1 -> t2  ⊢  t1 ->> t2
        out.append(required_descendant(c.source, c.target))
        # t1 -> t2, t2 ~ t3  ⊢  t1 -> t3
        for t3 in repo.co_occurring_with(c.target):
            out.append(required_child(c.source, t3))
    elif c.is_required_descendant:
        # t1 ->> t2, t2 ->> t3  ⊢  t1 ->> t3
        for t3 in repo.required_descendants_of(c.target):
            out.append(required_descendant(c.source, t3))
        # t1 ->> t2, t2 -> t3  ⊢  t1 ->> t3 (child of a descendant)
        for t3 in repo.required_children_of(c.target):
            out.append(required_descendant(c.source, t3))
        # t1 ->> t2, t2 ~ t3  ⊢  t1 ->> t3
        for t3 in repo.co_occurring_with(c.target):
            out.append(required_descendant(c.source, t3))
    else:  # co-occurrence
        # t1 ~ t2, t2 ~ t3  ⊢  t1 ~ t3 (skip the trivial t1 ~ t1)
        for t3 in repo.co_occurring_with(c.target):
            if t3 != c.source:
                out.append(co_occurrence(c.source, t3))
        # t1 ~ t2, t2 -> t3  ⊢  t1 -> t3; likewise for ->>
        for t3 in repo.required_children_of(c.target):
            out.append(required_child(c.source, t3))
        for t3 in repo.required_descendants_of(c.target):
            out.append(required_descendant(c.source, t3))
    return out


def reverse_implied_by(
    c: IntegrityConstraint, repo: ConstraintRepository
) -> list[IntegrityConstraint]:
    """One-step consequences of ``c`` as the *second* premise of each
    binary rule, joining through the repository's reverse index.

    The worklist needs this because it visits each constraint once: an
    existing ``t1 -> t2`` must combine with a *new* ``t2 ~ t3`` even
    though the existing constraint is never re-enqueued.
    """
    out: list[IntegrityConstraint] = []
    if c.is_co_occurrence:
        # t1 -> t2, [t2 ~ t3]  ⊢  t1 -> t3
        for t1 in repo.sources(ConstraintKind.REQUIRED_CHILD, c.source):
            out.append(required_child(t1, c.target))
        # t1 ~ t2, [t2 ~ t3]  ⊢  t1 ~ t3 (skip the trivial t1 ~ t1)
        for t1 in repo.sources(ConstraintKind.CO_OCCURRENCE, c.source):
            if t1 != c.target:
                out.append(co_occurrence(t1, c.target))
    elif c.is_required_child:
        # t1 ~ t2, [t2 -> t3]  ⊢  t1 -> t3
        for t1 in repo.sources(ConstraintKind.CO_OCCURRENCE, c.source):
            out.append(required_child(t1, c.target))
    else:  # required descendant
        # t1 ~ t2, [t2 ->> t3]  ⊢  t1 ->> t3
        for t1 in repo.sources(ConstraintKind.CO_OCCURRENCE, c.source):
            out.append(required_descendant(t1, c.target))
    # t1 ->> t2 combines with a new second premise of *any* kind:
    # [t2 ->> t3] (transitivity), [t2 -> t3] (child of a descendant),
    # [t2 ~ t3] (obligation transfer) — all yield t1 ->> c.target.
    for t1 in repo.sources(ConstraintKind.REQUIRED_DESCENDANT, c.source):
        out.append(required_descendant(t1, c.target))
    return out
