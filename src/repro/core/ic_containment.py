"""Containment and equivalence *under integrity constraints*.

``Q1 ⊆_C Q2`` holds when ``Q1(D) ⊆ Q2(D)`` for every database ``D``
satisfying the constraint set ``C``. For the paper's constraint classes
this reduces to ordinary containment against a *chased* version of
``Q1``: materialize around every node of ``Q1`` the full structure the
constraints guarantee, then look for a containment mapping
``Q2 → chase_C(Q1)``.

For **finitely satisfiable** closures (no type transitively requiring a
child/descendant of its own type — :func:`finitely_satisfiable`) the
guaranteed structure per node is a finite *witness tree* per implied
type, so the chase below is complete and the check exact. Two
refinements make it so in practice:

* implied types are expanded **recursively** (a required ``Vendor``
  child brings its own required ``Name`` child along), not one round
  deep — multi-level compositions like
  ``Product -> Vendor, Vendor -> Name ⊨ Product[Vendor/Name] ≡ Product``
  need this;
* expansion is not limited to types occurring in ``Q1``: ``Q2`` may
  probe for any type the constraints guarantee.

For degenerate (not finitely satisfiable) closures the implied witness
trees are infinite; expansion then falls back to one bounded round and
the check is only sound in the ``True`` direction (a ``False`` may be a
false negative on vacuously-true containments). The minimizers
themselves are unaffected — this module is the *oracle* they are tested
against.
"""

from __future__ import annotations

from typing import Iterable

from ..constraints.model import IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..constraints.closure import closure
from .containment import has_containment_mapping
from .edges import EdgeKind
from .node import PatternNode
from .pattern import TreePattern

__all__ = [
    "is_contained_in_under",
    "equivalent_under",
    "finitely_satisfiable",
    "chase_for_containment",
]


def finitely_satisfiable(
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None",
) -> bool:
    """Whether some finite database can contain nodes of every mentioned
    type: no type may (transitively) require a child or descendant of its
    own type. Degenerate sets make the mentioned types necessarily empty
    and reduce equivalence-under-constraints to vacuous truth. The answer
    is kept per closure
    (:meth:`~repro.constraints.repository.ConstraintRepository.finitely_satisfiable`)."""
    return coerce_repository(constraints).finitely_satisfiable()


def _attach_witness(
    pattern: TreePattern,
    anchor: PatternNode,
    node_type: str,
    edge: EdgeKind,
    repo: ConstraintRepository,
    deep: bool,
) -> None:
    """Attach a temporary node of ``node_type`` under ``anchor`` and, when
    ``deep``, its full witness subtree (everything the constraints imply
    below it). ``deep`` implies the closure is finitely satisfiable, so
    the recursion terminates."""
    node = pattern.add_child(anchor, node_type, edge, temporary=True)
    for extra in sorted(repo.co_occurring_with(node_type)):
        pattern.add_extra_type(node, extra)
    if not deep:
        return
    child_types = repo.required_children_of(node_type)
    for t2 in sorted(child_types):
        _attach_witness(pattern, node, t2, EdgeKind.CHILD, repo, deep)
    for t2 in sorted(repo.required_descendants_of(node_type)):
        if t2 not in child_types:
            _attach_witness(pattern, node, t2, EdgeKind.DESCENDANT, repo, deep)


def chase_for_containment(
    pattern: TreePattern, repo: ConstraintRepository
) -> TreePattern:
    """The chased query used as the containment target: every (original)
    node gains its co-occurrence types plus witness subtrees for each
    required child/descendant type.

    Complete for finitely satisfiable closures; otherwise each implied
    type is expanded one level only (sound fallback).
    """
    deep = repo.finitely_satisfiable()
    result = pattern.copy()
    for node in list(result.nodes()):
        for t2 in sorted(repo.co_occurring_with(node.type)):
            result.add_extra_type(node, t2)
        child_types = repo.required_children_of(node.type)
        for t2 in sorted(child_types):
            _attach_witness(result, node, t2, EdgeKind.CHILD, repo, deep)
        for t2 in sorted(repo.required_descendants_of(node.type)):
            if t2 not in child_types:
                _attach_witness(result, node, t2, EdgeKind.DESCENDANT, repo, deep)
    return result


def is_contained_in_under(
    q1: TreePattern,
    q2: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None",
) -> bool:
    """``Q1 ⊆_C Q2``: on every database satisfying the constraints,
    ``Q1``'s answers are among ``Q2``'s."""
    repo = coerce_repository(constraints)
    if not repo.is_closed:
        repo = closure(repo)
    chased = chase_for_containment(q1, repo)
    return has_containment_mapping(q2, chased)


def equivalent_under(
    q1: TreePattern,
    q2: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None",
) -> bool:
    """Two-way containment under the constraints."""
    return is_contained_in_under(q1, q2, constraints) and is_contained_in_under(
        q2, q1, constraints
    )
