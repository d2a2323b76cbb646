"""Chase and augmentation of tree patterns with integrity constraints.

Two variants are provided:

* :func:`chase` — the classical chase adapted to tree queries (Section
  5.1): repeatedly apply every IC to every node, materializing required
  children/descendants. Kept for exposition and tests; as the paper notes,
  a blind chase can blow the query up arbitrarily (its depth grows without
  bound), which is why ACIM does not use it.

* :func:`augment` / :func:`augmentation_targets` — the paper's
  *augmentation* (Section 5.2), the chase with three changes: the IC set
  must be logically closed; ICs are applied only to **original** nodes and
  only when the required type already occurs in the original query (so the
  augmented query has size O(n²) and depth at most one more than the
  input); and added nodes/edges are **temporary**.

  :func:`augment` materializes temporaries into a copy (handy for the
  containment oracle and for display); :func:`augmentation_targets`
  returns them as never-materialized :class:`VirtualTarget` rows plus
  co-occurrence type annotations, which is how ACIM actually runs them
  (Section 6.1: "augmentations are not physically added to the initial
  query").
"""

from __future__ import annotations

from typing import Iterable

from ..constraints.model import ConstraintKind, IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..constraints.closure import closure
from .edges import EdgeKind
from .images import VirtualTarget
from .node import NO_TYPES
from .pattern import TreePattern

__all__ = ["augmentation_targets", "augment", "chase"]


def _closed(
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint]",
) -> ConstraintRepository:
    repo = coerce_repository(constraints)
    return repo if repo.is_closed else closure(repo)


def augmentation_targets(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint]",
) -> tuple[list[VirtualTarget], dict[int, frozenset[str]]]:
    """Compute the paper's augmentation without materializing it.

    Returns
    -------
    (virtual, extra_types)
        ``virtual`` — one :class:`VirtualTarget` per applied required-child
        / required-descendant IC (required-descendant targets are skipped
        when a required-child target of the same type already hangs off the
        same node, since a c-child is in particular a descendant);
        ``extra_types`` — per node id, the co-occurrence types to associate
        with the node.

    Without co-occurrence constraints, only types already present in
    ``pattern`` are introduced and every target is a flat leaf — the
    Section 5.2 augmentation, which bottom-up leaf elimination makes
    complete (a leaf's images stay anchored at real nodes, each carrying
    its own guarantees). Co-occurrence breaks that: a multi-typed witness
    (``a -> b`` with ``b ~ c``) can serve as the image of a *non-leaf*
    real node, whose children must then map below the witness. Those runs
    therefore expand full witness subtrees, mirroring the containment
    oracle (:func:`repro.core.ic_containment.chase_for_containment`):
    each target carries its (presence-filtered) co-occurrence types,
    recursion materializes the guarantees below it, and witness structure
    is not presence-filtered — a chain may pass through an absent type to
    reach a present one (extra types stay filtered: mapping sources are
    real nodes, so an absent extra type can never receive one). Witness
    depth is capped at the pattern's height — an image chain k levels
    below an anchor needs k strict source ancestors mapping above it, so
    deeper witnesses can never receive a mapping. Degenerate closures
    (not finitely satisfiable) keep the flat Section 5.2 targets: their
    witness trees are infinite, and the conservative augmentation matches
    what the containment oracle can verify in that regime.

    ICs are applied to the pattern's (original) nodes only, and the
    constraint set is closed first if needed.
    """
    repo = _closed(constraints)
    virtual: list[VirtualTarget] = []
    extra_types: dict[int, frozenset[str]] = {}
    # Two per-closure facts, read by probe: a query never scans the closure.
    has_cooc = (
        repo.has_kind(ConstraintKind.CO_OCCURRENCE) and repo.finitely_satisfiable()
    )
    present = {n.type for n in pattern.nodes() if not n.temporary}
    # A node whose type no constraint mentions gets no extra type and no
    # target, and takes no virtual-target id: both branches skip it
    # without probing.
    mentioned = repo.types()
    if has_cooc:
        depth_cap = max(n.depth for n in pattern.nodes())
        counter = iter(range(-1, -(1 << 30), -1))

        def expand(parent_id: int, t2: str, edge: EdgeKind, depth: int) -> None:
            # Witness *structure* is not presence-filtered — a chain can
            # pass through an absent type to reach a present one — but
            # extra types are: mapping sources are real nodes, so an
            # absent extra type can never receive a mapping.
            extras = frozenset(t for t in repo.co_occurring_with(t2) if t in present)
            vt = VirtualTarget(
                next(counter), t2, parent_id, edge, extra_types=extras or NO_TYPES
            )
            virtual.append(vt)
            if depth >= depth_cap:
                return
            child_types = repo.required_children_of(t2)
            for t3 in sorted(child_types):
                expand(vt.id, t3, EdgeKind.CHILD, depth + 1)
            for t3 in sorted(repo.required_descendants_of(t2)):
                if t3 not in child_types:
                    expand(vt.id, t3, EdgeKind.DESCENDANT, depth + 1)

        for node in pattern.nodes():
            if node.temporary or node.type not in mentioned:
                continue
            cooc = {
                t2 for t2 in repo.co_occurring_with(node.type) if t2 in present
            }
            if cooc:
                extra_types[node.id] = frozenset(cooc)
            child_types = {t2 for t2 in repo.required_children_of(node.type)}
            for t2 in sorted(child_types):
                expand(node.id, t2, EdgeKind.CHILD, 1)
            for t2 in sorted(repo.required_descendants_of(node.type)):
                if t2 not in child_types:
                    expand(node.id, t2, EdgeKind.DESCENDANT, 1)
        return virtual, extra_types

    next_id = -1
    for node in pattern.nodes():
        if node.temporary or node.type not in mentioned:
            # Per Section 5.2, ICs are never applied to nodes the chase
            # itself added (this is what keeps augmentation bounded and
            # makes repeated augmentation idempotent in the A/R/M algebra).
            continue
        cooc = {
            t2 for t2 in repo.co_occurring_with(node.type) if t2 in present
        }
        if cooc:
            extra_types[node.id] = frozenset(cooc)
        child_types = {
            t2 for t2 in repo.required_children_of(node.type) if t2 in present
        }
        for t2 in sorted(child_types):
            virtual.append(VirtualTarget(next_id, t2, node.id, EdgeKind.CHILD))
            next_id -= 1
        for t2 in sorted(repo.required_descendants_of(node.type)):
            # A required child of the same type already provides a
            # (stronger) target; skip the redundant descendant row.
            if t2 in present and t2 not in child_types:
                virtual.append(VirtualTarget(next_id, t2, node.id, EdgeKind.DESCENDANT))
                next_id -= 1
    return virtual, extra_types


def augment(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint]",
) -> TreePattern:
    """Materialized augmentation: a copy of ``pattern`` with temporary
    nodes attached and co-occurrence types annotated.

    The result is equivalent to ``pattern`` under the constraints; tests
    use it with the containment oracle to certify ACIM's behaviour.
    """
    result = pattern.copy()
    virtual, extra_types = augmentation_targets(pattern, constraints)
    for node_id, types in extra_types.items():
        for t in sorted(types):
            result.add_extra_type(result.node(node_id), t)
    materialized: dict[int, object] = {}
    for vt in virtual:
        parent = (
            materialized[vt.parent_id]
            if vt.parent_id < 0
            else result.node(vt.parent_id)
        )
        node = result.add_child(parent, vt.node_type, vt.edge, temporary=True)
        for t in sorted(vt.extra_types):
            result.add_extra_type(node, t)
        materialized[vt.id] = node
    return result


def chase(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint]",
    *,
    rounds: int = 1,
) -> TreePattern:
    """The classical (unrestricted) chase, for ``rounds`` sweeps.

    Every sweep applies every required-child/descendant IC to every node —
    including nodes added by earlier sweeps — materializing a new
    (temporary-flagged) node per application, and applies co-occurrence
    ICs as type annotations. Each (node, constraint) pair fires at most
    once, so a single call terminates, but repeated sweeps grow the query
    without bound when constraints chain — the size/depth blowup that
    motivates augmentation.
    """
    repo = coerce_repository(constraints)
    result = pattern.copy()
    fired: set[tuple[int, IntegrityConstraint]] = set()
    for _ in range(rounds):
        changed = False
        for node in list(result.nodes()):
            for c in sorted(repo.constraints_from(node.type)):
                key = (node.id, c)
                if key in fired:
                    continue
                fired.add(key)
                changed = True
                if c.is_co_occurrence:
                    result.add_extra_type(node, c.target)
                else:
                    edge = EdgeKind.CHILD if c.is_required_child else EdgeKind.DESCENDANT
                    result.add_child(node, c.target, edge, temporary=True)
        if not changed:
            break
    return result
