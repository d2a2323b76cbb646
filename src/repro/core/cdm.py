"""Algorithm CDM — constraint-dependent local minimization (Section 5.4/5.5).

CDM eliminates, in near-linear time, every *locally redundant* leaf of a
tree pattern under a logically closed set of ICs. A leaf ``l`` is locally
redundant when one of the paper's four conditions holds:

(i)   ``l`` (type ``t'``) is a c-child of ``n`` (type ``t``) and
      ``t -> t'`` holds;
(ii)  ``l`` is a d-child of ``n`` and ``t ->> t'`` holds;
(iii) ``l`` is a c-child of ``n``, ``n`` has another c-child of type
      ``t``, and ``t ~ t'`` holds;
(iv)  ``l`` is a d-child of ``n``, ``n`` has some descendant of type
      ``t``, and ``t ->> t'`` or ``t ~ t'`` holds.

Testing (iv) naively needs non-local information, so CDM propagates an
*information content* (:mod:`repro.core.infocontent`) up the tree —
Figure 4's propagation rules — and, once a node's children are done,
applies Figure 6's pairwise rules at the node in one ordered pass. When a
node loses all its children, its own ``~t`` argument relaxes to ``t``
before being propagated, which lets redundancy cascade up the tree
(Figure 5).

The sweep holds a node's content as flat per-node state, never as
argument objects:

* the unconstrained obligations ``a t`` / ``p t`` as ``type -> leaves``
  maps over the node's d-/c-child leaves (the only nodes CDM may delete);
* the constrained obligations ``a ~t`` / ``p ~t`` as sets of types;
* the node's own ``t`` / ``~t`` as its type and whether it has children.

Every obligation of a child becomes an ``a ~t`` of its parent (rules 2,
3, 5 and 6), so a finished node hands its parent one set of obligation
types, and the parent adopts its largest child's set and adds the rest
in place instead of rebuilding it at every ancestor. A rule's justifying
argument is found by probing: the node's own type with one point lookup,
the obligations by intersecting their type sets with the closure's
reverse index ``(kind, target) -> sources``.

CDM is *locally* minimal only (Theorem 5.2); it neither subsumes nor is
subsumed by plain CIM. Its role is a fast pre-filter: CDM followed by
ACIM still produces the unique global minimum (Theorem 5.3) — see
:mod:`repro.core.pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import AbstractSet, Iterable, Optional

from ..constraints.closure import closure
from ..constraints.model import ConstraintKind, IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from .edges import EdgeKind
from .infocontent import ArgKind, InfoArg, InfoContent
from .node import PatternNode
from .pattern import TreePattern

__all__ = ["CdmResult", "cdm_minimize"]

_SELF_PAIR = "(self-pair)"


@dataclass
class CdmResult:
    """Outcome of a CDM run.

    Attributes
    ----------
    pattern:
        The locally minimized query.
    eliminated:
        ``(node_id, node_type, rule)`` triples in elimination order, where
        ``rule`` names the Figure 6 rule family that fired.
    rule_counts:
        How many nodes each rule family removed.
    contents:
        Final information content per node id the sweep visited, deleted
        leaves included (only when ``keep_contents=True``) — matches the
        boxed labels of Figure 5.
    seconds:
        Wall-clock time of the sweep (closure time excluded; pass a closed
        repository for benchmark-grade numbers).
    """

    pattern: TreePattern
    eliminated: list[tuple[int, str, str]] = field(default_factory=list)
    rule_counts: dict[str, int] = field(default_factory=dict)
    contents: dict[int, InfoContent] = field(default_factory=dict)
    seconds: float = 0.0
    #: One :class:`repro.certify.witness.WitnessStep` per eliminated node
    #: (parallel to ``eliminated``; only when ``collect_witnesses=True``).
    witness_steps: list = field(default_factory=list)

    @property
    def removed_count(self) -> int:
        """Number of nodes eliminated."""
        return len(self.eliminated)


def cdm_minimize(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    *,
    in_place: bool = False,
    keep_contents: bool = False,
    collect_witnesses: bool = False,
) -> CdmResult:
    """Run Algorithm CDM on ``pattern`` under ``constraints``.

    The constraint set is closed first unless the repository is already
    marked closed (pass a pre-closed repository when timing CDM itself,
    as the Figure 8 experiments do).

    One post-order sweep: each node's content is assembled from its
    (already minimized) children, each removable obligation is then
    visited once, in order, and the leaf children behind those with a
    live justifier are deleted; the content left is what the parent
    sees. Upward cascades (a node becoming an unconstrained leaf) are
    therefore handled in the same sweep.

    With ``keep_contents=True`` every visited node's final content is
    also rendered as an :class:`InfoContent` (:attr:`CdmResult.contents`).
    With ``collect_witnesses=True`` each elimination also records a
    witness containment mapping derived from the rule that fired (a
    sibling/descendant retarget, or a chase-implied virtual node), filling
    :attr:`CdmResult.witness_steps` for certificate assembly.
    """
    repo = coerce_repository(constraints)
    if not repo.is_closed:
        repo = closure(repo)
    query = pattern if in_place else pattern.copy()
    result = CdmResult(pattern=query)

    start = time.perf_counter()
    contents = result.contents if keep_contents else None
    _sweep(query, repo, result, collect_witnesses, contents)
    result.seconds = time.perf_counter() - start
    return result


def _sweep(
    query: TreePattern,
    repo: ConstraintRepository,
    result: CdmResult,
    collect_witnesses: bool,
    contents: Optional[dict[int, InfoContent]],
) -> None:
    # Obligation types each finished inner node hands its parent.
    handed: dict[int, set[str]] = {}
    # Reversed preorder is a postorder (last child's subtree first); no
    # recursion, since queries can be deeper than Python's stack budget.
    for node in reversed(list(query.nodes())):
        children = node.children
        if not children:
            if contents is not None:
                contents[node.id] = _render(node, {}, (), {}, ())
            continue
        a_live: dict[str, list[PatternNode]] = {}
        p_live: dict[str, list[PatternNode]] = {}
        p_con: set[str] = set()
        inner: list[set[str]] = []
        inner_d_types: list[str] = []
        for child in children:
            descendant = child.edge is EdgeKind.DESCENDANT
            if child.is_leaf:
                # Rules 1 and 4: a leaf child is an unconstrained a t / p t.
                live = a_live if descendant else p_live
                live.setdefault(child.type, []).append(child)
            else:
                # Rules 1 and 4 (constrained), then 2, 3, 5 and 6: every
                # obligation of the child is an a ~t here.
                if descendant:
                    inner_d_types.append(child.type)
                else:
                    p_con.add(child.type)
                inner.append(handed.pop(child.id))
        if inner:
            a_con = max(inner, key=len)
            for types in inner:
                if types is not a_con:
                    a_con |= types
            a_con.update(inner_d_types)
        else:
            a_con = set()

        if a_live or p_live:
            _minimize_at(node, a_live, a_con, p_live, p_con, repo, result, collect_witnesses)

        if contents is not None:
            contents[node.id] = _render(node, a_live, a_con, p_live, p_con)
        if not node.is_leaf:
            a_con |= p_con
            a_con.update(a_live)
            a_con.update(p_live)
            handed[node.id] = a_con


def _minimize_at(
    node: PatternNode,
    a_live: dict[str, list[PatternNode]],
    a_con: set[str],
    p_live: dict[str, list[PatternNode]],
    p_con: set[str],
    repo: ConstraintRepository,
    result: CdmResult,
    collect_witnesses: bool,
) -> None:
    """Figure 6's rules at one node, each removable obligation (target)
    visited once: ``a t`` then ``p t``, each by type.

    A target's justifier is the first live argument, in the content's
    order (own type, then the ``a`` obligations by type, then the ``p``
    ones), that a rule pairs with it; each rule is one hash probe, so the
    first match is the least type among the obligations that lie in the
    reverse index of the target. One pass suffices: rules only ever
    *remove* sources, so a target with no live justifier now never gains
    one later at this node.
    """
    for target in sorted(a_live):
        # a t asks for a t descendant.
        if repo.has_required_descendant(node.type, target):
            # Rules 1-2 (the closed repository turns t1 -> t2 into
            # t1 ->> t2, so one probe covers both edge kinds here).
            rule, justifier = "self-descendant", node.type
        else:
            # Rules 3-4 (some t1 below requires a t descendant) and 5-6,
            # descendant flavour (some t1 below is also a t). The target
            # cannot justify itself here; a ~t of its type can.
            descendant_of = repo.sources(ConstraintKind.REQUIRED_DESCENDANT, target)
            co_occurs = repo.sources(ConstraintKind.CO_OCCURRENCE, target)
            hits = a_live.keys() & descendant_of
            hits.discard(target)
            hits |= a_live.keys() & co_occurs
            hits |= a_con & descendant_of
            hits |= a_con & co_occurs
            if not hits:
                hits = p_live.keys() & descendant_of
                hits |= p_live.keys() & co_occurs
                hits |= p_con & descendant_of
                hits |= p_con & co_occurs
            if hits:
                justifier = min(hits)
                if justifier in descendant_of:
                    rule = "obligation-descendant"
                else:
                    rule = "obligation-co-occurrence"
            elif len(a_live[target]) >= 2 and target in descendant_of:
                # t ->> t: one duplicate justifies the others. A fallback
                # only, because it must keep a source alive (t ~ t is
                # never in a closure, so this is the only self-pair).
                rule, justifier = f"obligation-descendant{_SELF_PAIR}", target
            else:
                continue
        _discharge(node, a_live, target, rule, justifier, result, collect_witnesses)

    for target in sorted(p_live):
        # p t asks for a t c-child.
        if repo.has_required_child(node.type, target):
            # Rule 2: the node's own type requires such a child.
            rule, justifier = "self-child", node.type
        else:
            # Rules 5-6, child flavour: a sibling c-child of type t1 is
            # also a t node. Only a *c-child* justifier is sound here.
            co_occurs = repo.sources(ConstraintKind.CO_OCCURRENCE, target)
            hits = p_live.keys() & co_occurs
            hits |= p_con & co_occurs
            if not hits:
                continue
            rule, justifier = "sibling-co-occurrence", min(hits)
        _discharge(node, p_live, target, rule, justifier, result, collect_witnesses)


def _discharge(
    node: PatternNode,
    live: dict[str, list[PatternNode]],
    target: str,
    rule: str,
    justifier: str,
    result: CdmResult,
    collect_witnesses: bool,
) -> None:
    """Delete the deletable leaves behind ``target``; an output or
    temporary leaf stays, and the target dies with its last leaf."""
    leaves = sorted(live[target], key=attrgetter("id"))
    # A self-pair rule (the target justifies its own duplicates) must
    # leave one leaf alive as the justifier. An undeletable leaf serves
    # for free; otherwise the first leaf is spared.
    kept_id: Optional[int] = None
    spared: Optional[PatternNode] = None
    if rule.endswith(_SELF_PAIR):
        pinned = [leaf for leaf in leaves if leaf.is_output or leaf.temporary]
        if pinned:
            kept_id = pinned[0].id
        else:
            spared = leaves[0]
            kept_id = spared.id
    survivors: list[PatternNode] = []
    pattern = node.pattern
    for leaf in leaves:
        if leaf.is_output or leaf.temporary or leaf is spared:
            survivors.append(leaf)
            continue
        if collect_witnesses:
            result.witness_steps.append(
                _witness_step(node, leaf, target, rule, justifier, kept_id)
            )
        pattern.delete_leaf(leaf)
        result.eliminated.append((leaf.id, leaf.type, rule))
        result.rule_counts[rule] = result.rule_counts.get(rule, 0) + 1
    if survivors:
        live[target] = survivors
    else:
        del live[target]


def _render(
    node: PatternNode,
    a_live: dict[str, list[PatternNode]],
    a_con: AbstractSet[str],
    p_live: dict[str, list[PatternNode]],
    p_con: AbstractSet[str],
) -> InfoContent:
    """The Figure 5 view of one node's flat state."""
    content = InfoContent()
    content.set_self(node.type, constrained=not node.is_leaf)
    for kind, live, con in (
        (ArgKind.ANCESTOR, a_live, a_con),
        (ArgKind.PARENT, p_live, p_con),
    ):
        for t, leaves in live.items():
            arg = InfoArg(kind, t, False)
            for leaf in leaves:
                content.add(arg, leaf.id)
        for t in con:
            content.add(InfoArg(kind, t, True))
    return content


def _witness_step(
    node: PatternNode,
    source: PatternNode,
    target: str,
    rule: str,
    justifier: str,
    kept_id: Optional[int],
):
    """The witness containment mapping for one CDM elimination.

    ``target`` and ``justifier`` are the types of the discharged
    obligation and of the argument that discharged it. The deleted leaf
    is retargeted either at a live sibling/descendant node of the
    justifier's type, or at a chase-implied virtual node (a step-local
    :class:`~repro.certify.witness.VirtualRow`); every other node maps to
    itself. Failure to locate the justifying node would mean the rule
    fired on a stale argument — an internal invariant violation.
    """
    from ..certify.witness import VirtualRow, WitnessStep

    base = rule[: -len(_SELF_PAIR)] if rule.endswith(_SELF_PAIR) else rule
    if kept_id is not None:
        # Self-pair: the deleted duplicate folds onto the kept source,
        # a live sibling of the same type and edge kind.
        return WitnessStep(
            node_id=source.id,
            node_type=source.type,
            stage="cdm",
            rule=rule,
            mapping=((source.id, kept_id),),
        )
    if base == "self-child":
        row = VirtualRow(-1, target, node.id, "child")
        return WitnessStep(source.id, source.type, "cdm", rule, ((source.id, -1),), (row,))
    if base == "self-descendant":
        row = VirtualRow(-1, target, node.id, "descendant")
        return WitnessStep(source.id, source.type, "cdm", rule, ((source.id, -1),), (row,))

    # The remaining rules are justified by a live node of the justifier's
    # type: a source leaf of an unconstrained argument, or a surviving
    # non-leaf child (or deeper node) behind a constrained one.
    witness_node: Optional[PatternNode] = None
    if base == "sibling-co-occurrence":
        for child in node.children:
            if (
                child.edge is EdgeKind.CHILD
                and child.type == justifier
                and child.id != source.id
            ):
                witness_node = child
                break
    else:  # obligation-descendant / obligation-co-occurrence
        for desc in node.descendants():
            if desc.type == justifier and desc.id != source.id:
                witness_node = desc
                break
    if witness_node is None:  # pragma: no cover - liveness invariant
        raise AssertionError(
            f"CDM rule {rule!r} fired with no live justifying node of type "
            f"{justifier!r} under node {node.id}"
        )
    if base == "obligation-descendant":
        # The justifying descendant requires a target descendant of its
        # own; the deleted leaf maps onto that chase-implied node.
        row = VirtualRow(-1, target, witness_node.id, "descendant")
        return WitnessStep(source.id, source.type, "cdm", rule, ((source.id, -1),), (row,))
    # sibling-co-occurrence / obligation-co-occurrence: the justifying
    # node is itself (also) a target node — map the leaf onto it.
    return WitnessStep(
        source.id, source.type, "cdm", rule, ((source.id, witness_node.id),)
    )
