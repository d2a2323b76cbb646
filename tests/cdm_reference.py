"""The object sweep of Algorithm CDM, kept as the reference for the flat one.

This is CDM as first written: every node's information content is a
:class:`~repro.core.infocontent.InfoContent` of
:class:`~repro.core.infocontent.InfoArg` objects, assembled from the
children by Figure 4's propagation rules, and each removable argument is
justified by scanning the content in sorted order and running Figure 6's
pairwise rules (:func:`_match_rule`) against every argument.
:func:`reference_cdm` must agree with :func:`repro.core.cdm.cdm_minimize`
on everything it reports: the eliminations in order, their rules and
witness steps, the output pattern and, with ``keep_contents=True``, every
node's content (``tests/test_cdm_differential.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.constraints.closure import closure
from repro.constraints.repository import ConstraintRepository, coerce_repository
from repro.core.cdm import CdmResult, _witness_step
from repro.core.edges import EdgeKind
from repro.core.infocontent import ArgKind, InfoArg, InfoContent
from repro.core.node import PatternNode
from repro.core.pattern import TreePattern


class SweepContent(InfoContent):
    """An :class:`InfoContent` the object sweep mutates while it
    minimizes: arguments lose sources, and die with their last one."""

    def is_live(self, arg: InfoArg) -> bool:
        """An argument can justify or be the target of a rule only while
        live: non-removable forms always are; removable forms need at
        least one surviving source."""
        if arg not in self._sources:
            return False
        if not arg.is_removable_form:
            return True
        return bool(self._sources[arg])

    def removable_args(self) -> list[InfoArg]:
        """Arguments in removable form that still have sources."""
        return [a for a in sorted(self._sources) if a.is_removable_form and self._sources[a]]

    def drop_source(self, arg: InfoArg, source: int) -> None:
        """Remove one source of ``arg``; the argument dies with its last
        source."""
        bucket = self._sources.get(arg)
        if bucket is None:
            return
        bucket.discard(source)
        if not bucket and arg.is_removable_form:
            del self._sources[arg]

    def drop(self, arg: InfoArg) -> None:
        """Remove an argument outright."""
        self._sources.pop(arg, None)


def reference_cdm(
    pattern: TreePattern,
    constraints=None,
    *,
    keep_contents: bool = False,
    collect_witnesses: bool = False,
) -> CdmResult:
    """CDM by the object sweep, on a copy of ``pattern``."""
    repo = coerce_repository(constraints)
    if not repo.is_closed:
        repo = closure(repo)
    query = pattern.copy()
    result = CdmResult(pattern=query)
    contents: dict[int, SweepContent] = {}
    _sweep(query.root, contents, repo, result, collect_witnesses)
    if keep_contents:
        result.contents = contents
    return result


def propagate_child_content(
    child: PatternNode, child_content: InfoContent
) -> list[tuple[InfoArg, Optional[int]]]:
    """Figure 4's propagation rules for one child.

    Returns the ``(argument, source)`` pairs the parent gains from
    ``child``; ``source`` is ``child.id`` when the argument is the child's
    own type in removable form, else ``None``.

    * The child's SELF argument becomes an ``a`` (d-edge) or ``p``
      (c-edge) obligation, keeping its constrained flag (rules 1 and 4).
    * Every obligation held by the child becomes a *constrained* ``a``
      obligation of the parent — whatever the edge kind, the obliged node
      is at least two steps away (rules 2, 3, 5, 6).
    """
    out: list[tuple[InfoArg, Optional[int]]] = []
    self_arg = child_content.self_arg()
    if self_arg is None:  # pragma: no cover - contents always start with SELF
        raise AssertionError("child content missing SELF argument")
    kind = ArgKind.ANCESTOR if child.edge is EdgeKind.DESCENDANT else ArgKind.PARENT
    out.append((InfoArg(kind, self_arg.type, self_arg.constrained), child.id))
    for arg in child_content.args():
        if arg.is_obligation:
            out.append((InfoArg(ArgKind.ANCESTOR, arg.type, True), None))
    return out


def _match_rule(
    justifier: InfoArg, target: InfoArg, repo: ConstraintRepository
) -> Optional[str]:
    """Figure 6's minimization rules (sound reading — see DESIGN.md).

    ``target`` is a removable-form obligation; return the rule family name
    when ``justifier`` discharges it, else ``None``.
    """
    if target.kind is ArgKind.ANCESTOR:
        # The obligation asks for a descendant of type target.type.
        if justifier.kind is ArgKind.SELF:
            # Rules 1-2 (the closed repository turns t1 -> t2 into
            # t1 ->> t2, so one probe covers both edge kinds here).
            if repo.has_required_descendant(justifier.type, target.type):
                return "self-descendant"
        else:
            # Rules 3-4: some descendant of type t1 exists below the node;
            # t1 ->> t2 supplies the required t2 descendant.
            if repo.has_required_descendant(justifier.type, target.type):
                return "obligation-descendant"
            # Rules 5-6 (descendant flavour): that t1 descendant *is* a
            # t2 node, directly satisfying the obligation.
            if repo.has_co_occurrence(justifier.type, target.type):
                return "obligation-co-occurrence"
    else:  # target.kind is ArgKind.PARENT — asks for a c-child leaf
        if justifier.kind is ArgKind.SELF:
            # Rule 2: the node's own type requires such a child.
            if repo.has_required_child(justifier.type, target.type):
                return "self-child"
        elif justifier.kind is ArgKind.PARENT:
            # Rules 5-6 (child flavour): a sibling c-child of type t1 is
            # also a t2 node. Only a *c-child* justifier is sound here.
            if repo.has_co_occurrence(justifier.type, target.type):
                return "sibling-co-occurrence"
    return None


def _sweep(
    root: PatternNode,
    contents: dict[int, SweepContent],
    repo: ConstraintRepository,
    result: CdmResult,
    collect_witnesses: bool = False,
) -> None:
    # Explicit-stack postorder: queries can be deeper than Python's
    # recursion budget.
    stack: list[tuple[PatternNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue

        content = SweepContent()
        content.set_self(node.type, constrained=not node.is_leaf)
        for child in node.children:
            for arg, source in propagate_child_content(child, contents[child.id]):
                content.add(arg, source)

        _minimize_at(node, content, repo, result, collect_witnesses)

        if node.is_leaf:
            # All children were discharged: ~t relaxes to t before the
            # parent reads this content (the cascading step of Figure 5).
            content.set_self(node.type, constrained=False)
        contents[node.id] = content


def _minimize_at(
    node: PatternNode,
    content: SweepContent,
    repo: ConstraintRepository,
    result: CdmResult,
    collect_witnesses: bool = False,
) -> None:
    # One ordered pass suffices: rule applications only ever *remove*
    # arguments and sources, so a target that has no live justifier now
    # will never gain one later at this node.
    for target in content.removable_args():
        if not content.is_live(target):
            continue
        found = _find_justification(content, target, repo)
        if found is not None:
            rule, justifier = found
            _discharge(node, content, target, rule, justifier, result, collect_witnesses)


def _find_justification(
    content: SweepContent, target: InfoArg, repo: ConstraintRepository
) -> Optional[tuple[str, InfoArg]]:
    # A self-pair justification (the target trimming its own duplicates,
    # e.g. t ->> t) must keep one source alive, so it is only a fallback:
    # any other justifier discharges *every* source, and each target is
    # visited once.
    fallback: Optional[tuple[str, InfoArg]] = None
    for justifier in content.args():
        if not content.is_live(justifier):
            continue
        if justifier == target:
            if fallback is None and len(content.sources_of(target)) >= 2:
                rule = _match_rule(justifier, target, repo)
                if rule is not None:
                    fallback = (f"{rule}(self-pair)", justifier)
            continue
        rule = _match_rule(justifier, target, repo)
        if rule is not None:
            return (rule, justifier)
    return fallback


def _discharge(
    node: PatternNode,
    content: SweepContent,
    target: InfoArg,
    rule: str,
    justifier: InfoArg,
    result: CdmResult,
    collect_witnesses: bool = False,
) -> None:
    """Delete the deletable source leaves behind ``target``."""
    sources = sorted(content.sources_of(target))
    # A self-pair rule (the target justifies its own duplicates) must
    # leave one source alive as the justifier. An undeletable source
    # (output/temporary) serves for free; otherwise keep the first.
    self_pair = rule.endswith("(self-pair)")
    kept_id: Optional[int] = None
    kept_justifier = True
    if self_pair:
        undeletable = [
            s
            for s in sources
            if node.pattern.node(s).is_output or node.pattern.node(s).temporary
        ]
        if undeletable:
            kept_id = undeletable[0]
        else:
            kept_id = sources[0]
            kept_justifier = False
    for source_id in sources:
        child = node.pattern.node(source_id)
        if child.is_output or child.temporary:
            continue
        if not kept_justifier:
            kept_justifier = True
            continue
        if collect_witnesses:
            result.witness_steps.append(
                _witness_step(node, child, target.type, rule, justifier.type, kept_id)
            )
        node.pattern.delete_leaf(child)
        content.drop_source(target, source_id)
        result.eliminated.append((source_id, child.type, rule))
        result.rule_counts[rule] = result.rule_counts.get(rule, 0) + 1
