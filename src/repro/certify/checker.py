"""Independent verification of minimization certificates.

This module re-checks, from the *definitions* alone, that a
:class:`~repro.certify.witness.Certificate` proves its answer: it
replays the elimination sequence on a copy of the input pattern and, at
every step, validates the recorded witness endomorphism directly against
the containment-mapping definition of Section 4 (type/output
admissibility, c-child → c-child, d-child → proper descendant) and the
chase provenance of every virtual row against O(1) probes into the named
constraint closure (Section 5.2).

**Independence argument.** The checker deliberately shares no code with
the images engine that *produced* the witnesses
(:class:`repro.core.flat.FlatImagesEngine`):
it never builds images sets, ancestor/descendant hash tables, or bitset
tables — each claim is checked by direct recursive walks over the
pattern data model (:class:`~repro.core.pattern.TreePattern` /
:class:`~repro.core.node.PatternNode`) and the constraint repository.
A bug in the engines' table construction or incremental maintenance
therefore cannot also hide in the checker; the only shared surface is
the pattern/constraint *data model* and the canonical-key encoding used
to bind endpoints. Complexity is O(n·m) per step (n pattern nodes, m
mapping targets — in practice the mapping is near-identity, so each step
is close to O(n)).

The checker is intentionally *more permissive at the leaves of the
provenance* than the producer: type admissibility and virtual-row
justification are re-derived from closure probes rather than from the
presence-filtered augmentation the engines saw. Every genuine witness
passes (the engine's admissible targets are a subset of the closure's),
and acceptance remains sound — anything the checker accepts is
chase-derivable from the named closure, hence a true containment
mapping into the chased pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..constraints.closure import closure
from ..constraints.model import IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..core.edges import EdgeKind
from ..core.fingerprint import fingerprint, subtree_keys
from ..core.node import PatternNode
from ..core.pattern import TreePattern
from .witness import EDGE_CHILD, EDGE_DESCENDANT, Certificate, VirtualRow

__all__ = ["CheckResult", "check_certificate", "check_answer", "check_oracle_table"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a certificate check.

    Falsy when the check failed; ``reason`` is a human-readable
    diagnosis and ``step_index`` the 0-based offending step (or -1 for
    certificate-level failures).
    """

    ok: bool
    reason: str = ""
    step_index: int = -1

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str, step: int = -1) -> CheckResult:
    return CheckResult(ok=False, reason=reason, step_index=step)


_OK = CheckResult(ok=True)


def _closed_repo(
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None",
) -> tuple[ConstraintRepository, ConstraintRepository]:
    """The repository as handed in (digest identity) and its closure."""
    repo = coerce_repository(constraints)
    return repo, (repo if repo.is_closed else closure(repo))


def _parent_types(
    anchor_types: Iterable[str], closed: ConstraintRepository
) -> set[str]:
    """All types a node carrying ``anchor_types`` is known to have."""
    out: set[str] = set()
    for t in anchor_types:
        out.add(t)
        out.update(closed.co_occurring_with(t))
    return out


def _row_provenance_ok(
    row: VirtualRow, anchor_types: Iterable[str], closed: ConstraintRepository
) -> Optional[str]:
    """Why ``row`` is not chase-derivable from its anchor, or ``None``."""
    types = _parent_types(anchor_types, closed)
    if row.edge == EDGE_CHILD:
        if not any(closed.has_required_child(t, row.node_type) for t in types):
            return f"virtual row {row.id}: no required-child IC implies it"
    elif row.edge == EDGE_DESCENDANT:
        if not any(closed.has_required_descendant(t, row.node_type) for t in types):
            return f"virtual row {row.id}: no required-descendant IC implies it"
    else:
        return f"virtual row {row.id}: unknown edge {row.edge!r}"
    for extra in row.extra_types:
        if not closed.has_co_occurrence(row.node_type, extra):
            return (
                f"virtual row {row.id}: extra type {extra!r} not implied by a "
                f"co-occurrence IC on {row.node_type!r}"
            )
    return None


def _validate_rows(
    rows: Sequence[VirtualRow],
    work: TreePattern,
    closed: ConstraintRepository,
) -> "str | dict[int, VirtualRow]":
    """Validate a virtual-row list; return the id-indexed rows or an
    error string. Parent rows must precede children so anchor chains
    resolve forward."""
    by_id: dict[int, VirtualRow] = {}
    for row in rows:
        if row.id >= 0:
            return f"virtual row id {row.id} is not negative"
        if row.id in by_id:
            return f"duplicate virtual row id {row.id}"
        if row.parent_id < 0:
            parent = by_id.get(row.parent_id)
            if parent is None:
                return (
                    f"virtual row {row.id} anchored on unknown/later "
                    f"virtual row {row.parent_id}"
                )
            anchor_types: Iterable[str] = (parent.node_type, *parent.extra_types)
        else:
            if not work.has_node(row.parent_id):
                return f"virtual row {row.id} anchored on unknown node {row.parent_id}"
            anchor_types = work.node(row.parent_id).all_types
        problem = _row_provenance_ok(row, anchor_types, closed)
        if problem is not None:
            return problem
        by_id[row.id] = row
    return by_id


def _real_anchor(row: VirtualRow, rows: Mapping[int, VirtualRow]) -> int:
    """The real pattern node a virtual row (transitively) hangs from."""
    cur = row.parent_id
    while cur < 0:
        cur = rows[cur].parent_id
    return cur


def _admissible_real(
    v: PatternNode, u: PatternNode, closed: ConstraintRepository
) -> bool:
    if v.is_output and not u.is_output:
        return False
    for t in u.all_types:
        if v.type == t or closed.has_co_occurrence(t, v.type):
            return True
    return False


def _admissible_virtual(
    v: PatternNode, row: VirtualRow, closed: ConstraintRepository
) -> bool:
    if v.is_output:
        return False  # virtual nodes never carry the output marker
    return (
        v.type == row.node_type
        or v.type in row.extra_types
        or closed.has_co_occurrence(row.node_type, v.type)
    )


def _is_c_child_of(
    target: int, parent_target: int, work: TreePattern, rows: Mapping[int, VirtualRow]
) -> bool:
    if target >= 0:
        if parent_target < 0:
            return False  # a real node cannot hang below a virtual one
        u = work.node(target)
        return (
            u.parent is not None
            and u.parent.id == parent_target
            and u.edge is EdgeKind.CHILD
        )
    row = rows.get(target)
    return row is not None and row.edge == EDGE_CHILD and row.parent_id == parent_target


def _is_proper_descendant_of(
    target: int, parent_target: int, work: TreePattern, rows: Mapping[int, VirtualRow]
) -> bool:
    if target >= 0:
        if parent_target < 0:
            return False
        return any(a.id == parent_target for a in work.node(target).ancestors())
    cur = target
    while cur < 0:
        row = rows.get(cur)
        if row is None:
            return False
        cur = row.parent_id
        if cur == parent_target:
            return True  # the chain passes through (or ends at) the target
    if parent_target < 0:
        return False
    return any(a.id == parent_target for a in work.node(cur).ancestors())


def check_certificate(
    cert: Certificate,
    input_pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    *,
    eliminated: Optional[Sequence[tuple[int, str]]] = None,
    keys: Optional[dict[int, str]] = None,
) -> CheckResult:
    """Validate ``cert`` against ``input_pattern`` under ``constraints``.

    Replays the elimination sequence on a copy of the input and checks
    every witness mapping and every virtual row against the containment
    and chase definitions (module docstring). When ``eliminated`` is
    given (the ``(node_id, node_type)`` replay recipe the certificate
    travels with), the certificate's step sequence must match it exactly
    — a single-sided tamper of either artifact is then always caught.
    ``keys`` accepts the input's precomputed
    :func:`~repro.core.fingerprint.subtree_keys` table; without it the
    table is built for this call and left on no pattern.
    """
    if cert.version != 1:
        return _fail(f"unsupported certificate version {cert.version}")
    if keys is None:
        keys = subtree_keys(input_pattern, memoize=False)
    if fingerprint(input_pattern, keys=keys) != cert.fingerprint:
        return _fail("input fingerprint mismatch")
    if input_pattern.size != cert.input_size:
        return _fail("input size mismatch")
    repo, closed = _closed_repo(constraints)
    if repo.digest() != cert.closure_digest:
        return _fail("constraint closure digest mismatch")
    if eliminated is not None:
        recorded = tuple((int(i), str(t)) for i, t in eliminated)
        if cert.eliminated != recorded:
            return _fail("certificate steps disagree with the replay recipe")

    work = input_pattern.copy()
    acim_rows = _validate_rows(cert.virtual_targets, work, closed)
    if isinstance(acim_rows, str):
        return _fail(acim_rows)
    acim_anchor = {vid: _real_anchor(row, acim_rows) for vid, row in acim_rows.items()}

    for index, step in enumerate(cert.steps):
        if step.stage not in ("cdm", "acim"):
            return _fail(f"unknown stage {step.stage!r}", index)
        if not work.has_node(step.node_id):
            return _fail(f"eliminated node {step.node_id} not in pattern", index)
        leaf = work.node(step.node_id)
        if leaf.type != step.node_type:
            return _fail(f"eliminated node {step.node_id} has wrong type", index)
        if not leaf.is_leaf:
            return _fail(f"node {step.node_id} is not a leaf at its step", index)
        if leaf.is_root or leaf.is_output:
            return _fail(f"node {step.node_id} is not eliminable", index)

        if step.stage == "cdm":
            rows = _validate_rows(step.virtuals, work, closed)
            if isinstance(rows, str):
                return _fail(rows, index)
        else:
            if step.virtuals:
                return _fail("acim steps must use certificate-level rows", index)
            # A virtual row dies with its real anchor (Section 6.1).
            rows = {
                vid: row
                for vid, row in acim_rows.items()
                if work.has_node(acim_anchor[vid])
            }

        mapping = dict(step.mapping)
        if len(mapping) != len(step.mapping):
            return _fail("duplicate source in witness mapping", index)
        if mapping.get(step.node_id, step.node_id) == step.node_id:
            return _fail(f"witness does not remap node {step.node_id}", index)
        for src in mapping:
            if not work.has_node(src):
                return _fail(f"witness maps unknown node {src}", index)

        for v in work.nodes():
            target = mapping.get(v.id, v.id)
            if target == step.node_id:
                return _fail(
                    f"witness targets the eliminated node from {v.id}", index
                )
            if target >= 0:
                if not work.has_node(target):
                    return _fail(f"witness target {target} not in pattern", index)
                if not _admissible_real(v, work.node(target), closed):
                    return _fail(
                        f"node {v.id} not type/output-admissible at {target}", index
                    )
            else:
                row = rows.get(target)
                if row is None:
                    return _fail(f"witness target {target} is not a live row", index)
                if not _admissible_virtual(v, row, closed):
                    return _fail(
                        f"node {v.id} not admissible at virtual row {target}", index
                    )
            if v.parent is None:
                continue  # embeddings are unanchored: the root is free
            parent_target = mapping.get(v.parent.id, v.parent.id)
            if v.edge is EdgeKind.CHILD:
                if not _is_c_child_of(target, parent_target, work, rows):
                    return _fail(
                        f"c-edge {v.parent.id}->{v.id} not preserved", index
                    )
            else:
                if not _is_proper_descendant_of(target, parent_target, work, rows):
                    return _fail(
                        f"d-edge {v.parent.id}->{v.id} not preserved", index
                    )

        work.delete_leaf(leaf)

    if work.size != cert.output_size:
        return _fail("output size mismatch")
    if work.canonical_key() != cert.output_key:
        return _fail("replayed pattern disagrees with certified output key")
    return _OK


def check_answer(
    cert: Certificate,
    input_pattern: TreePattern,
    served_pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    *,
    eliminated: Optional[Sequence[tuple[int, str]]] = None,
) -> CheckResult:
    """:func:`check_certificate` plus the binding to the answer actually
    served: the served pattern's canonical key must equal the certified
    output key."""
    result = check_certificate(
        cert, input_pattern, constraints, eliminated=eliminated
    )
    if not result:
        return result
    if served_pattern.canonical_key() != cert.output_key:
        return _fail("served pattern disagrees with certified output key")
    return _OK


def check_oracle_table(
    source: TreePattern,
    target: TreePattern,
    table: Mapping[int, "set[int] | frozenset[int]"],
) -> CheckResult:
    """Validate a containment DP table against the Section 4 definition.

    Recomputes, by direct memoized recursion over the two patterns (no
    images sets, no bitsets — independent of both engines), whether each
    source node admits each target node, and compares the full relation
    with ``table``. Used to audit oracle-cache rows loaded from the
    persistent store.
    """
    target_nodes = list(target.nodes())

    memo: dict[tuple[int, int], bool] = {}

    def admits(v: PatternNode, u: PatternNode) -> bool:
        key = (v.id, u.id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = u.has_type(v.type) and (u.is_output or not v.is_output)
        if ok:
            for cv in v.children:
                if cv.edge is EdgeKind.CHILD:
                    if not any(admits(cv, uc) for uc in u.c_children()):
                        ok = False
                        break
                else:
                    if not any(admits(cv, ud) for ud in u.descendants()):
                        ok = False
                        break
        memo[key] = ok
        return ok

    # Seed the memo bottom-up so deep patterns do not recurse past the
    # interpreter limit: after this loop every (v, u) answer is cached.
    for v in source.postorder():
        for u in target.postorder():
            admits(v, u)

    expected: dict[int, set[int]] = {
        v.id: {u.id for u in target_nodes if memo[(v.id, u.id)]}
        for v in source.nodes()
    }
    got = {int(k): set(vals) for k, vals in table.items()}
    if expected != got:
        return _fail("oracle DP table disagrees with definition-level recursion")
    return _OK
