"""Hash-indexed constraint repository (Section 6.1 of the paper).

The minimization algorithms probe constraints with O(1) point lookups —
"is ``t1 -> t2`` known?", "which types must occur under ``t1``?" — so the
repository keeps four hash indexes:

* ``(kind, source, target)`` membership (a set of constraints);
* ``(kind, source) -> {targets}`` for augmentation fan-out;
* ``(kind, target) -> {sources}`` for incremental closure (reverse rule
  application when a constraint arrives as the *second* premise);
* ``source -> {constraints}`` for relevance filtering.

This is exactly why CDM's running time is independent of the repository
size (Figure 8(a)): every rule application is one hash probe keyed by the
pair of types in a node's information content.

Facts about the whole set — the sorted constraint tuple behind iteration,
:meth:`ConstraintRepository.digest`, which kinds occur, the type set and
:meth:`ConstraintRepository.finitely_satisfiable` — are computed on first
use and kept until the set next changes: the private writers
(``_insert``, ``_remove``, ``_adopt``) drop them. A closed repository
therefore pays for each once per closure, and the query path reads them
in O(1) instead of sorting, scanning or hashing the closure per query.

Lifecycle
---------
A repository is **open** while it is being populated and becomes
**closed** once :func:`repro.constraints.closure.closure` has
materialized every implied constraint. The closed set's
:meth:`ConstraintRepository.digest` keys every cached minimization proof
(fingerprint memo, persistent store), so mutating a closed repository in
place would silently corrupt those caches. Direct mutation of a closed
repository therefore raises
:class:`~repro.errors.RepositoryClosedError`; the one sanctioned path is
:meth:`ConstraintRepository.begin_update`, which stages adds/drops,
recomputes the closure (incrementally for pure additions), re-marks the
repository closed, and reports the new digest::

    with repo.begin_update() as update:
        update.add(parse_constraint("Book -> Title"))
        update.drop(parse_constraint("A ~ B"))
    print(update.old_digest, "->", update.new_digest, update.mode)

The repository distinguishes **base** constraints (asserted by the
caller) from **derived** ones (materialized by closure): drops apply to
base constraints only — a derived constraint cannot be dropped because
the surviving base would simply re-imply it — and a dropped base
constraint that is still implied by the remaining base reappears as a
derived constraint after the recompute.
"""

from __future__ import annotations

import hashlib
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, TypeVar

from ..errors import ConstraintError, RepositoryClosedError
from .model import ConstraintKind, IntegrityConstraint, parse_constraints

__all__ = [
    "ConstraintRepository",
    "RepositoryUpdate",
    "coerce_constraints",
    "coerce_repository",
]

_T = TypeVar("_T")

#: What :meth:`ConstraintRepository.sources` returns for a
#: ``(kind, target)`` pair the reverse index does not hold.
_NO_TYPES: frozenset[str] = frozenset()


class ConstraintRepository:
    """A set of integrity constraints with hash indexes.

    Parameters
    ----------
    constraints:
        Initial constraints (duplicates are collapsed). They are recorded
        as *base* constraints — the caller-asserted facts that closure
        and :meth:`begin_update` derive from.
    closed:
        Marks the repository as logically closed. The minimizers require a
        closed repository; :meth:`closure` produces one (see
        :mod:`repro.constraints.closure`).
    """

    def __init__(
        self, constraints: Iterable[IntegrityConstraint] = (), *, closed: bool = False
    ) -> None:
        self._all: set[IntegrityConstraint] = set()
        self._targets: dict[tuple[ConstraintKind, str], set[str]] = {}
        self._sources: dict[tuple[ConstraintKind, str], set[str]] = {}
        self._by_source: dict[str, set[IntegrityConstraint]] = {}
        self._base: set[IntegrityConstraint] = set()
        #: Whole-set facts by name (see the module docstring); emptied by
        #: every write to ``_all``.
        self._facts: dict[str, object] = {}
        self._closed = False
        for c in constraints:
            self._insert(c, base=True)
        self._closed = closed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, constraint: IntegrityConstraint) -> bool:
        """Insert a *base* constraint; return True if it was new.

        Raises
        ------
        RepositoryClosedError
            When the repository is closed — its digest keys cached
            proofs; mutate through :meth:`begin_update` instead.
        """
        self._check_open("add")
        return self._insert(constraint, base=True)

    def update(self, constraints: Iterable[IntegrityConstraint]) -> int:
        """Insert many base constraints; return how many were new.

        Raises :class:`~repro.errors.RepositoryClosedError` on a closed
        repository, exactly like :meth:`add`.
        """
        self._check_open("update")
        return sum(1 for c in constraints if self._insert(c, base=True))

    def discard(self, constraint: IntegrityConstraint) -> bool:
        """Remove a constraint from an *open* repository; True if present.

        Raises :class:`~repro.errors.RepositoryClosedError` on a closed
        repository — use :meth:`begin_update` (whose ``drop`` also
        recomputes the closure) instead.
        """
        self._check_open("discard")
        if constraint not in self._all:
            return False
        self._remove(constraint)
        return True

    def begin_update(self) -> "RepositoryUpdate":
        """Stage a constraint mutation; the only path that may cross the
        closed-repository boundary.

        Returns a :class:`RepositoryUpdate` context manager. Stage
        constraints with ``update.add(...)`` / ``update.drop(...)``; on
        clean exit the mutation is applied **in place**, the closure is
        recomputed (incrementally when only additions were staged), the
        repository is re-marked closed, and ``update.new_digest`` holds
        the digest of the new closed set. Callers that need the previous
        epoch intact (e.g. to keep serving in-flight work under the old
        closure) should ``copy()`` first and update the copy.
        """
        return RepositoryUpdate(self)

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise RepositoryClosedError(
                f"cannot {op}() on a closed ConstraintRepository: its digest "
                "keys cached minimization proofs. Stage the change through "
                "repository.begin_update() instead (see "
                "repro.constraints.repository)"
            )

    def _insert(self, constraint: IntegrityConstraint, *, base: bool) -> bool:
        """Index insertion (no lifecycle checks); True if new.

        ``base=False`` is the closure machinery's path for derived
        constraints; a repeated base insert of an existing derived
        constraint still promotes it to base.
        """
        if base:
            self._base.add(constraint)
        if constraint in self._all:
            return False
        self._all.add(constraint)
        self._facts.clear()
        self._targets.setdefault((constraint.kind, constraint.source), set()).add(
            constraint.target
        )
        self._sources.setdefault((constraint.kind, constraint.target), set()).add(
            constraint.source
        )
        self._by_source.setdefault(constraint.source, set()).add(constraint)
        return True

    def _remove(self, constraint: IntegrityConstraint) -> None:
        self._all.discard(constraint)
        self._facts.clear()
        self._base.discard(constraint)
        for index, key, member in (
            (self._targets, (constraint.kind, constraint.source), constraint.target),
            (self._sources, (constraint.kind, constraint.target), constraint.source),
        ):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(member)
                if not bucket:
                    del index[key]
        bucket = self._by_source.get(constraint.source)
        if bucket is not None:
            bucket.discard(constraint)
            if not bucket:
                del self._by_source[constraint.source]

    def _adopt(self, other: "ConstraintRepository") -> None:
        """Take over ``other``'s indexes wholesale (post-recompute swap)."""
        self._all = other._all
        self._targets = other._targets
        self._sources = other._sources
        self._by_source = other._by_source
        self._base = other._base
        self._facts = {}
        self._closed = other._closed

    def _mark_closed(self) -> None:
        """Internal: flag this repository as logically closed."""
        self._closed = True

    def _fact(self, name: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, kept under ``name`` until the set next changes."""
        facts = self._facts
        if name not in facts:
            facts[name] = compute()
        return facts[name]

    # ------------------------------------------------------------------
    # Point lookups (all O(1))
    # ------------------------------------------------------------------

    def has(self, kind: ConstraintKind, source: str, target: str) -> bool:
        """Membership test for one constraint."""
        return target in self._targets.get((kind, source), ())

    def has_required_child(self, source: str, target: str) -> bool:
        """Whether ``source -> target`` is in the repository."""
        return self.has(ConstraintKind.REQUIRED_CHILD, source, target)

    def has_required_descendant(self, source: str, target: str) -> bool:
        """Whether ``source ->> target`` is in the repository."""
        return self.has(ConstraintKind.REQUIRED_DESCENDANT, source, target)

    def has_co_occurrence(self, source: str, target: str) -> bool:
        """Whether ``source ~ target`` is in the repository (directional)."""
        return self.has(ConstraintKind.CO_OCCURRENCE, source, target)

    def targets(self, kind: ConstraintKind, source: str) -> frozenset[str]:
        """All ``t2`` with ``source <kind> t2`` in the repository."""
        return frozenset(self._targets.get((kind, source), ()))

    def sources(self, kind: ConstraintKind, target: str) -> AbstractSet[str]:
        """All ``t1`` with ``t1 <kind> target`` in the repository (the
        reverse index; incremental closure applies the binary inference
        rules through it when a new constraint is the second premise, and
        CDM finds a justifier by intersecting it with a node's types).

        The index bucket itself, not a copy, since both read it in hot
        loops: do not mutate it, or keep it across a write."""
        return self._sources.get((kind, target), _NO_TYPES)

    def required_children_of(self, source: str) -> frozenset[str]:
        """Types required as children of ``source``."""
        return self.targets(ConstraintKind.REQUIRED_CHILD, source)

    def required_descendants_of(self, source: str) -> frozenset[str]:
        """Types required as descendants of ``source``."""
        return self.targets(ConstraintKind.REQUIRED_DESCENDANT, source)

    def co_occurring_with(self, source: str) -> frozenset[str]:
        """Types every ``source`` node must also carry."""
        return self.targets(ConstraintKind.CO_OCCURRENCE, source)

    def constraints_from(self, source: str) -> frozenset[IntegrityConstraint]:
        """All constraints whose left-hand type is ``source``."""
        return frozenset(self._by_source.get(source, ()))

    # ------------------------------------------------------------------
    # Whole-set views
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """Whether this repository is known to be logically closed."""
        return self._closed

    @property
    def base(self) -> frozenset[IntegrityConstraint]:
        """The caller-asserted constraints (closure derives the rest)."""
        return frozenset(self._base)

    def relevant_to(self, types: Iterable[str]) -> "ConstraintRepository":
        """The sub-repository of constraints whose source type occurs in
        ``types`` (the paper's "constraints relevant to the query")."""
        type_set = set(types)
        return ConstraintRepository(
            c for c in self._all if c.source in type_set
        )

    def copy(self) -> "ConstraintRepository":
        """An independent copy (preserves the closed flag, the
        base/derived split and the whole-set facts already computed)."""
        clone = ConstraintRepository(self._all)
        clone._base = set(self._base)
        clone._facts = dict(self._facts)
        clone._closed = self._closed
        return clone

    def types(self) -> frozenset[str]:
        """All type names mentioned by any constraint."""
        return self._fact(
            "types",
            lambda: frozenset(t for c in self._all for t in (c.source, c.target)),
        )

    def has_kind(self, kind: ConstraintKind) -> bool:
        """Whether any constraint of ``kind`` is in the repository."""
        return kind in self._fact("kinds", lambda: frozenset(c.kind for c in self._all))

    def finitely_satisfiable(self) -> bool:
        """Whether some finite database can contain nodes of every
        mentioned type: in the closure, no type may require a child or
        descendant of its own type. Degenerate sets make the mentioned
        types necessarily empty and reduce equivalence-under-constraints
        to vacuous truth. An open repository is closed first (the
        closure is not kept)."""
        return self._fact("finite", self._finitely_satisfiable)

    def _finitely_satisfiable(self) -> bool:
        if not self._closed:
            from .closure import closure

            return closure(self).finitely_satisfiable()
        return all(
            not self.has_required_child(t, t) and not self.has_required_descendant(t, t)
            for t in self.types()
        )

    def __contains__(self, constraint: object) -> bool:
        return constraint in self._all

    def __iter__(self) -> Iterator[IntegrityConstraint]:
        return iter(self._fact("sorted", lambda: tuple(sorted(self._all))))

    def __len__(self) -> int:
        return len(self._all)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintRepository):
            return NotImplemented
        return self._all == other._all

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        closed = ", closed" if self._closed else ""
        return f"<ConstraintRepository {len(self._all)} constraints{closed}>"

    def notation(self, sep: str = "; ") -> str:
        """All constraints in textual notation, deterministically ordered."""
        return sep.join(c.notation() for c in self)

    def digest(self) -> str:
        """A content digest of this repository: sha256 over the sorted
        textual notation.

        The persistent store (:mod:`repro.store`) versions minimization
        records by the digest of the *closed* repository they were proven
        under, so any IC change — which changes the closure, hence the
        digest — invalidates exactly the records whose proofs it could
        affect and no others. Computed once per set (module docstring).
        """
        return self._fact(
            "digest",
            lambda: hashlib.sha256(self.notation("\n").encode("utf-8")).hexdigest(),
        )


class RepositoryUpdate:
    """A staged add/drop mutation of one :class:`ConstraintRepository`.

    Produced by :meth:`ConstraintRepository.begin_update`; usable as a
    context manager (committed on clean exit) or imperatively via
    :meth:`commit`. After commit the target repository is **closed**
    regardless of its prior state, and these fields describe what
    happened:

    Attributes
    ----------
    old_digest / new_digest:
        The repository digest before staging and after the recompute
        (equal when the update was a no-op).
    added / dropped:
        The base constraints actually inserted / removed (staged
        constraints already present / already absent are skipped).
    mode:
        ``"incremental"`` — additions only against an already-closed
        repository, propagated by the semi-naive worklist
        (:func:`repro.constraints.closure.extend_closure`);
        ``"full"`` — any drop (or an open repository) forces a closure
        recompute from the surviving base; ``"noop"`` — nothing changed.
    """

    def __init__(self, repository: ConstraintRepository) -> None:
        self._repository = repository
        self._adds: list[IntegrityConstraint] = []
        self._drops: list[IntegrityConstraint] = []
        self._committed = False
        self.old_digest: str = repository.digest()
        self.new_digest: Optional[str] = None
        self.added: list[IntegrityConstraint] = []
        self.dropped: list[IntegrityConstraint] = []
        self.mode: Optional[str] = None

    def add(self, constraint: IntegrityConstraint) -> "RepositoryUpdate":
        """Stage a base-constraint insertion; returns self for chaining."""
        self._stageable("add")
        self._adds.append(constraint)
        return self

    def drop(self, constraint: IntegrityConstraint) -> "RepositoryUpdate":
        """Stage a base-constraint removal; returns self for chaining."""
        self._stageable("drop")
        self._drops.append(constraint)
        return self

    def _stageable(self, op: str) -> None:
        if self._committed:
            raise ConstraintError(
                f"cannot {op}() through an already-committed RepositoryUpdate"
            )

    def __enter__(self) -> "RepositoryUpdate":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()

    def commit(self) -> "RepositoryUpdate":
        """Apply the staged mutation and recompute the closure in place."""
        from .closure import closure, extend_closure

        self._stageable("commit")
        self._committed = True
        repo = self._repository
        overlap = set(self._adds) & set(self._drops)
        if overlap:
            names = ", ".join(c.notation() for c in sorted(overlap))
            raise ConstraintError(
                f"constraint(s) both added and dropped in one update: {names}"
            )
        dropped: list[IntegrityConstraint] = []
        for c in dict.fromkeys(self._drops):
            if c in repo._base:
                dropped.append(c)
            elif c in repo._all:
                raise ConstraintError(
                    f"cannot drop derived constraint {c.notation()!r}: it is "
                    "implied by the base constraints, not asserted directly "
                    "(drop the implying base constraints instead)"
                )
            # Absent constraints are skipped, keeping repeated application
            # of the same update idempotent.
        added = [c for c in dict.fromkeys(self._adds) if c not in repo._base]
        self.dropped = dropped
        self.added = added
        drop_set = set(dropped)

        if dropped or not repo._closed:
            # A drop can strand derived constraints, and an open repository
            # has no closure to extend: recompute from the surviving base.
            new_base = [c for c in sorted(repo._base) if c not in drop_set]
            new_base.extend(added)
            repo._adopt(closure(ConstraintRepository(new_base)))
            self.mode = "full"
        elif added:
            repo._closed = False
            extend_closure(repo, added)
            repo._mark_closed()
            self.mode = "incremental"
        else:
            self.mode = "noop"
        repo._mark_closed()
        self.new_digest = repo.digest()
        return self


def coerce_constraints(
    spec: "Iterable[IntegrityConstraint | str] | IntegrityConstraint | str | None",
) -> list[IntegrityConstraint]:
    """Constraint objects, notation strings (``"A -> B; C ~ D"``), or
    iterables mixing both, normalized to a list of constraints.

    Raises :class:`TypeError` for an item that is neither."""
    if spec is None:
        return []
    if isinstance(spec, IntegrityConstraint):
        return [spec]
    if isinstance(spec, str):
        return parse_constraints(spec)
    out: list[IntegrityConstraint] = []
    for item in spec:
        if isinstance(item, IntegrityConstraint):
            out.append(item)
        elif isinstance(item, str):
            out.extend(parse_constraints(item))
        else:
            raise TypeError(
                "constraints must be IntegrityConstraint objects or notation "
                f"strings, got {type(item).__name__}"
            )
    return out


def coerce_repository(
    constraints: (
        "ConstraintRepository | Iterable[IntegrityConstraint | str] | str | None"
    ),
) -> ConstraintRepository:
    """Accept a repository, ``None`` (empty), or anything
    :func:`coerce_constraints` accepts, and return a
    :class:`ConstraintRepository`. Every public constraint argument goes
    through here, so callers can pass plain lists or notation strings."""
    if constraints is None:
        return ConstraintRepository()
    if isinstance(constraints, ConstraintRepository):
        return constraints
    return ConstraintRepository(coerce_constraints(constraints))
