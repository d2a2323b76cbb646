"""Integrity constraints over tree-structured databases (Section 2.2).

Three constraint forms are supported, exactly the class the paper's
results cover:

* **required child** ``t1 -> t2``: every node of type ``t1`` has a child
  of type ``t2``;
* **required descendant** ``t1 ->> t2``: every node of type ``t1`` has a
  proper descendant of type ``t2``;
* **co-occurrence** ``t1 ~ t2``: every node of type ``t1`` is *also* of
  type ``t2`` (directional — e.g. every ``Employee`` entry is a
  ``Person``).

Constraints are immutable value objects with a stable textual notation
(mirroring Figure 1(b) of the paper) and a parser for that notation.
Their types follow the type-name rule of patterns
(:data:`repro.core.fingerprint.TYPE_NAME`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.fingerprint import TYPE_NAME_RULE, is_type_name
from ..errors import ConstraintError

__all__ = [
    "ConstraintKind",
    "IntegrityConstraint",
    "required_child",
    "required_descendant",
    "co_occurrence",
    "parse_constraint",
    "parse_constraints",
]


class ConstraintKind(enum.Enum):
    """The three constraint forms of the paper."""

    REQUIRED_CHILD = "->"
    REQUIRED_DESCENDANT = "->>"
    CO_OCCURRENCE = "~"

    @property
    def notation(self) -> str:
        """Infix operator used in the textual form."""
        return self.value


@dataclass(frozen=True)
class IntegrityConstraint:
    """One integrity constraint ``source <op> target``.

    Instances are hashable and totally ordered (by source, operator,
    target), so they can live in sets and produce deterministic listings.
    """

    kind: ConstraintKind
    source: str
    target: str

    def _sort_key(self) -> tuple[str, str, str]:
        return (self.source, self.kind.value, self.target)

    def __lt__(self, other: "IntegrityConstraint") -> bool:
        if not isinstance(other, IntegrityConstraint):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __post_init__(self) -> None:
        if not (is_type_name(self.source) and is_type_name(self.target)):
            bad = self.target if is_type_name(self.source) else self.source
            raise ConstraintError(f"bad constraint type {bad!r}: expected {TYPE_NAME_RULE}")
        if self.kind is ConstraintKind.CO_OCCURRENCE and self.source == self.target:
            raise ConstraintError(f"trivial co-occurrence constraint {self.source} ~ {self.target}")

    @property
    def is_required_child(self) -> bool:
        """True for ``t1 -> t2``."""
        return self.kind is ConstraintKind.REQUIRED_CHILD

    @property
    def is_required_descendant(self) -> bool:
        """True for ``t1 ->> t2``."""
        return self.kind is ConstraintKind.REQUIRED_DESCENDANT

    @property
    def is_co_occurrence(self) -> bool:
        """True for ``t1 ~ t2``."""
        return self.kind is ConstraintKind.CO_OCCURRENCE

    def notation(self) -> str:
        """Textual form, e.g. ``"Book -> Title"``."""
        return f"{self.source} {self.kind.notation} {self.target}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.notation()


def required_child(source: str, target: str) -> IntegrityConstraint:
    """``source -> target``: every source node has a child of type target."""
    return IntegrityConstraint(ConstraintKind.REQUIRED_CHILD, source, target)


def required_descendant(source: str, target: str) -> IntegrityConstraint:
    """``source ->> target``: every source node has a proper descendant of
    type target."""
    return IntegrityConstraint(ConstraintKind.REQUIRED_DESCENDANT, source, target)


def co_occurrence(source: str, target: str) -> IntegrityConstraint:
    """``source ~ target``: every source node is also of type target."""
    return IntegrityConstraint(ConstraintKind.CO_OCCURRENCE, source, target)


def parse_constraint(text: str) -> IntegrityConstraint:
    """Parse ``"A -> B"``, ``"A ->> B"``, or ``"A ~ B"``.

    Whitespace around the operator is optional. Raises
    :class:`~repro.errors.ConstraintError` on malformed input.
    """
    # Try the longest operator first so "->>" is not read as "->" + ">".
    for op, kind in (
        ("->>", ConstraintKind.REQUIRED_DESCENDANT),
        ("->", ConstraintKind.REQUIRED_CHILD),
        ("~", ConstraintKind.CO_OCCURRENCE),
    ):
        if op in text:
            source, _, target = text.partition(op)
            source, target = source.strip(), target.strip()
            if not source or not target:
                raise ConstraintError(f"malformed constraint: {text!r}")
            return IntegrityConstraint(kind, source, target)
    raise ConstraintError(
        f"no constraint operator ('->', '->>', '~') found in {text!r}"
    )


def parse_constraints(lines: str) -> list[IntegrityConstraint]:
    """Parse a newline/semicolon-separated block of constraints.

    Blank lines and ``#`` comments are ignored.
    """
    constraints: list[IntegrityConstraint] = []
    for raw in lines.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            constraints.append(parse_constraint(line))
    return constraints
