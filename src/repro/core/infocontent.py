"""Information content of tree pattern nodes (Section 5.4/5.5).

CDM labels every node with an *information content*: a set of
*information arguments* summarizing exactly what is needed to decide,
with O(1) constraint probes, whether one of the node's children is
redundant under the ICs. An argument is one of (writing ``t`` for a type):

=========  ===========================================================
``t``      the node is of type ``t`` and unconstrained (no children)
``~t``     the node is of type ``t`` and constrained by descendants
``a t``    the node must be an ancestor of a ``t`` node that is itself
           unconstrained and a *direct* d-child — i.e., the node has a
           d-child leaf of type ``t``
``a ~t``   the node must be an ancestor of some ``t`` node, but that
           node is constrained and/or lies deeper than one step
``p t``    the node has a c-child leaf of type ``t`` (unconstrained)
``p ~t``   the node has a c-child of type ``t`` that is constrained
=========  ===========================================================

The *unconstrained* obligation forms (``a t`` / ``p t``) correspond 1:1
to direct leaf children, which are the only nodes CDM may remove; each
such argument therefore tracks the ids of the leaf children that produced
it (several same-type leaves merge into one argument with several
sources).
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

__all__ = ["ArgKind", "InfoArg", "InfoContent"]


class ArgKind(enum.Enum):
    """The three argument families."""

    #: The node's own type (``t`` / ``~t``).
    SELF = "self"
    #: Ancestor obligation (``a t`` / ``a ~t``).
    ANCESTOR = "a"
    #: Parenthood obligation (``p t`` / ``p ~t``).
    PARENT = "p"


class InfoArg:
    """One information argument.

    ``constrained`` is the tilde of the paper's notation: for SELF it
    means "this node has children"; for obligations it means the obliged
    node is constrained or lies more than one step below. Arguments are
    immutable, hashable (with a precomputed hash — contents hash these in
    tight loops), and totally ordered (SELF first, then ``a``, then ``p``;
    then by type) for deterministic iteration.
    """

    __slots__ = ("kind", "type", "constrained", "_hash")

    _KIND_ORDER = {ArgKind.SELF: 0, ArgKind.ANCESTOR: 1, ArgKind.PARENT: 2}

    def __init__(self, kind: ArgKind, type: str, constrained: bool) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "constrained", constrained)
        object.__setattr__(self, "_hash", hash((kind.value, type, constrained)))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("InfoArg is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfoArg):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.type == other.type
            and self.constrained == other.constrained
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InfoArg({self.kind!r}, {self.type!r}, {self.constrained!r})"

    def _sort_key(self) -> tuple[int, str, bool]:
        return (self._KIND_ORDER[self.kind], self.type, self.constrained)

    def __lt__(self, other: "InfoArg") -> bool:
        if not isinstance(other, InfoArg):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    @property
    def is_obligation(self) -> bool:
        """True for ``a``/``p`` arguments."""
        return self.kind is not ArgKind.SELF

    @property
    def is_removable_form(self) -> bool:
        """True for the unconstrained obligation forms ``a t`` / ``p t``,
        the only arguments whose source nodes CDM may remove."""
        return self.is_obligation and not self.constrained

    def notation(self) -> str:
        """Paper notation, e.g. ``"a ~Section"`` or ``"Paragraph"``."""
        tilde = "~" if self.constrained else ""
        if self.kind is ArgKind.SELF:
            return f"{tilde}{self.type}"
        return f"{self.kind.value} {tilde}{self.type}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.notation()


class InfoContent:
    """The information content at one node: arguments plus, for the
    removable forms, the ids of the leaf children that produced them.

    ``sources[arg]`` is a set of pattern node ids; SELF and constrained
    arguments carry an empty source set (they are never removal targets).
    CDM itself works on flat per-node state (:mod:`repro.core.cdm`) and
    renders it as an ``InfoContent`` only when asked to keep contents.
    """

    def __init__(self) -> None:
        self._sources: dict[InfoArg, set[int]] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add(self, arg: InfoArg, source: Optional[int] = None) -> None:
        """Record ``arg``; attach ``source`` (a direct leaf child id) when
        the argument is in removable form."""
        bucket = self._sources.setdefault(arg, set())
        if source is not None and arg.is_removable_form:
            bucket.add(source)

    def set_self(self, node_type: str, constrained: bool) -> None:
        """(Re)set the node's SELF argument, replacing any previous one."""
        for arg in [a for a in self._sources if a.kind is ArgKind.SELF]:
            del self._sources[arg]
        self._sources[InfoArg(ArgKind.SELF, node_type, constrained)] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def args(self) -> Iterator[InfoArg]:
        """All arguments, deterministically ordered."""
        return iter(sorted(self._sources))

    def self_arg(self) -> Optional[InfoArg]:
        """The SELF argument (None only before :meth:`set_self`)."""
        for arg in self._sources:
            if arg.kind is ArgKind.SELF:
                return arg
        return None

    def sources_of(self, arg: InfoArg) -> set[int]:
        """Live source leaf-children of a removable argument."""
        return self._sources.get(arg, set())

    def has(self, arg: InfoArg) -> bool:
        """Whether ``arg`` is (still) part of the content."""
        return arg in self._sources

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def notation(self) -> str:
        """Paper-style rendering, e.g. ``"~t1, p ~t2, a ~t5, a ~t6"``."""
        ordered = sorted(self._sources, key=lambda a: (a.kind is not ArgKind.SELF, a))
        return ", ".join(a.notation() for a in ordered)

    def __len__(self) -> int:
        return len(self._sources)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<InfoContent {self.notation()}>"
