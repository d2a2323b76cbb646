"""Witness certificates for minimization answers.

A :class:`Certificate` is a small, portable proof that a minimized query
is equivalent to its input under a named constraint closure: one
:class:`WitnessStep` per eliminated node, each carrying the containment
mapping (an endomorphism of the pattern state at that step, recorded as
its non-identity pairs) that justified the deletion, plus the
chase/:class:`~repro.core.images.VirtualTarget` provenance the mapping
relies on (:class:`VirtualRow`).

The step chain proves equivalence by transitivity: for each step
``P_k -> P_{k+1} = P_k - [l]``, the direction ``P_k ⊆ P_{k+1}`` is the
identity embedding (``P_{k+1}`` is a sub-pattern, so the identity is a
containment mapping ``P_{k+1} → P_k``), and the recorded witness is a
containment mapping ``P_k → chase(P_{k+1})`` proving ``P_{k+1} ⊆ P_k``
under the ICs. The certificate additionally binds the endpoints: the
input's structural fingerprint, the output's canonical key, and the
digest of the constraint repository the chase provenance was drawn from.

This module is deliberately dependency-free (plain dataclasses and JSON)
so that the independent checker (:mod:`repro.certify.checker`) and the
producing minimizers (:mod:`repro.core.cim` / :mod:`repro.core.cdm` /
:mod:`repro.core.pipeline`) share only the certificate *format*, never
engine code.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["VirtualRow", "WitnessStep", "Certificate", "CERTIFICATE_VERSION"]

#: Bumped whenever the serialized certificate shape changes; the checker
#: rejects versions it does not understand instead of guessing.
CERTIFICATE_VERSION = 1

#: Edge spellings used in serialized rows (kept as plain strings so the
#: certificate format has no dependency on :mod:`repro.core.edges`).
EDGE_CHILD = "child"
EDGE_DESCENDANT = "descendant"


@dataclass(frozen=True)
class VirtualRow:
    """One chase-implied node a witness mapping may target.

    Mirrors :class:`repro.core.images.VirtualTarget` structurally but is
    an independent serializable record: ``id`` is negative (disjoint from
    real pattern node ids), ``parent_id`` is the anchor (a real node id,
    or an earlier virtual row's id for chained witness subtrees), and
    ``edge`` is ``"child"`` for a required-child implication
    (``t1 -> t2``) or ``"descendant"`` for a required-descendant one
    (``t1 ->> t2``). ``extra_types`` are co-occurrence types the implied
    node must also carry.
    """

    id: int
    node_type: str
    parent_id: int
    edge: str
    extra_types: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "type": self.node_type,
            "parent": self.parent_id,
            "edge": self.edge,
            "extra": list(self.extra_types),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "VirtualRow":
        return cls(
            id=int(data["id"]),
            node_type=str(data["type"]),
            parent_id=int(data["parent"]),
            edge=str(data["edge"]),
            extra_types=tuple(str(t) for t in data.get("extra", ())),
        )


#: One object per distinct remapped row, alive while any certificate
#: holds it. Replays re-anchor the same few rows on the same few node
#: ids over and over, and rows are immutable values, so a remapped
#: certificate shares its rows instead of allocating its own; certified
#: answers retained by a caller then cost a fraction of the memory.
_SHARED_ROWS: "weakref.WeakValueDictionary[tuple, VirtualRow]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True)
class WitnessStep:
    """The proof for one elimination.

    ``mapping`` records the witness endomorphism as its *non-identity*
    pairs only (every unmentioned live node maps to itself); negative
    targets refer to virtual rows — the certificate-level
    ``virtual_targets`` for ``stage="acim"`` steps, the step-local
    ``virtuals`` for ``stage="cdm"`` steps. ``rule`` names the CDM rule
    family that fired, or ``"images"`` for CIM/ACIM eliminations
    certified by the images engine.
    """

    node_id: int
    node_type: str
    stage: str  # "cdm" | "acim"
    rule: str
    mapping: tuple[tuple[int, int], ...] = ()
    virtuals: tuple[VirtualRow, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "type": self.node_type,
            "stage": self.stage,
            "rule": self.rule,
            "mapping": [list(pair) for pair in self.mapping],
            "virtuals": [row.to_json() for row in self.virtuals],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "WitnessStep":
        return cls(
            node_id=int(data["node"]),
            node_type=str(data["type"]),
            stage=str(data["stage"]),
            rule=str(data["rule"]),
            mapping=tuple(
                (int(src), int(tgt)) for src, tgt in data.get("mapping", ())
            ),
            virtuals=tuple(
                VirtualRow.from_json(row) for row in data.get("virtuals", ())
            ),
        )


#: One object per distinct remapped certificate, alive while any caller
#: holds it, for the same reason as :data:`_SHARED_ROWS`: a structure
#: replayed onto the same node ids under the same closure yields the
#: same certificate every time.
_SHARED_CERTIFICATES: "weakref.WeakValueDictionary[tuple, Certificate]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True)
class Certificate:
    """A checkable equivalence proof for one minimization answer.

    Attributes
    ----------
    fingerprint:
        Structural fingerprint of the *input* pattern
        (:func:`repro.core.fingerprint.fingerprint`).
    closure_digest:
        :meth:`~repro.constraints.repository.ConstraintRepository.digest`
        of the constraint repository (as handed to the pipeline, before
        closing) that every chase/virtual provenance claim is made
        against.
    input_size / output_size:
        Node counts of the input and minimized patterns.
    steps:
        One :class:`WitnessStep` per eliminated node, in elimination
        order (CDM steps first, then ACIM steps — the pipeline order).
    virtual_targets:
        The ACIM augmentation rows (Section 5.2 / 6.1) shared by every
        ``stage="acim"`` step's mapping.
    output_key:
        Canonical key of the minimized pattern; binds the certificate to
        the answer actually served.
    """

    fingerprint: str
    closure_digest: str
    input_size: int
    output_size: int
    steps: tuple[WitnessStep, ...] = ()
    virtual_targets: tuple[VirtualRow, ...] = ()
    output_key: str = ""
    version: int = CERTIFICATE_VERSION

    @property
    def eliminated(self) -> tuple[tuple[int, str], ...]:
        """The ``(node_id, node_type)`` elimination sequence the
        certificate certifies — compared verbatim against the replay
        recipe it travels with."""
        return tuple((s.node_id, s.node_type) for s in self.steps)

    def remapped(self, id_map: Mapping[int, int]) -> "Certificate":
        """The same certificate with real node ids translated through
        ``id_map`` (virtual ids pass through unchanged).

        Used when a memoized answer is replayed onto an isomorphic
        pattern with different node ids: the witness proof carries over
        through the isomorphism.
        """

        def real(i: int) -> int:
            return id_map.get(i, i) if i >= 0 else i

        def row_of(row: VirtualRow) -> VirtualRow:
            parent_id = real(row.parent_id)
            key = (row.id, row.node_type, parent_id, row.edge, row.extra_types)
            shared = _SHARED_ROWS.get(key)
            if shared is None:
                shared = _SHARED_ROWS[key] = VirtualRow(*key)
            return shared

        steps = tuple(
            WitnessStep(
                node_id=real(s.node_id),
                node_type=s.node_type,
                stage=s.stage,
                rule=s.rule,
                mapping=tuple((real(a), real(b)) for a, b in s.mapping),
                virtuals=tuple(row_of(row) for row in s.virtuals),
            )
            for s in self.steps
        )
        virtual_targets = tuple(row_of(row) for row in self.virtual_targets)
        key = (
            self.fingerprint,
            self.closure_digest,
            self.input_size,
            self.output_size,
            steps,
            virtual_targets,
            self.output_key,
            self.version,
        )
        shared = _SHARED_CERTIFICATES.get(key)
        if shared is None:
            shared = _SHARED_CERTIFICATES[key] = Certificate(*key)
        return shared

    def to_json(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "closure_digest": self.closure_digest,
            "input_size": self.input_size,
            "output_size": self.output_size,
            "steps": [s.to_json() for s in self.steps],
            "virtual_targets": [row.to_json() for row in self.virtual_targets],
            "output_key": self.output_key,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Certificate":
        return cls(
            fingerprint=str(data["fingerprint"]),
            closure_digest=str(data["closure_digest"]),
            input_size=int(data["input_size"]),
            output_size=int(data["output_size"]),
            steps=tuple(WitnessStep.from_json(s) for s in data.get("steps", ())),
            virtual_targets=tuple(
                VirtualRow.from_json(row) for row in data.get("virtual_targets", ())
            ),
            output_key=str(data.get("output_key", "")),
            version=int(data.get("version", CERTIFICATE_VERSION)),
        )
