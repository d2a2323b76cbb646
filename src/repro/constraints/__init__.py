"""Integrity constraints: model, hash-indexed repository, closure, inference.

The constraint class covered by the paper's results: required child
(``t1 -> t2``), required descendant (``t1 ->> t2``), and co-occurrence
(``t1 ~ t2``). See :mod:`repro.constraints.model` for the notation and
:mod:`repro.constraints.inference` for deriving constraints from schemas
(Section 2.2 of the paper).
"""

from .model import (
    ConstraintKind,
    IntegrityConstraint,
    co_occurrence,
    parse_constraint,
    parse_constraints,
    required_child,
    required_descendant,
)
from .repository import (
    ConstraintRepository,
    RepositoryUpdate,
    coerce_constraints,
    coerce_repository,
)
from .closure import closure, extend_closure, implied_by, reverse_implied_by

__all__ = [
    "ConstraintKind",
    "IntegrityConstraint",
    "co_occurrence",
    "parse_constraint",
    "parse_constraints",
    "required_child",
    "required_descendant",
    "ConstraintRepository",
    "RepositoryUpdate",
    "coerce_constraints",
    "coerce_repository",
    "closure",
    "extend_closure",
    "implied_by",
    "reverse_implied_by",
]
