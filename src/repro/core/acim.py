"""Algorithm ACIM — minimization under integrity constraints (Section 5).

ACIM finds the unique minimal query equivalent to the input **under** a
set of required-child / required-descendant / co-occurrence constraints
(Theorem 5.1), in three steps:

1. **Augment** the query w.r.t. the logical closure of the ICs
   (:mod:`repro.core.chase`), marking everything added as temporary;
2. run **CIM**, never considering temporary nodes for redundancy — they
   participate only as mapping targets;
3. **strip** the temporaries.

Per Section 6.1 of the paper, step 1 never materializes the temporary
nodes: they are handed to the CIM driver as
:class:`~repro.core.images.VirtualTarget` rows living only in the images
and ancestor/descendant hash tables, and step 3 is therefore free.

The module also exposes per-phase instrumentation (:class:`AcimResult`)
used by the Figure 7(b) experiment: the fraction of ACIM's runtime spent
building the images and ancestor/descendant tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..constraints.model import IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..constraints.closure import closure
from .chase import augmentation_targets
from .cim import CimResult, cim_minimize
from .images import ImagesStats
from .pattern import TreePattern

__all__ = ["AcimResult", "acim_minimize"]


@dataclass
class AcimResult:
    """Outcome and instrumentation of an ACIM run.

    Attributes
    ----------
    pattern:
        The minimized query (a copy unless ``in_place=True``).
    eliminated:
        ``(node_id, node_type)`` pairs in elimination order.
    witnesses:
        Per eliminated node, the endomorphism certifying its redundancy
        (only when ``collect_witnesses=True``; targets may be negative =
        virtual/temporary).
    images_stats:
        Table-building vs checking time across the elimination loop.
    closure_seconds / augmentation_seconds:
        Time spent closing the IC set and computing augmentation targets.
    virtual_count:
        Number of temporary (virtual) target rows the augmentation added.
    """

    pattern: TreePattern
    eliminated: list[tuple[int, str]] = field(default_factory=list)
    witnesses: dict[int, dict[int, int]] = field(default_factory=dict)
    images_stats: ImagesStats = field(default_factory=ImagesStats)
    closure_seconds: float = 0.0
    augmentation_seconds: float = 0.0
    virtual_count: int = 0
    #: The augmentation's VirtualTarget rows (kept only when
    #: ``collect_witnesses=True``) — the chase provenance the recorded
    #: witness endomorphisms may target; consumed by certificate assembly.
    virtual_targets: tuple = ()

    @property
    def removed_count(self) -> int:
        """Number of nodes eliminated."""
        return len(self.eliminated)

    @property
    def tables_seconds(self) -> float:
        """Time building and maintaining the relation tables
        (ancestor/descendant, c-child) and the type index — the quantity
        plotted against total time in Figure 7(b). The images rows are
        built lazily inside each check's sweep and count as prune time."""
        return self.images_stats.tables_seconds

    @property
    def total_seconds(self) -> float:
        """End-to-end ACIM time: closure + augmentation + minimization."""
        return (
            self.closure_seconds
            + self.augmentation_seconds
            + self.images_stats.tables_seconds
            + self.images_stats.prune_seconds
        )


def acim_minimize(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    *,
    collect_witnesses: bool = False,
    seed: Optional[int] = None,
    incremental: bool = True,
    oracle_cache: Optional[bool] = None,
    in_place: bool = False,
) -> AcimResult:
    """Minimize ``pattern`` under ``constraints`` (Algorithm ACIM).

    With no (or empty) constraints this degenerates to plain CIM. The
    constraint set is closed automatically unless the repository is
    already marked closed.

    Parameters mirror :func:`repro.core.cim.cim_minimize`; see there for
    ``collect_witnesses``, ``seed``, ``incremental`` (one maintained
    images engine for the whole elimination loop vs the from-scratch
    rebuild-per-deletion baseline), ``oracle_cache`` (the
    sibling-subtree prune memo) and ``in_place`` (minimize ``pattern``
    itself instead of a copy).
    """
    repo = coerce_repository(constraints)
    result = AcimResult(pattern=pattern)  # placeholder, replaced below

    start = time.perf_counter()
    closed = repo if repo.is_closed else closure(repo)
    result.closure_seconds = time.perf_counter() - start

    start = time.perf_counter()
    virtual, extra_types = augmentation_targets(pattern, closed)
    working = pattern if in_place else pattern.copy()
    for node_id, types in extra_types.items():
        for t in sorted(types):
            working.add_extra_type(working.node(node_id), t)
    result.augmentation_seconds = time.perf_counter() - start
    result.virtual_count = len(virtual)
    if collect_witnesses:
        result.virtual_targets = tuple(virtual)

    cim: CimResult = cim_minimize(
        working,
        virtual=virtual,
        in_place=True,
        collect_witnesses=collect_witnesses,
        stats=result.images_stats,
        seed=seed,
        incremental=incremental,
        oracle_cache=oracle_cache,
    )
    cim.pattern.clear_extra_types()

    result.pattern = cim.pattern
    result.eliminated = cim.eliminated
    result.witnesses = cim.witnesses
    return result
