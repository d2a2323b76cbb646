"""The end-to-end minimization pipeline (Theorem 5.3).

The recommended way to minimize a tree pattern under integrity
constraints is **CDM followed by ACIM**: CDM cheaply strips all locally
redundant nodes, then ACIM (much more expensive per node) finishes the
job on the smaller query. Theorem 5.3 guarantees this two-stage pipeline
still produces the unique globally minimal equivalent query; the Figure
9(b) experiment quantifies the speed-up.

:func:`minimize` is the library's main entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..constraints.model import IntegrityConstraint
from ..constraints.repository import ConstraintRepository, coerce_repository
from ..constraints.closure import closure
from .acim import AcimResult, acim_minimize
from .cdm import CdmResult, cdm_minimize
from .pattern import TreePattern

__all__ = ["MinimizeResult", "minimize"]


@dataclass
class MinimizeResult:
    """Outcome of the full pipeline.

    Attributes
    ----------
    pattern:
        The unique minimal equivalent query.
    cdm / acim:
        Per-stage results (``cdm`` is ``None`` when the pre-filter was
        disabled or there were no constraints). ACIM continues in place
        on CDM's output, so ``cdm.pattern`` is ``pattern`` too; what CDM
        alone removed is ``cdm.eliminated``.
    closure_seconds:
        Time spent closing the constraint set (done once, shared by both
        stages).
    """

    pattern: TreePattern
    cdm: Optional[CdmResult] = None
    acim: Optional[AcimResult] = None
    closure_seconds: float = 0.0
    input_size: int = 0
    #: Equivalence proof for the whole run (one witness step per
    #: eliminated node) — only with ``certify=True``; see
    #: :mod:`repro.certify`.
    certificate: Optional[object] = None

    @property
    def removed_count(self) -> int:
        """Total nodes removed by both stages."""
        removed = 0
        if self.cdm is not None:
            removed += self.cdm.removed_count
        if self.acim is not None:
            removed += self.acim.removed_count
        return removed

    @property
    def total_seconds(self) -> float:
        """Closure + CDM + ACIM wall-clock time."""
        seconds = self.closure_seconds
        if self.cdm is not None:
            seconds += self.cdm.seconds
        if self.acim is not None:
            seconds += self.acim.total_seconds
        return seconds

    def summary(self) -> str:
        """One-line human-readable report."""
        cdm_n = self.cdm.removed_count if self.cdm else 0
        acim_n = self.acim.removed_count if self.acim else 0
        return (
            f"{self.input_size} -> {self.pattern.size} nodes "
            f"(CDM removed {cdm_n}, ACIM removed {acim_n}) "
            f"in {self.total_seconds * 1e3:.2f} ms"
        )


def minimize(
    pattern: TreePattern,
    constraints: "ConstraintRepository | Iterable[IntegrityConstraint] | None" = None,
    *,
    use_cdm_prefilter: bool = True,
    collect_witnesses: bool = False,
    certify: bool = False,
    seed: Optional[int] = None,
    incremental: bool = True,
) -> MinimizeResult:
    """Minimize ``pattern`` (optionally under ``constraints``).

    With constraints, runs CDM as a pre-filter and then ACIM (the paper's
    recommended configuration); without constraints this is exactly CIM.
    Set ``use_cdm_prefilter=False`` to run ACIM directly — the result is
    identical (both are the unique minimum), only slower; the Figure 9(b)
    benchmark measures the difference. ``incremental=False`` selects the
    from-scratch engine-rebuild baseline inside ACIM (see
    :func:`repro.core.cim.cim_minimize`). Minimization never consults
    the containment-oracle cache, so no cache setting changes its work.

    With ``certify=True`` the run additionally assembles a
    :class:`repro.certify.Certificate` (one witness step per eliminated
    node, plus chase provenance) into ``result.certificate``; witness
    collection is forced on in both stages.

    Returns a :class:`MinimizeResult`; the minimized query is
    ``result.pattern`` and the input is never mutated.
    """
    result = MinimizeResult(pattern=pattern, input_size=pattern.size)
    repo = coerce_repository(constraints)
    raw_digest = repo.digest() if certify else ""
    collect = collect_witnesses or certify

    if len(repo) == 0:
        # No ICs: the pipeline degenerates to plain CIM (via ACIM, which
        # adds no augmentation in this case).
        result.acim = acim_minimize(
            pattern,
            repo,
            collect_witnesses=collect,
            seed=seed,
            incremental=incremental,
        )
        result.pattern = result.acim.pattern
        if certify:
            result.certificate = _assemble_certificate(pattern, result, raw_digest)
        return result

    start = time.perf_counter()
    if not repo.is_closed:
        repo = closure(repo)
    result.closure_seconds = time.perf_counter() - start

    working = pattern
    if use_cdm_prefilter:
        result.cdm = cdm_minimize(working, repo, collect_witnesses=collect)
        working = result.cdm.pattern

    result.acim = acim_minimize(
        working,
        repo,
        collect_witnesses=collect,
        seed=seed,
        incremental=incremental,
        # CDM's output is this run's own copy: one pattern per result.
        in_place=working is not pattern,
    )
    result.pattern = result.acim.pattern
    if certify:
        result.certificate = _assemble_certificate(pattern, result, raw_digest)
    return result


def _assemble_certificate(
    input_pattern: TreePattern, result: MinimizeResult, closure_digest: str
):
    """Build the :class:`repro.certify.Certificate` for a finished run.

    CDM steps come ready-made (each carries its own step-local chase
    rows); ACIM eliminations are converted from the engine's witness
    endomorphisms, compressed to their non-identity pairs, with the
    augmentation's VirtualTarget rows attached once at certificate
    level.
    """
    from ..certify.witness import Certificate, VirtualRow, WitnessStep
    from .edges import EdgeKind
    from .fingerprint import fingerprint, subtree_keys

    steps: list[WitnessStep] = []
    if result.cdm is not None:
        steps.extend(result.cdm.witness_steps)
    virtual_rows: tuple[VirtualRow, ...] = ()
    if result.acim is not None:
        virtual_rows = tuple(
            VirtualRow(
                id=vt.id,
                node_type=vt.node_type,
                parent_id=vt.parent_id,
                edge="child" if vt.edge is EdgeKind.CHILD else "descendant",
                extra_types=tuple(sorted(vt.extra_types)),
            )
            for vt in result.acim.virtual_targets
        )
        for node_id, node_type in result.acim.eliminated:
            witness = result.acim.witnesses.get(node_id, {})
            mapping = tuple(
                sorted((src, tgt) for src, tgt in witness.items() if src != tgt)
            )
            steps.append(
                WitnessStep(
                    node_id=node_id,
                    node_type=node_type,
                    stage="acim",
                    rule="images",
                    mapping=mapping,
                )
            )
    return Certificate(
        # Unmemoized: the input is the caller's pattern.
        fingerprint=fingerprint(
            input_pattern, keys=subtree_keys(input_pattern, memoize=False)
        ),
        closure_digest=closure_digest,
        input_size=input_pattern.size,
        output_size=result.pattern.size,
        steps=tuple(steps),
        virtual_targets=virtual_rows,
        output_key=result.pattern.canonical_key(),
    )
