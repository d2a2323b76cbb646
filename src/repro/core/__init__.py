"""Core algorithms: tree patterns, containment, CIM, ACIM, CDM.

This subpackage implements the paper's primary contribution. The usual
entry points are:

* :class:`~repro.core.pattern.TreePattern` — the query representation;
* :func:`~repro.core.pipeline.minimize` — CDM + ACIM pipeline (the
  recommended minimizer);
* :func:`~repro.core.cim.cim_minimize`,
  :func:`~repro.core.acim.acim_minimize`,
  :func:`~repro.core.cdm.cdm_minimize` — the individual algorithms;
* :mod:`~repro.core.containment` — the containment-mapping oracle.
"""

from .edges import CHILD, DESCENDANT, EdgeKind
from .node import PatternNode
from .pattern import TreePattern
from .fingerprint import are_isomorphic, fingerprint, isomorphism
from .oracle_cache import (
    ContainmentOracleCache,
    OracleCacheStats,
    global_cache,
    oracle_cache_disabled,
    reset_global_cache,
    set_global_enabled,
)
from .containment import (
    ContainmentStats,
    equivalent,
    find_containment_mapping,
    has_containment_mapping,
    is_contained_in,
)
from .images import ImagesStats, VirtualTarget
from .flat import FlatImagesEngine
from .cim import CimResult, cim_minimize, is_minimal
from .cim_naive import cim_minimize_naive
from .normalize import DedupResult, dedup_siblings
from .chase import augment, augmentation_targets, chase
from .acim import AcimResult, acim_minimize
from .infocontent import ArgKind, InfoArg, InfoContent
from .cdm import CdmResult, cdm_minimize
from .reduction import is_directly_implied, reduce_pattern
from .strategy import OPTIMAL_STRATEGY, amr, apply_strategy
from .canonical import canonical_answer, canonical_instance, canonical_instances
from .ic_containment import equivalent_under, finitely_satisfiable, is_contained_in_under
from .pipeline import MinimizeResult, minimize

__all__ = [
    "CHILD",
    "DESCENDANT",
    "EdgeKind",
    "PatternNode",
    "TreePattern",
    "are_isomorphic",
    "fingerprint",
    "isomorphism",
    "ContainmentOracleCache",
    "OracleCacheStats",
    "global_cache",
    "oracle_cache_disabled",
    "reset_global_cache",
    "set_global_enabled",
    "ContainmentStats",
    "equivalent",
    "find_containment_mapping",
    "has_containment_mapping",
    "is_contained_in",
    "FlatImagesEngine",
    "ImagesStats",
    "VirtualTarget",
    "CimResult",
    "cim_minimize",
    "cim_minimize_naive",
    "is_minimal",
    "DedupResult",
    "dedup_siblings",
    "augment",
    "augmentation_targets",
    "chase",
    "AcimResult",
    "acim_minimize",
    "ArgKind",
    "InfoArg",
    "InfoContent",
    "CdmResult",
    "cdm_minimize",
    "is_directly_implied",
    "reduce_pattern",
    "OPTIMAL_STRATEGY",
    "amr",
    "apply_strategy",
    "MinimizeResult",
    "minimize",
    "equivalent_under",
    "finitely_satisfiable",
    "is_contained_in_under",
    "canonical_answer",
    "canonical_instance",
    "canonical_instances",
]
