"""``repro`` — Minimization of Tree Pattern Queries.

A complete reproduction of *Amer-Yahia, Cho, Lakshmanan, Srivastava:
Minimization of Tree Pattern Queries* (ACM SIGMOD 2001): tree pattern
queries over XML/LDAP-style tree databases, the CIM / ACIM / CDM
minimization algorithms, the integrity-constraint machinery they rely on,
a pattern-matching engine, and the workload generators + benchmark
harness that regenerate every figure of the paper's evaluation.

Quickstart::

    from repro import TreePattern, minimize, parse_constraints

    q = TreePattern.build(
        ("Articles", [
            ("/", ("Article", [("//", "Paragraph")])),
            ("/", ("Article*", [("/", "Title"),
                                 ("//", ("Section", [("//", "Paragraph")]))])),
        ])
    )
    ics = parse_constraints("Article -> Title; Section ->> Paragraph")
    result = minimize(q, ics)
    print(result.summary())
    print(result.pattern.to_ascii())

See ``README.md`` for the architecture overview and ``DESIGN.md`` for the
paper-to-module map.
"""

from .errors import (
    CircuitOpenError,
    ConstraintError,
    DataModelError,
    DeadlineExceededError,
    InvalidPatternError,
    OutputNodeError,
    ParseError,
    PatternError,
    ProtocolError,
    ReproError,
    SchemaError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    StrategyError,
)
from .core import (
    CHILD,
    DESCENDANT,
    AcimResult,
    CdmResult,
    CimResult,
    ContainmentOracleCache,
    EdgeKind,
    MinimizeResult,
    OracleCacheStats,
    PatternNode,
    TreePattern,
    oracle_cache_disabled,
    set_global_enabled,
    acim_minimize,
    are_isomorphic,
    fingerprint,
    isomorphism,
    amr,
    apply_strategy,
    augment,
    cdm_minimize,
    cim_minimize,
    cim_minimize_naive,
    equivalent,
    equivalent_under,
    is_contained_in,
    is_contained_in_under,
    is_minimal,
    minimize,
)
from .constraints import (
    ConstraintKind,
    ConstraintRepository,
    IntegrityConstraint,
    closure,
    co_occurrence,
    parse_constraint,
    parse_constraints,
    required_child,
    required_descendant,
)
from .batch import (
    BatchItemResult,
    BatchMinimizer,
    BatchResult,
    BatchStats,
    WorkerPool,
    evaluate_batch,
    minimize_batch,
)
from .api import MinimizeOptions, QueryResult, Session
from .store import PersistentStore, StoreStats
from .resilience import (
    AsyncServiceClient,
    CircuitBreaker,
    ClientStats,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServiceClient,
)

__version__ = "1.2.0"

__all__ = [
    # errors
    "ReproError",
    "PatternError",
    "InvalidPatternError",
    "OutputNodeError",
    "ConstraintError",
    "ParseError",
    "SchemaError",
    "DataModelError",
    "StrategyError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ProtocolError",
    "CircuitOpenError",
    "ServiceUnavailableError",
    # unified front-door API
    "MinimizeOptions",
    "QueryResult",
    "Session",
    # persistent content-addressed cache tier
    "PersistentStore",
    "StoreStats",
    # patterns & algorithms
    "CHILD",
    "DESCENDANT",
    "EdgeKind",
    "PatternNode",
    "TreePattern",
    "are_isomorphic",
    "fingerprint",
    "isomorphism",
    "CimResult",
    "AcimResult",
    "CdmResult",
    "MinimizeResult",
    "cim_minimize",
    "cim_minimize_naive",
    "acim_minimize",
    "cdm_minimize",
    "minimize",
    "amr",
    "apply_strategy",
    "augment",
    "equivalent",
    "equivalent_under",
    "is_contained_in",
    "is_contained_in_under",
    "is_minimal",
    # containment-oracle cache
    "ContainmentOracleCache",
    "OracleCacheStats",
    "oracle_cache_disabled",
    "set_global_enabled",
    # constraints
    "ConstraintKind",
    "IntegrityConstraint",
    "ConstraintRepository",
    "closure",
    "co_occurrence",
    "required_child",
    "required_descendant",
    "parse_constraint",
    "parse_constraints",
    # batch backend
    "BatchItemResult",
    "BatchMinimizer",
    "BatchResult",
    "BatchStats",
    "WorkerPool",
    "evaluate_batch",
    "minimize_batch",
    # resilience layer
    "AsyncServiceClient",
    "CircuitBreaker",
    "ClientStats",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "ServiceClient",
    "__version__",
]
