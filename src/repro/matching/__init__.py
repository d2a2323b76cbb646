"""Pattern matching engine: embeddings, evaluation, IC satisfaction."""

from .indexes import DataIndex
from .embeddings import Embedding, EmbeddingEngine
from .evaluator import agree_on, count_embeddings, evaluate, evaluate_nodes, matches
from .satisfaction import Violation, satisfies, violations
from .stats import DocumentStatistics, estimate_cost, measured_cost

__all__ = [
    "DataIndex",
    "Embedding",
    "EmbeddingEngine",
    "agree_on",
    "count_embeddings",
    "evaluate",
    "evaluate_nodes",
    "matches",
    "Violation",
    "satisfies",
    "violations",
    "DocumentStatistics",
    "estimate_cost",
    "measured_cost",
]
