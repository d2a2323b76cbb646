"""Document statistics and matching-cost estimation.

The paper's opening motivation: "the efficiency of tree pattern matching
against a tree-structured database depends on the size of the pattern,
[so] it is essential to identify and eliminate redundant nodes". This
module makes that quantitative:

* :class:`DocumentStatistics` — per-type cardinalities and parent/child
  co-occurrence counts collected in one pass over a tree (the statistics
  an optimizer would keep);
* :func:`estimate_cost` — a standard selectivity-style estimate of the
  work a pattern match does against a document with those statistics:
  the sum over pattern edges of candidate-list sizes joined per edge;
* :func:`measured_cost` — the matching engine's actual candidate work,
  for calibrating the estimate.

``benchmarks/bench_motivation.py`` uses these to show minimization
paying off at match time, not only in pattern size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.pattern import TreePattern
from .embeddings import EmbeddingEngine
from .evaluator import Database, _trees

__all__ = ["DocumentStatistics", "estimate_cost", "measured_cost"]


@dataclass
class DocumentStatistics:
    """One-pass statistics over a database.

    Attributes
    ----------
    total_nodes:
        Node count across all trees.
    type_counts:
        ``type -> number of nodes carrying it``.
    child_pairs:
        ``(parent_type, child_type) -> number of such parent/child node
        pairs`` (over the cartesian product of the two nodes' type sets).
    """

    total_nodes: int = 0
    type_counts: Counter = field(default_factory=Counter)
    child_pairs: Counter = field(default_factory=Counter)

    @classmethod
    def collect(cls, database: Database) -> "DocumentStatistics":
        """Scan the database once and return its statistics."""
        stats = cls()
        for tree in _trees(database):
            for node in tree.nodes():
                stats.total_nodes += 1
                for t in node.types:
                    stats.type_counts[t] += 1
                if node.parent is not None:
                    for pt in node.parent.types:
                        for ct in node.types:
                            stats.child_pairs[(pt, ct)] += 1
        return stats

    def cardinality(self, node_type: str) -> int:
        """Number of nodes carrying ``node_type``."""
        return self.type_counts.get(node_type, 0)

    def child_selectivity(self, parent_type: str, child_type: str) -> float:
        """Fraction of ``child_type`` nodes whose parent carries
        ``parent_type`` (0 when either side is absent)."""
        child_total = self.cardinality(child_type)
        if child_total == 0:
            return 0.0
        return self.child_pairs.get((parent_type, child_type), 0) / child_total


def estimate_cost(pattern: TreePattern, stats: DocumentStatistics) -> float:
    """Estimated matching work: candidate-list size per pattern node plus
    a per-edge join term (|parent candidates| + |child candidates| for
    the merge-style joins, with the child side scaled by the pair
    selectivity for c-edges).

    The absolute value is unit-less; its purpose is *ranking* — a
    minimized pattern must never estimate higher than the original on
    the same statistics.
    """
    cost = 0.0
    for node in pattern.nodes():
        own = stats.cardinality(node.type)
        cost += own
        for child in node.children:
            child_cards = stats.cardinality(child.type)
            if child.edge.is_child:
                cost += own + child_cards * max(
                    stats.child_selectivity(node.type, child.type), 0.0
                )
            else:
                cost += own + child_cards
    return cost


def measured_cost(pattern: TreePattern, database: Database) -> int:
    """The matching engine's actual candidate work: total size of the
    bottom-up candidate sets across all trees — the quantity
    :func:`estimate_cost` approximates."""
    total = 0
    for tree in _trees(database):
        engine = EmbeddingEngine(pattern, tree)
        total += sum(len(ids) for ids in engine.candidates().values())
    return total
