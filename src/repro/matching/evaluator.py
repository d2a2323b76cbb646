"""Answer-set evaluation of patterns over trees and forests.

Thin convenience layer over the candidate-set DP
(:class:`~repro.matching.embeddings.EmbeddingEngine`): evaluate one
pattern against a tree or a forest, get the answer set (for directory
semantics: the matched entries; for XML semantics: the roots of the
returned subtrees), check equivalence of two patterns on a given
database, and count matches.
"""

from __future__ import annotations

from typing import Iterable, Union

from ..core.pattern import TreePattern
from ..data.tree import DataNode, DataTree, Forest
from .embeddings import EmbeddingEngine

__all__ = [
    "evaluate",
    "evaluate_nodes",
    "count_embeddings",
    "matches",
    "agree_on",
]

Database = Union[DataTree, Forest, Iterable[DataTree]]


def _trees(database: Database) -> list[DataTree]:
    if isinstance(database, DataTree):
        return [database]
    return list(database)


def evaluate(pattern: TreePattern, database: Database) -> set[tuple[int, int]]:
    """The answer set as ``(tree_index, node_id)`` pairs.

    Tree indexes make answers from different forest members
    distinguishable even though node ids are only unique per tree.
    """
    out: set[tuple[int, int]] = set()
    for i, tree in enumerate(_trees(database)):
        out.update((i, node_id) for node_id in EmbeddingEngine(pattern, tree).answer_set())
    return out


def evaluate_nodes(pattern: TreePattern, database: Database) -> list[DataNode]:
    """The answer set as data nodes (document order per tree)."""
    out: list[DataNode] = []
    for tree in _trees(database):
        out.extend(EmbeddingEngine(pattern, tree).answer_nodes())
    return out


def count_embeddings(pattern: TreePattern, database: Database) -> int:
    """Total number of embeddings across the database."""
    return sum(EmbeddingEngine(pattern, t).count_embeddings() for t in _trees(database))


def matches(pattern: TreePattern, database: Database) -> bool:
    """Whether the pattern embeds anywhere in the database."""
    return any(EmbeddingEngine(pattern, t).exists() for t in _trees(database))


def agree_on(q1: TreePattern, q2: TreePattern, database: Database) -> bool:
    """Whether two queries produce the same answer set on this database.

    Used by the property tests as the *semantic* (per-instance) check that
    complements the syntactic containment-mapping oracle: equivalent
    queries must agree on every database satisfying the constraints.

    The database is materialized once, so one-shot iterables (generators)
    are safe to pass: both queries see every tree.
    """
    trees = _trees(database)
    return evaluate(q1, trees) == evaluate(q2, trees)
