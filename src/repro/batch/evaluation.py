"""Batch (forest × workload) evaluation with optional worker fan-out.

``evaluate_batch`` answers many queries against a forest in one pass,
returning one answer set per query in input order — the batched
counterpart of :func:`repro.matching.evaluator.evaluate`. The fan-out is
per *tree*: each worker receives the full (usually small) query list once
via the pool initializer and streams through its share of the trees, so
a forest of thousands of documents parallelizes without re-pickling the
workload per task. Trees evaluated in the calling process read the
caller's own query list.
"""

from __future__ import annotations

import pickle
from functools import partial
from typing import Sequence

from ..core.pattern import TreePattern
from ..data.tree import DataTree
from ..matching.embeddings import EmbeddingEngine
from ..matching.evaluator import Database, _trees
from .executor import WorkerPool, process_map, resolve_jobs, use_pool

__all__ = ["evaluate_batch"]

# Worker-process global, set once per worker by `_init_eval_worker`.
_EVAL_PATTERNS: Sequence[TreePattern] = ()


def _init_eval_worker(patterns_bytes: bytes) -> None:
    global _EVAL_PATTERNS
    _EVAL_PATTERNS = pickle.loads(patterns_bytes)


def _eval_tree(
    patterns: Sequence[TreePattern], payload: tuple[int, DataTree]
) -> tuple[int, list[set[int]]]:
    tree_index, tree = payload
    return tree_index, [EmbeddingEngine(pattern, tree).answer_set() for pattern in patterns]


def _eval_one_tree(payload: tuple[int, DataTree]) -> tuple[int, list[set[int]]]:
    return _eval_tree(_EVAL_PATTERNS, payload)


def evaluate_batch(
    patterns: Sequence[TreePattern],
    database: Database,
    *,
    jobs: "int | str" = 1,
) -> list[set[tuple[int, int]]]:
    """Answer sets for every query in ``patterns`` over ``database``.

    Returns one ``{(tree_index, node_id)}`` set per query, in query
    order — for each query, exactly what
    :func:`repro.matching.evaluator.evaluate` returns. ``jobs`` fans the
    trees across worker processes (``1`` = serial in-process); results
    are identical for every setting. A pool, when the forest needs one,
    lives for this call only.
    """
    patterns = list(patterns)
    payloads = list(enumerate(_trees(database)))
    local = partial(_eval_tree, patterns)
    if use_pool(jobs, len(payloads)):
        with WorkerPool(
            min(resolve_jobs(jobs), len(payloads)),
            initializer=_init_eval_worker,
            initargs=(pickle.dumps(patterns),),
        ) as pool:
            per_tree = process_map(_eval_one_tree, payloads, pool=pool, local=local)
    else:
        per_tree = [local(payload) for payload in payloads]

    answers: list[set[tuple[int, int]]] = [set() for _ in patterns]
    for tree_index, per_query in per_tree:
        for query_index, node_ids in enumerate(per_query):
            answers[query_index].update((tree_index, nid) for nid in node_ids)
    return answers
