"""Tests for the evaluator's entry points and forest handling.

There is one evaluator, the candidate-set DP
(:class:`~repro.matching.embeddings.EmbeddingEngine`); no entry point
takes an ``engine=`` keyword.
"""

from __future__ import annotations

import pytest

from repro import TreePattern
from repro.data import Forest, build_tree
from repro.matching import EmbeddingEngine
from repro.matching.evaluator import (
    agree_on,
    count_embeddings,
    evaluate,
    evaluate_nodes,
    matches,
)


def forest() -> Forest:
    return Forest(
        [
            build_tree(("a", [("b", [])])),
            build_tree(("a", [("b", [("b", [])]), ("c", [])])),
        ]
    )


# The engines the entry points run, by name. The candidate-set DP is the
# library's one evaluator.
ENGINES = {"dp": EmbeddingEngine}


def per_tree(engine, q: TreePattern, db: Forest) -> set[tuple[int, int]]:
    """``engine``'s answers tree by tree, tagged with the tree's index."""
    return {(i, node_id) for i, tree in enumerate(db) for node_id in engine(q, tree).answer_set()}


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_path_query_all_engines(self, engine):
        q = TreePattern.build(("a", [("//", "b*")]))
        want = {(0, 1), (1, 1), (1, 2)}
        assert evaluate(q, forest()) == per_tree(ENGINES[engine], q, forest()) == want

    @pytest.mark.parametrize("engine", ENGINES)
    def test_twig_query_branching_engines(self, engine):
        q = TreePattern.build(("a*", [("/", "b"), ("/", "c")]))
        assert evaluate(q, forest()) == per_tree(ENGINES[engine], q, forest()) == {(1, 0)}

    def test_default_is_dp(self):
        """``evaluate`` runs the DP, whatever the pattern."""
        db = forest()
        for spec in ("b", ("a*", [("/", "c")]), ("a", [("/", "zzz*")])):
            q = TreePattern.build(spec)
            assert evaluate(q, db) == per_tree(EmbeddingEngine, q, db)

    def test_unknown_engine(self):
        """``engine=`` is not a keyword of any entry point: Python's own
        ``TypeError``, whatever the name."""
        q = TreePattern.build("a")
        for entry_point in (evaluate, evaluate_nodes, count_embeddings, matches):
            for name in ("dp", "nope"):
                with pytest.raises(TypeError, match="engine"):
                    entry_point(q, forest(), engine=name)
        with pytest.raises(TypeError, match="engine"):
            agree_on(q, q, forest(), engine="dp")


class TestEngineThreading:
    """Every evaluator entry point agrees with its engine run tree by tree."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_evaluate_nodes_all_engines(self, engine):
        q = TreePattern.build(("a", [("//", "b*")]))
        db = forest()
        nodes = evaluate_nodes(q, db)
        assert [id(n) for n in nodes] == [
            id(n) for tree in db for n in ENGINES[engine](q, tree).answer_nodes()
        ]
        assert len(nodes) == len(evaluate(q, db))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_count_embeddings_counting_engines(self, engine):
        q = TreePattern.build(("a", [("//", "b*")]))
        db = forest()
        per_tree_counts = [ENGINES[engine](q, tree).count_embeddings() for tree in db]
        assert count_embeddings(q, db) == sum(per_tree_counts) == 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_all_engines(self, engine):
        hit = TreePattern.build(("a", [("//", "b*")]))
        miss = TreePattern.build(("a", [("/", "zzz*")]))
        db = forest()
        assert matches(hit, db)
        assert any(ENGINES[engine](hit, tree).exists() for tree in db)
        assert not matches(miss, db)
        assert not any(ENGINES[engine](miss, tree).exists() for tree in db)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_agree_on_all_engines(self, engine):
        q1 = TreePattern.build(("a*", [("/", "b"), ("/", "c")]))
        q2 = TreePattern.build(("a*", [("/", "c")]))
        q3 = TreePattern.build(("a*", [("/", "b")]))
        db = forest()
        assert not agree_on(q1, q3, db)
        # Only the second tree has a c-child, and there a b-child too.
        assert agree_on(q1, q2, db)
        for other in (q2, q3):
            assert agree_on(q1, other, db) == (
                per_tree(ENGINES[engine], q1, db) == per_tree(ENGINES[engine], other, db)
            )


class TestGeneratorDatabases:
    """A database passed as a one-shot generator must not be silently
    exhausted between the two evaluations inside ``agree_on``."""

    def trees(self):
        yield build_tree(("a", [("b", [])]))
        yield build_tree(("a", [("b", [("b", [])]), ("c", [])]))

    def test_agree_on_generator(self):
        q1 = TreePattern.build(("a", [("//", "b*")]))
        q2 = TreePattern.build(("a", [("//", "b*")]))
        assert agree_on(q1, q2, self.trees())

    def test_agree_on_generator_detects_disagreement(self):
        q1 = TreePattern.build(("a", [("//", "b*")]))
        q2 = TreePattern.build(("a", [("/", "c*")]))
        assert not agree_on(q1, q2, self.trees())

    def test_evaluate_generator(self):
        q = TreePattern.build(("a", [("//", "b*")]))
        assert evaluate(q, self.trees()) == {(0, 1), (1, 1), (1, 2)}
        # The node and count entry points read the whole generator too.
        assert [n.id for n in evaluate_nodes(q, self.trees())] == [1, 1, 2]
        assert count_embeddings(q, self.trees()) == 3
