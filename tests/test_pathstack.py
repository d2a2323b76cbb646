"""Path (linear) patterns on the candidate-set DP.

Answers and embedding counts against literal values and the
definition-level matcher in ``matching_reference.py``. The file keeps
the name of the PathStack engine these cases were written for.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from matching_reference import reference_count, reference_images
from repro import TreePattern
from repro.core.edges import EdgeKind
from repro.data import build_tree
from repro.data.generate import random_tree
from repro.matching import EmbeddingEngine


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


def nested_tree():
    return build_tree(
        ("a", [
            ("b", [("a", [("b", [("c", [])])]), ("c", [])]),
            ("a", [("c", [])]),
        ])
    )


class TestSolutions:
    def test_simple_child_path(self):
        tree = nested_tree()
        engine = EmbeddingEngine(q(("a", [("/", "b*")])), tree)
        assert engine.count_embeddings() == 2  # a/b at root and nested a/b

    def test_descendant_path_counts_all_nestings(self):
        tree = nested_tree()
        engine = EmbeddingEngine(q(("a", [("//", "c*")])), tree)
        # Every (a, c-descendant) pair.
        pairs = sum(
            1
            for a in tree.nodes()
            for c in tree.nodes()
            if "a" in a.types and "c" in c.types and tree.is_ancestor(a, c)
        )
        assert engine.count_embeddings() == pairs == 5

    def test_self_type_recursion(self):
        tree = nested_tree()
        pattern = q(("a", [("//", "a*")]))
        engine = EmbeddingEngine(pattern, tree)
        assert engine.answer_set() == reference_images(pattern, tree)
        assert engine.count_embeddings() == reference_count(pattern, tree) == 2

    def test_solutions_are_valid_embeddings(self):
        tree = nested_tree()
        pattern = q(("a", [("//", ("b", [("/", "c*")]))]))
        engine = EmbeddingEngine(pattern, tree)
        solutions = list(engine.embeddings())
        assert len(solutions) == engine.count_embeddings() == 3
        for solution in solutions:
            for v in pattern.nodes():
                data_node = solution[v.id]
                assert v.type in data_node.types
                if v.parent is not None:
                    parent_node = solution[v.parent.id]
                    if v.edge.is_child:
                        assert data_node.parent is parent_node
                    else:
                        assert tree.is_ancestor(parent_node, data_node)

    def test_single_node_pattern(self):
        tree = nested_tree()
        engine = EmbeddingEngine(q("c"), tree)
        assert len(engine.answer_set()) == 3


TYPES = ["a", "b", "c"]


@st.composite
def path_patterns(draw, max_len: int = 4) -> TreePattern:
    length = draw(st.integers(min_value=1, max_value=max_len))
    pattern = TreePattern(draw(st.sampled_from(TYPES)))
    node = pattern.root
    for _ in range(length - 1):
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        node = pattern.add_child(node, draw(st.sampled_from(TYPES)), edge)
    chain = list(pattern.nodes())
    chain[draw(st.integers(min_value=0, max_value=len(chain) - 1))].is_output = True
    return pattern


@settings(max_examples=120, deadline=None)
@given(path_patterns(), st.integers(min_value=0, max_value=60))
def test_pathstack_agrees_with_dp_engine(pattern, seed):
    """On path patterns the DP's answers and embedding counts are the
    definition's."""
    db = random_tree(TYPES, size=25, seed=seed)
    engine = EmbeddingEngine(pattern, db)
    assert engine.answer_set() == reference_images(pattern, db)
    assert engine.count_embeddings() == reference_count(pattern, db)
