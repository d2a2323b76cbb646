"""Twig patterns on the candidate-set DP: answer sets.

Answers and feasible sets against literal values and the
definition-level matcher in ``matching_reference.py``. The file keeps
the name of the structural-join engine these cases were written for.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from matching_reference import reference_images
from repro import TreePattern
from repro.core.edges import EdgeKind
from repro.data import Forest, build_tree
from repro.data.generate import random_tree
from repro.matching import EmbeddingEngine, evaluate


def q(spec) -> TreePattern:
    return TreePattern.build(spec)


def sample_tree():
    return build_tree(
        ("Library", [
            ("Book", [("Title", [], "T1"), ("Author", [("LastName", [], "L1")])]),
            ("Book", [("Title", [], "T2")]),
            ("Shelf", [("Book", [("Title", [], "T3")])]),
        ])
    )


class TestTwigJoinEngine:
    def test_matches_dp_engine_on_known_query(self):
        tree = sample_tree()
        pattern = q(("Book*", [("/", "Title"), ("//", "LastName")]))
        answers = EmbeddingEngine(pattern, tree).answer_set()
        assert answers == reference_images(pattern, tree)
        assert len(answers) == 1

    def test_exists(self):
        tree = sample_tree()
        assert EmbeddingEngine(q(("Shelf", [("//", "Title*")])), tree).exists()
        assert not EmbeddingEngine(q(("Shelf", [("/", "Title*")])), tree).exists()

    def test_c_edge_requires_direct_child(self):
        tree = sample_tree()
        pattern = q(("Library", [("/", "Book*")]))
        direct = EmbeddingEngine(pattern, tree).answer_set()
        assert direct == reference_images(pattern, tree)
        assert len(direct) == 2

    def test_single_node_pattern(self):
        tree = sample_tree()
        engine = EmbeddingEngine(q("Book"), tree)
        assert engine.answer_set() == {n.id for n in tree.nodes() if "Book" in n.types}
        assert len(engine.answer_set()) == 3


TYPES = ["a", "b", "c"]


@st.composite
def patterns(draw, max_size: int = 6) -> TreePattern:
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(st.sampled_from(TYPES)))
    nodes = [pattern.root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        nodes.append(pattern.add_child(parent, draw(st.sampled_from(TYPES)), edge))
    nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))].is_output = True
    return pattern


@settings(max_examples=120, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=80))
def test_twig_join_agrees_with_dp_engine(pattern, seed):
    """Over a forest, ``evaluate`` tags each tree's definition-level
    answers with the tree's index."""
    trees = [random_tree(TYPES, size=15, seed=seed + k) for k in range(2)]
    assert evaluate(pattern, Forest(trees)) == {
        (i, d) for i, tree in enumerate(trees) for d in reference_images(pattern, tree)
    }


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=80))
def test_twig_join_feasible_agrees(pattern, seed):
    """The DP's feasible set of every pattern node is the images that
    node takes over all embeddings."""
    db = random_tree(TYPES, size=25, seed=seed)
    feasible = EmbeddingEngine(pattern, db).feasible()
    for v in pattern.nodes():
        assert feasible[v.id] == reference_images(pattern, db, v), v.type
