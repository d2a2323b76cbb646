"""Twig patterns on the candidate-set DP: counts and embeddings.

Answers and embedding counts against the definition-level matcher in
``matching_reference.py``, and the shape of enumerated embeddings. The
file keeps the name of the path-merge engine these cases were written
for.
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


def sample_tree():
    return build_tree(
        ("Library", [
            ("Book", [("Title", [], "T1"), ("Author", [("LastName", [], "L1")])]),
            ("Book", [("Title", [], "T2")]),
        ])
    )


class TestTwigMerge:
    def test_branching_query(self):
        tree = sample_tree()
        pattern = q(("Book*", [("/", "Title"), ("//", "LastName")]))
        engine = EmbeddingEngine(pattern, tree)
        assert engine.answer_set() == reference_images(pattern, tree)
        assert engine.count_embeddings() == reference_count(pattern, tree) == 1

    def test_no_match(self):
        tree = sample_tree()
        engine = EmbeddingEngine(q(("Book*", [("/", "Publisher")])), tree)
        assert not engine.exists()
        assert engine.answer_set() == set()

    def test_embeddings_are_complete_mappings(self):
        tree = sample_tree()
        pattern = q(("Library", [("/", ("Book*", [("/", "Title")])), ("//", "LastName")]))
        embeddings = list(EmbeddingEngine(pattern, tree).embeddings())
        assert embeddings
        for embedding in embeddings:
            assert set(embedding) == {n.id for n in pattern.nodes()}

    def test_shared_branch_nodes_consistent(self):
        tree = sample_tree()
        pattern = q(("Book*", [("/", "Title"), ("/", "Author")]))
        embeddings = list(EmbeddingEngine(pattern, tree).embeddings())
        assert embeddings
        for embedding in embeddings:
            book = embedding[pattern.output_node.id]
            for v in pattern.nodes():
                if v.parent is not None and v.parent.is_output:
                    assert embedding[v.id].parent is book


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


@settings(max_examples=100, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=60))
def test_twig_merge_agrees_with_dp_engine(pattern, seed):
    """On twigs the DP's answers and embedding counts are the
    definition's."""
    db = random_tree(TYPES, size=20, seed=seed)
    engine = EmbeddingEngine(pattern, db)
    assert engine.answer_set() == reference_images(pattern, db)
    assert engine.count_embeddings() == reference_count(pattern, db)
