"""Property tests tying the syntactic oracle to actual query semantics.

The homomorphism theorem is the bridge every minimizer stands on; these
tests check it from both sides on random patterns and random data:
syntactic containment implies answer-set containment on every instance,
and minimization never changes any answer set. The evaluator itself
is checked against :func:`matching_reference.reference_images`, the
definition of an embedding applied directly.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from matching_reference import reference_images
from repro import TreePattern, cim_minimize, is_contained_in
from repro.core.edges import EdgeKind
from repro.data.generate import random_tree
from repro.matching import EmbeddingEngine, evaluate

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


@settings(max_examples=60, deadline=None)
@given(patterns(), patterns(), st.integers(min_value=0, max_value=50))
def test_syntactic_containment_implies_semantic(q1, q2, seed):
    """Q1 ⊆ Q2 (containment mapping) ⇒ Q1(D) ⊆ Q2(D) for every D."""
    if not is_contained_in(q1, q2):
        return
    db = random_tree(TYPES, size=25, seed=seed)
    assert evaluate(q1, db) <= evaluate(q2, db)


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=50))
def test_cim_preserves_answers_on_random_data(pattern, seed):
    db = random_tree(TYPES, size=30, seed=seed)
    minimized = cim_minimize(pattern).pattern
    assert evaluate(pattern, db) == evaluate(minimized, db)


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=50))
def test_answer_set_equals_witnessed_embeddings(pattern, seed):
    """feasible(output) must agree with brute-force enumeration."""
    db = random_tree(TYPES, size=18, seed=seed)
    engine = EmbeddingEngine(pattern, db)
    by_dp = engine.answer_set()
    by_enumeration = {emb[pattern.output_node.id].id for emb in engine.embeddings()}
    assert by_dp == by_enumeration


@settings(max_examples=40, deadline=None)
@given(patterns(max_size=5), st.integers(min_value=0, max_value=50))
def test_count_matches_enumeration(pattern, seed):
    db = random_tree(TYPES, size=15, seed=seed)
    engine = EmbeddingEngine(pattern, db)
    assert engine.count_embeddings() == len(list(engine.embeddings()))


@settings(max_examples=200, deadline=None)
@given(
    patterns(),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_evaluator_agrees_with_the_definition(pattern, size, seed):
    """The DP's answer set equals what direct recursion over the tree's
    links finds (``tests/test_structural.py`` checks every node's
    images the same way)."""
    db = random_tree(TYPES, size=size, seed=seed)
    assert evaluate(pattern, db) == {(0, d) for d in reference_images(pattern, db)}
