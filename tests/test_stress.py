"""Stress and scale tests: deep, wide, and large inputs.

These guard the iterative traversals (no interpreter recursion limits)
and keep the asymptotics honest at sizes well beyond the paper's plots.
"""

from __future__ import annotations

import pytest

from matching_reference import reference_images
from repro import TreePattern, cdm_minimize, cim_minimize, minimize
from repro.constraints.closure import closure
from repro.data.generate import random_tree
from repro.matching import EmbeddingEngine
from repro.parsing import parse_sexpr, parse_xpath, to_sexpr, to_xpath
from repro.workloads.querygen import (
    bushy_cdm_query,
    chain_constraints,
    chain_query,
    cyclic_chain_constraints,
    right_deep_cdm_query,
)


class TestDeepPatterns:
    DEPTH = 1500  # far beyond the default recursion limit

    def test_deep_copy_and_traversal(self):
        q = chain_query(self.DEPTH)
        clone = q.copy()
        assert clone.size == self.DEPTH
        assert len(list(clone.postorder())) == self.DEPTH
        assert clone.isomorphic(q)

    def test_deep_canonical_key(self):
        q = chain_query(self.DEPTH)
        assert q.canonical_key() == q.copy().canonical_key()

    def test_deep_to_ascii(self):
        q = chain_query(self.DEPTH)
        assert len(q.to_ascii().splitlines()) == self.DEPTH

    def test_deep_cdm(self):
        repo = closure(cyclic_chain_constraints())
        result = cdm_minimize(right_deep_cdm_query(self.DEPTH), repo)
        assert result.pattern.size == 1

    def test_deep_serializers(self):
        q = chain_query(300)
        assert parse_xpath(to_xpath(q)).isomorphic(q)
        assert parse_sexpr(to_sexpr(q)).isomorphic(q)

    def test_deep_subtree_delete(self):
        q = chain_query(self.DEPTH)
        first_child = q.root.children[0]
        removed = q.delete_subtree(first_child)
        assert len(removed) == self.DEPTH - 1
        assert q.size == 1


class TestWidePatterns:
    WIDTH = 2000

    def test_wide_cim_duplicates(self):
        q = TreePattern("root", root_is_output=True)
        from repro.core.edges import EdgeKind

        for _ in range(self.WIDTH):
            q.add_child(q.root, "x", EdgeKind.CHILD)
        result = cim_minimize(q)
        assert result.pattern.size == 2  # all duplicates collapse to one

    def test_wide_cdm(self):
        q = bushy_cdm_query(self.WIDTH, fanout=50)
        repo = closure(cyclic_chain_constraints())
        assert cdm_minimize(q, repo).pattern.size == 1


class TestLargeDocuments:
    def test_engines_agree_on_large_tree(self):
        """The DP against the definition-level reference matcher."""
        db = random_tree(["a", "b", "c", "d"], size=3000, seed=11)
        pattern = TreePattern.build(("a", [("//", ("b*", [("/", "c")])), ("//", "d")]))
        answers = EmbeddingEngine(pattern, db).answer_set()
        assert answers == reference_images(pattern, db)
        assert len(answers) == 124

    def test_full_pipeline_on_200_node_chain(self):
        size = 200
        q = chain_query(size)
        repo = closure(chain_constraints(size))
        result = minimize(q, repo)
        assert result.pattern.size == 1
        # CDM should have done all the work; ACIM sees a single node.
        assert result.cdm is not None and result.cdm.removed_count == size - 1


@pytest.mark.parametrize("size", [101, 333])
def test_chain_cim_no_spurious_removals(size):
    """Distinct-typed chains are already minimal at any size."""
    assert cim_minimize(chain_query(size)).removed_count == 0
