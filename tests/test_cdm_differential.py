"""The flat CDM sweep against the object sweep it replaced.

:func:`cdm_reference.reference_cdm` is CDM as first written, with
information arguments as objects. The two must report the same
eliminations in the same order, the same rule names and counts, the same
witness steps, the same output pattern and, with ``keep_contents=True``,
the same content at every node. The draws cover all three IC kinds,
synonym pairs, ``t ->> t`` (the only source of the self-pair rule),
repeated same-type leaves, output and temporary leaves, and the
paper-sized closure with the four query kinds of the cold-paper stream.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import TreePattern, cdm_minimize
from repro.constraints import closure, co_occurrence, parse_constraints
from repro.constraints.model import ConstraintKind, IntegrityConstraint
from repro.core.edges import EdgeKind
from repro.workloads.paper_queries import FIGURE5_CONSTRAINTS, figure5_query
from repro.workloads.querygen import random_query

from cdm_reference import reference_cdm
from conftest import spine_query

TYPES = ("a", "b", "c", "d", "e", "f")
KINDS = tuple(ConstraintKind)
EDGES = (EdgeKind.CHILD, EdgeKind.DESCENDANT)
#: Every rule name CDM can report; the seeded draws must fire them all.
RULES = {
    "self-child",
    "self-descendant",
    "sibling-co-occurrence",
    "obligation-descendant",
    "obligation-co-occurrence",
    "obligation-descendant(self-pair)",
}


def report(result) -> tuple:
    """Everything a CDM run reports, in comparable form."""
    contents = {
        node_id: (
            content.notation(),
            sorted((arg.notation(), sorted(content.sources_of(arg))) for arg in content.args()),
        )
        for node_id, content in result.contents.items()
    }
    return (
        result.eliminated,
        list(result.rule_counts.items()),
        result.witness_steps,
        result.pattern.canonical_key(),
        sorted(node.id for node in result.pattern.nodes()),
        list(contents.items()),
    )


def assert_same(pattern: TreePattern, repo) -> list:
    """Both sweeps agree on ``pattern``; return the eliminations."""
    flat = cdm_minimize(pattern, repo, keep_contents=True, collect_witnesses=True)
    assert report(flat) == report(
        reference_cdm(pattern, repo, keep_contents=True, collect_witnesses=True)
    )
    plain = cdm_minimize(pattern, repo)
    assert plain.eliminated == flat.eliminated and plain.contents == {}
    return flat.eliminated


def random_case(rng: random.Random) -> tuple[TreePattern, list[IntegrityConstraint]]:
    """Up to 14 nodes over six types; 0-6 constraints of every kind, plus
    a synonym pair or a ``t ->> t`` now and then."""
    constraints = []
    for _ in range(rng.randint(0, 6)):
        kind, source, target = rng.choice(KINDS), rng.choice(TYPES), rng.choice(TYPES)
        if kind is ConstraintKind.CO_OCCURRENCE and source == target:
            continue
        constraints.append(IntegrityConstraint(kind, source, target))
    if rng.random() < 0.2:
        constraints += parse_constraints("a ~ d; d ~ a")
    if rng.random() < 0.2:
        t = rng.choice(TYPES)
        constraints.append(IntegrityConstraint(ConstraintKind.REQUIRED_DESCENDANT, t, t))
    pattern = TreePattern(rng.choice(TYPES))
    nodes = [pattern.root]
    for _ in range(rng.randint(0, 13)):
        parent = rng.choice(nodes)
        temporary = rng.random() < 0.05
        nodes.append(
            pattern.add_child(parent, rng.choice(TYPES), rng.choice(EDGES), temporary=temporary)
        )
    rng.choice(nodes).is_output = True
    return pattern, constraints


class TestSeeded:
    def test_random_draws_agree_and_fire_every_rule(self):
        rng = random.Random(20011)
        fired = set()
        for _ in range(3000):
            pattern, constraints = random_case(rng)
            fired |= {rule for _, _, rule in assert_same(pattern, closure(constraints))}
        assert fired == RULES

    def test_figure5(self):
        assert_same(figure5_query(), closure(FIGURE5_CONSTRAINTS))
        assert_same(figure5_query(), closure([]))

    def test_synonyms_keep_one_of_each_pair(self):
        repo = closure(parse_constraints("a ~ d; d ~ a"))
        pattern = TreePattern.build(("r*", [("/", "a"), ("/", "d"), ("//", "a"), ("//", "d")]))
        assert assert_same(pattern, repo)

    def test_self_pair_keeps_the_first_or_an_output_duplicate(self):
        repo = closure(parse_constraints("t ->> t"))
        for spec in (
            ("r*", [("//", "t"), ("//", "t"), ("//", "t")]),
            ("r", [("//", "t"), ("//", "t*"), ("//", "t")]),
        ):
            eliminated = assert_same(TreePattern.build(spec), repo)
            assert [rule for _, _, rule in eliminated] == ["obligation-descendant(self-pair)"] * 2


def chain_typed_query(rng: random.Random, size: int, fanout: int) -> TreePattern:
    """Figure 8(b): right-deep (``fanout`` 1) or bushy, typed by depth
    from a random offset into the ``T`` chain."""
    offset = rng.randint(0, 60)
    pattern = TreePattern(f"T{offset}", root_is_output=True)
    level, depth, count = [pattern.root], 0, 1
    while count < size:
        depth += 1
        below = []
        for parent in level:
            for _ in range(fanout):
                if count < size:
                    below.append(pattern.add_child(parent, f"T{offset + depth}", EdgeKind.CHILD))
                    count += 1
        level = below
    return pattern


@pytest.mark.parametrize("seed", range(4))
def test_paper_sized_closure_on_the_four_cold_paper_kinds(paper_closure, seed):
    rng = random.Random(seed)
    for _ in range(10):
        size = rng.randint(15, 38)
        assert_same(spine_query(rng, size), paper_closure)
        assert_same(chain_typed_query(rng, size, 1), paper_closure)
        assert_same(chain_typed_query(rng, size, rng.choice((2, 3))), paper_closure)
        twig = random_query(size, types=[f"a{i}" for i in range(10)], rng=rng)
        assert_same(twig, paper_closure)


@st.composite
def cases(draw):
    kind = st.sampled_from(KINDS)
    type_ = st.sampled_from(TYPES)
    constraints = [
        IntegrityConstraint(k, s, t)
        for k, s, t in draw(st.lists(st.tuples(kind, type_, type_), max_size=6))
        if not (k is ConstraintKind.CO_OCCURRENCE and s == t)
    ]
    if draw(st.booleans()):
        constraints += [co_occurrence("a", "d"), co_occurrence("d", "a")]
    pattern = TreePattern(draw(type_))
    nodes = [pattern.root]
    for _ in range(draw(st.integers(0, 13))):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        nodes.append(pattern.add_child(parent, draw(type_), draw(st.sampled_from(EDGES))))
    nodes[draw(st.integers(0, len(nodes) - 1))].is_output = True
    return pattern, constraints


@settings(max_examples=200, deadline=None)
@given(cases())
def test_hypothesis_draws_agree(case):
    pattern, constraints = case
    assert_same(pattern, closure(constraints))
