"""Tests for the flat minimization core (``repro.core.flat``).

The flat core runs the images engine and the containment DP over flat
preorder arrays and bitset rows. Before it became the only core it was
pinned byte-for-byte against the object engine it replaced; that engine's
outputs on the seeded differential workloads are frozen in
``tests/fixtures/core_v1_reference.json`` (minimized patterns, elimination
orders, witnesses, virtual-target counts) and :class:`TestDifferentialSeeded`
checks that the flat core still reproduces every record. The containment
DP is checked against the definition-level recursion of the independent
certificate checker. The flat building blocks are covered directly:
FlatPattern round-trips, canonical subtree keys, bitset helpers, flat
pickling, and incremental ``delete_leaf``.
"""

from __future__ import annotations

import asyncio
import copy
import io
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MinimizeOptions, Session
from repro.certify import check_certificate, check_oracle_table
from repro.constraints.model import (
    co_occurrence,
    parse_constraints,
    required_child,
    required_descendant,
)
from repro.core.acim import acim_minimize
from repro.core.cim import cim_minimize, is_minimal
from repro.core.containment import mapping_targets
from repro.core.edges import EdgeKind
from repro.core.flat import (
    FlatImagesEngine,
    FlatPattern,
    bits_to_ids,
    ids_to_bits,
    iter_slots,
    pattern_from_flat,
)
from repro.core.fingerprint import subtree_keys
from repro.core.pattern import TreePattern
from repro.core.pipeline import minimize
from repro.errors import InvalidPatternError
from repro.parsing.serializer import to_xpath
from repro.parsing.sexpr import parse_sexpr, to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.service import MinimizationService
from repro.workloads import (
    chain_query,
    duplicate_random_branch,
    isomorphic_shuffle,
    random_query,
)

TYPES = ["a", "b", "c", "d"]

REFERENCE_PATH = Path(__file__).parent / "fixtures" / "core_v1_reference.json"


def _random_constraints(rng: random.Random, types=TYPES):
    """A small random, acyclic-forward IC set (same shape as the
    property suites use: child/descendant edges only point forward in
    the type order so closures stay finite)."""
    out = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(["child", "desc", "cooc"])
        if kind == "cooc":
            i, j = rng.randrange(len(types)), rng.randrange(len(types))
            if i != j:
                out.append(co_occurrence(types[i], types[j]))
        else:
            i = rng.randrange(len(types) - 1)
            j = rng.randint(i + 1, len(types) - 1)
            make = required_child if kind == "child" else required_descendant
            out.append(make(types[i], types[j]))
    return out


def _workload(seed: int) -> tuple[TreePattern, list]:
    rng = random.Random(seed)
    query = random_query(rng.randint(2, 14), types=TYPES, rng=rng)
    if rng.random() < 0.6:
        query = duplicate_random_branch(query, rng=rng)
    return query, _random_constraints(rng)


def _as_json(record: dict) -> dict:
    """The record as it reads back from JSON (tuples become lists, int
    dict keys become strings), so it compares equal to the fixture."""
    return json.loads(json.dumps(record))


def _cim_record(pattern, **kw) -> dict:
    result = cim_minimize(pattern, collect_witnesses=True, **kw)
    return _as_json(
        {
            "pattern": to_sexpr(result.pattern),
            "eliminated": result.eliminated,
            "witnesses": result.witnesses,
        }
    )


def _acim_record(pattern, ics, **kw) -> dict:
    result = acim_minimize(pattern, ics, collect_witnesses=True, **kw)
    return _as_json(
        {
            "pattern": to_sexpr(result.pattern),
            "eliminated": result.eliminated,
            "witnesses": result.witnesses,
            "virtual_count": result.virtual_count,
        }
    )


def _pipeline_record(pattern, ics) -> dict:
    result = minimize(pattern, ics, collect_witnesses=True)
    acim = result.acim
    return _as_json(
        {
            "pattern": to_sexpr(result.pattern),
            "cdm_eliminated": [] if result.cdm is None else result.cdm.eliminated,
            "eliminated": [] if acim is None else acim.eliminated,
            "witnesses": {} if acim is None else acim.witnesses,
            "virtual_count": 0 if acim is None else acim.virtual_count,
        }
    )


def _is_minimal_record(pattern) -> dict:
    return {"minimal": is_minimal(pattern)}


#: Fixture section -> (seeds, record builder for one seed).
REFERENCE_KINDS = {
    "cim": (range(110), lambda seed: _cim_record(_workload(seed)[0])),
    "acim": (range(110), lambda seed: _acim_record(*_workload(seed))),
    "pipeline": (range(110), lambda seed: _pipeline_record(*_workload(seed))),
    "is_minimal": (range(110), lambda seed: _is_minimal_record(_workload(seed)[0])),
    "cim_seeded_order": (
        range(40),
        lambda seed: _cim_record(_workload(seed)[0], seed=seed),
    ),
    "acim_from_scratch": (
        range(40),
        lambda seed: _acim_record(*_workload(seed), incremental=False),
    ),
}


@pytest.fixture(scope="module")
def reference() -> dict:
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


class TestDifferentialSeeded:
    """The flat core reproduces the object engine's frozen outputs.

    Seeds 0–109 drive CIM, ACIM, the full pipeline and ``is_minimal``;
    seeds 0–39 drive the seeded elimination order and the from-scratch
    ACIM baseline — 520 records in all. Integer counters
    are not frozen: they describe cache tiers, not results.
    """

    def _check(self, reference, kind):
        seeds, build = REFERENCE_KINDS[kind]
        frozen = reference["records"][kind]
        assert len(frozen) == len(seeds)
        for seed in seeds:
            assert build(seed) == frozen[seed], (kind, seed)

    def test_reference_covers_every_kind(self, reference):
        assert reference["commit"]
        assert set(reference["records"]) == set(REFERENCE_KINDS)

    def test_cim_matches(self, reference):
        self._check(reference, "cim")

    def test_acim_matches(self, reference):
        self._check(reference, "acim")

    def test_pipeline_matches(self, reference):
        self._check(reference, "pipeline")

    def test_is_minimal_matches(self, reference):
        self._check(reference, "is_minimal")

    def test_cim_seeded_order_matches(self, reference):
        self._check(reference, "cim_seeded_order")

    def test_from_scratch_baseline_matches(self, reference):
        self._check(reference, "acim_from_scratch")


@st.composite
def patterns(draw, max_size: int = 9) -> TreePattern:
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(st.sampled_from(TYPES)))
    nodes = [pattern.root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        nodes.append(pattern.add_child(parent, draw(st.sampled_from(TYPES)), edge))
    nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))].is_output = True
    pattern.validate()
    return pattern


class TestDifferentialHypothesis:
    @settings(max_examples=60, deadline=None)
    @given(patterns(), patterns())
    def test_mapping_targets_matches(self, source, target):
        """The bitset DP equals the checker's definition-level recursion
        on the full (source node, target node) relation."""
        table = mapping_targets(source, target, cache=None)
        assert check_oracle_table(source, target, table)


class TestFlatPattern:
    def test_round_trip_preserves_everything(self):
        for seed in range(60):
            rng = random.Random(seed)
            pattern = random_query(rng.randint(1, 20), types=TYPES, rng=rng)
            back = FlatPattern.from_pattern(pattern).to_pattern()
            assert to_sexpr(back) == to_sexpr(pattern)
            assert [n.id for n in back.nodes()] == [n.id for n in pattern.nodes()]
            for a, b in zip(pattern.nodes(), back.nodes()):
                assert (a.id, a.type, a.edge, a.is_output, a.temporary) == (
                    b.id,
                    b.type,
                    b.edge,
                    b.is_output,
                    b.temporary,
                )
                assert [c.id for c in a.children] == [c.id for c in b.children]

    def test_round_trip_preserves_extra_types(self):
        pattern = parse_xpath("a/b[c]")
        pattern.add_extra_type(pattern.node(1), "x")
        back = FlatPattern.from_pattern(pattern).to_pattern()
        assert back.node(1).extra_types == pattern.node(1).extra_types
        assert back.node(1).has_type("x")

    def test_next_id_survives(self):
        pattern = parse_xpath("a/b[c][d]")
        pattern.delete_leaf(pattern.node(3))
        back = FlatPattern.from_pattern(pattern).to_pattern()
        fresh = back.add_child(back.root, "z", EdgeKind.CHILD)
        expected = pattern.add_child(pattern.root, "z", EdgeKind.CHILD)
        assert fresh.id == expected.id

    def test_subtree_keys_match_fingerprint_module(self):
        # The store and the oracle cache key patterns that came back
        # through the flat form: every node keeps its canonical key,
        # extra types and temporary flags included.
        for seed in range(60):
            rng = random.Random(seed)
            pattern = random_query(rng.randint(1, 20), types=TYPES, rng=rng)
            for node in pattern.nodes():
                if rng.random() < 0.3:
                    pattern.add_extra_type(node, rng.choice(TYPES))
                if not node.is_root and rng.random() < 0.2:
                    node.temporary = True
            back = FlatPattern.from_pattern(pattern).to_pattern()
            assert subtree_keys(back) == subtree_keys(pattern)


def _object_graph_pickle(pattern: TreePattern) -> bytes:
    """Pickle ``pattern`` as its plain object graph, bypassing the flat
    ``__reduce_ex__`` (the size the flat form is compared against)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.dispatch_table = {TreePattern: lambda p: object.__reduce_ex__(p, 2)}
    pickler.dump(pattern)
    return buffer.getvalue()


class TestFlatPickle:
    def test_pickle_round_trips_through_flat_form(self):
        for seed in range(20):
            rng = random.Random(seed)
            pattern = random_query(rng.randint(1, 20), types=TYPES, rng=rng)
            reducer, args = pattern.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            assert reducer is pattern_from_flat
            assert isinstance(args[0], FlatPattern)
            back = pickle.loads(pickle.dumps(pattern))
            assert to_sexpr(back) == to_sexpr(pattern)
            assert [n.id for n in back.nodes()] == [n.id for n in pattern.nodes()]

    def test_flat_blob_is_smaller(self):
        pattern = chain_query(120)
        flat = pickle.dumps(pattern)
        graph = _object_graph_pickle(pattern)
        assert len(flat) < len(graph) / 2, (len(flat), len(graph))

    def test_deepcopy_goes_through_flat_path(self):
        pattern = parse_xpath("a/b[c][c/d]")
        clone = copy.deepcopy(pattern)
        assert to_sexpr(clone) == to_sexpr(pattern)
        clone.delete_leaf(clone.node(4))
        assert pattern.has_node(4)

    def test_pattern_from_flat_is_module_level(self):
        # __reduce_ex__ references it by name; it must stay picklable.
        flat = FlatPattern.from_pattern(parse_xpath("a/b"))
        assert to_sexpr(pattern_from_flat(flat)) == to_sexpr(parse_xpath("a/b"))


class TestBitsetHelpers:
    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=400), max_size=40))
    def test_round_trip(self, ids):
        id_of = sorted(ids)
        slot_of = {node_id: slot for slot, node_id in enumerate(id_of)}
        bits = ids_to_bits(ids, slot_of)
        assert bits.bit_count() == len(ids)
        assert bits_to_ids(bits, id_of) == ids

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=300), max_size=40))
    def test_iter_slots_ascending(self, slots):
        bits = 0
        for s in slots:
            bits |= 1 << s
        assert list(iter_slots(bits)) == sorted(slots)

    def test_empty(self):
        assert list(iter_slots(0)) == []
        assert bits_to_ids(0, []) == set()
        assert ids_to_bits((), {}) == 0


class TestFlatDeleteLeaf:
    """Incremental ``delete_leaf`` == a from-scratch rebuild."""

    def _redundancy_profile(self, engine, pattern):
        return {
            leaf.id: engine.is_redundant_leaf(leaf)
            for leaf in pattern.leaves()
            if not leaf.is_root and not leaf.is_output
        }

    def test_incremental_matches_rebuild(self):
        for seed in range(30):
            rng = random.Random(seed)
            pattern = duplicate_random_branch(
                random_query(rng.randint(2, 12), types=TYPES, rng=rng), rng=rng
            )
            incremental = FlatImagesEngine(pattern)
            deletable = [
                n.id
                for n in pattern.leaves()
                if not n.is_root and not n.is_output
            ]
            for leaf_id in deletable:
                if not pattern.has_node(leaf_id):
                    continue
                leaf = pattern.node(leaf_id)
                if not leaf.is_leaf or not incremental.is_redundant_leaf(leaf):
                    continue
                pattern.delete_leaf(leaf)
                incremental.delete_leaf(leaf)
                fresh = FlatImagesEngine(pattern)
                assert self._redundancy_profile(
                    incremental, pattern
                ) == self._redundancy_profile(fresh, pattern), seed

    def test_delete_leaf_validation(self):
        pattern = parse_xpath("a/b[c][c]")
        engine = FlatImagesEngine(pattern)
        with pytest.raises(InvalidPatternError):
            engine.delete_leaf(pattern.node(1))  # still has descendants
        ghost = parse_xpath("x").root
        with pytest.raises(InvalidPatternError):
            engine.delete_leaf(ghost)

    def test_delete_returns_dropped_virtual_targets(self):
        from repro.core.images import VirtualTarget

        pattern = parse_xpath("a/b[c][c]")
        vt = VirtualTarget(id=-1, node_type="d", parent_id=3, edge=EdgeKind.CHILD)
        engine = FlatImagesEngine(pattern, (vt,))
        leaf = pattern.node(3)
        pattern.delete_leaf(leaf)
        dropped = engine.delete_leaf(leaf)
        assert dropped == (vt,)
        assert engine.virtual == ()


class TestCheckCost:
    """A check builds only the rows of the subtree it sweeps."""

    def test_early_yes_reads_only_the_parents_subtree(self):
        pattern = random_query(220, types=TYPES, seed=7)
        anchor = next(
            node
            for node in pattern.nodes()
            if node.depth >= 3 and 1 <= sum(1 for _ in node.descendants()) <= 6
        )
        pattern.add_child(anchor, "z", EdgeKind.CHILD)
        leaf = pattern.add_child(anchor, "z", EdgeKind.CHILD)
        assert pattern.size >= 200
        engine = FlatImagesEngine(pattern)
        stats = engine.stats
        before = stats.base_cache_hits + stats.base_cache_misses
        # The twin z leaf is an image of the leaf, so the anchor maps to
        # itself: the early YES fires at the leaf's parent.
        assert engine.is_redundant_leaf(leaf)
        lookups = stats.base_cache_hits + stats.base_cache_misses - before
        assert lookups <= sum(1 for _ in anchor.subtree()) < pattern.size // 20


def _twin_chains(depth: int, chains: int = 2) -> TreePattern:
    """A root with two ``a`` child-chains of ``depth`` nodes, the first
    ending in a ``b`` leaf. The second chain is redundant, and no check
    on it fires an early YES below the root, so each one sweeps the
    first chain top to bottom. ``chains=1`` is the minimal form."""
    pattern = TreePattern("r", root_is_output=True)
    for ends_in_b in (True, False)[:chains]:
        node = pattern.root
        for _ in range(depth):
            node = pattern.add_child(node, "a", EdgeKind.CHILD)
        if ends_in_b:
            pattern.add_child(node, "b", EdgeKind.CHILD)
    return pattern


class TestDeepPatterns:
    """Sweeps and witness extraction are iterative: a check may sweep a
    subtree deeper than the interpreter's recursion limit. So are the
    text front-ends, which read and write such a pattern as nested
    predicates or forms."""

    DEPTH = 600

    @pytest.mark.parametrize(
        "render, parse",
        [
            (to_xpath, parse_xpath),
            (to_sexpr, parse_sexpr),
            (lambda pattern: to_sexpr(pattern, pretty=True), parse_sexpr),
        ],
        ids=["xpath", "sexpr", "sexpr-pretty"],
    )
    def test_text_round_trip_of_deep_twin_chains(self, render, parse):
        pattern = _twin_chains(self.DEPTH)
        assert parse(render(pattern)).isomorphic(pattern)

    @pytest.mark.parametrize("certify", [False, True])
    def test_session_minimizes_deep_twin_chains(self, certify):
        pattern = _twin_chains(self.DEPTH)
        assert pattern.size == 2 * self.DEPTH + 2
        with Session(MinimizeOptions(certify=certify)) as session:
            result = session.minimize(pattern)
        assert result.output_size == self.DEPTH + 2
        assert result.pattern.isomorphic(_twin_chains(self.DEPTH, chains=1))
        assert (result.certificate is not None) == certify
        if certify:
            verdict = check_certificate(
                result.certificate, pattern, eliminated=list(result.eliminated)
            )
            assert verdict.ok, verdict.reason


class TestBatchAndSessionDifferential:
    """The batch, session and service paths serve exactly what the
    direct pipeline computes, replays of isomorphic twins included."""

    CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")

    def _queries(self, n=24, seed=5):
        rng = random.Random(seed)
        out = []
        while len(out) < n:
            base = random_query(rng.randint(2, 10), types=TYPES, rng=rng)
            out.append(base)
            if rng.random() < 0.5 and len(out) < n:
                out.append(isomorphic_shuffle(base, rng=rng))
        return out

    def _direct(self, queries):
        return [
            (to_sexpr(run.pattern), run.removed_count)
            for run in (minimize(q, self.CONSTRAINTS) for q in queries)
        ]

    def test_session_batch_matches(self):
        queries = self._queries()
        with Session(MinimizeOptions(), constraints=self.CONSTRAINTS) as session:
            results = session.minimize_many(queries)
        assert [
            (to_sexpr(r.pattern), r.removed_count) for r in results
        ] == self._direct(queries)

    def test_service_matches(self):
        queries = self._queries(n=16, seed=9)

        async def scenario():
            async with MinimizationService(
                MinimizeOptions(), constraints=self.CONSTRAINTS
            ) as service:
                return await service.submit_many(queries)

        results = asyncio.run(scenario())
        assert [
            (to_sexpr(r.pattern), r.removed_count) for r in results
        ] == self._direct(queries)


class TestJobsAuto:
    def test_resolve_jobs_auto(self):
        from repro.batch.executor import resolve_jobs

        assert resolve_jobs("auto") >= 1
        with pytest.raises(ValueError):
            resolve_jobs("never")

    def test_process_map_auto_small_batch_is_serial(self):
        from repro.batch import BatchMinimizer, resolve_jobs
        from repro.batch.executor import AUTO_SERIAL_THRESHOLD, use_pool

        assert not use_pool("auto", AUTO_SERIAL_THRESHOLD)
        assert use_pool("auto", AUTO_SERIAL_THRESHOLD + 1) == (resolve_jobs("auto") > 1)
        queries = [parse_xpath("a/b[c][c]")] * AUTO_SERIAL_THRESHOLD
        with BatchMinimizer(
            options=MinimizeOptions(jobs="auto", memoize=False)
        ) as minimizer:
            batch = minimizer.minimize_all(queries)
            assert minimizer._pool is None
        assert [p.size for p in batch.patterns()] == [3] * AUTO_SERIAL_THRESHOLD
        assert batch.executor_stats.dispatched_chunks == 0

    def test_options_accept_auto(self):
        assert MinimizeOptions(jobs="auto").jobs == "auto"
        with pytest.raises(ValueError):
            MinimizeOptions(jobs="many")

    def test_session_with_auto_jobs(self):
        queries = [parse_xpath("a/b[c][c]"), parse_xpath("a//b")]
        with Session(MinimizeOptions(jobs="auto")) as session:
            results = session.minimize_many(queries)
        assert [r.output_size for r in results] == [3, 2]

