"""Tests for the incremental images engine (maintained across deletions).

Three layers:

* unit tests for :meth:`FlatImagesEngine.delete_leaf` bookkeeping;
* a hypothesis property: after any legal sequence of tracked deletions,
  the engine's live tables (relation rows and type index masked by the
  live set), virtual targets, redundancy answers and witnesses are
  identical to a freshly built engine — across random patterns, virtual
  targets, and pair filters;
* differential tests pinning the incremental drivers (``cim_minimize``,
  ``acim_minimize``, seeded elimination orders) to the from-scratch
  ``incremental=False`` baseline on 200+ seeded random workloads, with
  ``cim_minimize_naive`` and ``exhaustive_minimize`` cross-checks on
  small inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import TreePattern, cim_minimize, equivalent, is_minimal
from repro.constraints.closure import closure
from repro.core.acim import acim_minimize
from repro.core.bruteforce import exhaustive_minimize
from repro.core.chase import augmentation_targets
from repro.core.cim_naive import cim_minimize_naive
from repro.core.edges import EdgeKind
from repro.core.engine_v2 import FlatImagesEngine
from repro.core.images import ImagesStats, VirtualTarget
from repro.errors import InvalidPatternError
from repro.workloads.icgen import relevant_constraints
from repro.workloads.querygen import duplicate_random_branch, random_query

TYPES = ["a", "b", "c"]


def fanout(root_type: str, *child_types: str) -> TreePattern:
    """A starred root with one c-child per entry (duplicates redundant)."""
    pattern = TreePattern(root_type)
    pattern.root.is_output = True
    for t in child_types:
        pattern.add_child(pattern.root, t, EdgeKind.CHILD)
    return pattern


def live_ids(engine: FlatImagesEngine) -> set[int]:
    """Ids of the targets (real and virtual) the engine still holds."""
    return engine.row_ids(engine._live)


def live_tables(engine: FlatImagesEngine) -> dict:
    """The relation rows and type index as id sets over live targets.

    The engine never rewrites these tables on deletion — it clears bits
    from its ``live`` mask and masks every row at use — so the tables
    are compared through that mask.
    """
    live = engine._live
    rows = engine.row_ids
    slots = {node_id: slot for node_id, slot in engine._slot_of.items() if live >> slot & 1}
    return {
        "c_children": {i: rows(engine._cc[s] & live) for i, s in slots.items()},
        "descendants": {i: rows(engine._desc[s] & live) for i, s in slots.items()},
        "types": {
            t: rows(bits & live) for t, bits in engine._type_bits.items() if bits & live
        },
    }


# ---------------------------------------------------------------------------
# FlatImagesEngine.delete_leaf bookkeeping
# ---------------------------------------------------------------------------


class TestEngineDeleteLeaf:
    def test_drops_anchored_virtuals_and_reports_them(self):
        # a / b / c with two virtual targets on c, one elsewhere.
        pattern = TreePattern("a")
        pattern.root.is_output = True
        b = pattern.add_child(pattern.root, "b", EdgeKind.CHILD)
        c = pattern.add_child(b, "c", EdgeKind.CHILD)
        virtual = [
            VirtualTarget(-1, "x", c.id, EdgeKind.CHILD),
            VirtualTarget(-2, "y", c.id, EdgeKind.DESCENDANT),
            VirtualTarget(-3, "x", b.id, EdgeKind.CHILD),
        ]
        engine = FlatImagesEngine(pattern, virtual)
        pattern.delete_leaf(c)
        dropped = engine.delete_leaf(c)
        assert {vt.id for vt in dropped} == {-1, -2}
        assert {vt.id for vt in engine.virtual} == {-3}
        assert live_ids(engine) == {pattern.root.id, b.id, -3}
        with pytest.raises(InvalidPatternError):
            engine.delete_leaf(c)  # its row is gone

    def test_counters_attribute_build_vs_delete(self):
        pattern = fanout("a", "b", "b", "b")
        stats = ImagesStats()
        result = cim_minimize(pattern, stats=stats)
        assert result.removed_count == 2  # three identical b children -> one
        assert stats.engine_builds == 1
        assert stats.incremental_deletes == 2

        rebuild_stats = ImagesStats()
        cim_minimize(pattern, stats=rebuild_stats, incremental=False)
        assert rebuild_stats.engine_builds == 3  # initial + one per deletion
        assert rebuild_stats.incremental_deletes == 0

    def test_base_cache_counters_present_in_flat_dict(self):
        stats = ImagesStats()
        cim_minimize(fanout("a", "b", "b"), stats=stats)
        counters = stats.counters()
        assert counters["base_cache_misses"] > 0
        for key in (
            "engine_builds",
            "incremental_deletes",
            "base_cache_hits",
            "max_image_size_post_prune",
        ):
            assert key in counters

    def test_post_prune_image_size_tracked(self):
        stats = ImagesStats()
        result = cim_minimize(fanout("a", "b", "b", "b"), stats=stats)
        assert result.removed_count > 0
        assert stats.max_image_size_post_prune >= 1
        assert stats.max_image_size_post_prune <= stats.max_image_size


# ---------------------------------------------------------------------------
# Property: tracked deletions == fresh engine
# ---------------------------------------------------------------------------


@st.composite
def patterns(draw, max_size: int = 9) -> TreePattern:
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(st.sampled_from(TYPES)))
    nodes = [pattern.root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        nodes.append(pattern.add_child(parent, draw(st.sampled_from(TYPES)), edge))
    starred = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
    starred.is_output = True
    pattern.validate()
    return pattern


def _delete_random_leaves(draw, query, engine, rounds: int) -> None:
    """Track a random legal deletion sequence through ``engine``."""
    for _ in range(rounds):
        deletable = [
            n for n in query.leaves() if not n.is_root and not n.is_output
        ]
        if not deletable:
            return
        leaf = deletable[draw(st.integers(min_value=0, max_value=len(deletable) - 1))]
        query.delete_leaf(leaf)
        engine.delete_leaf(leaf)


def _assert_engines_agree(
    incremental: FlatImagesEngine, fresh: FlatImagesEngine, query
) -> None:
    """``incremental`` (tracked deletions) answers every leaf as
    ``fresh`` does, with the same witnesses."""
    assert live_ids(incremental) == live_ids(fresh)
    assert live_tables(incremental) == live_tables(fresh)
    assert incremental.virtual == fresh.virtual
    for leaf in query.leaves():
        if leaf.is_root or leaf.is_output:
            continue
        assert incremental.is_redundant_leaf(leaf) == fresh.is_redundant_leaf(leaf)
        assert incremental.redundancy_witness(leaf) == fresh.redundancy_witness(leaf)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_engine_after_deletions_equals_fresh_engine(data):
    query = data.draw(patterns())
    engine = FlatImagesEngine(query)
    # Warm the memoized base sets before mutating, so the subtracted
    # cached sets (not just freshly computed ones) are what's compared.
    for leaf in list(query.leaves()):
        if not leaf.is_root and not leaf.is_output:
            engine.is_redundant_leaf(leaf)
    _delete_random_leaves(data.draw, query, engine, rounds=4)
    _assert_engines_agree(engine, FlatImagesEngine(query), query)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_engine_with_virtual_targets_equals_fresh_engine(data):
    base = data.draw(patterns(max_size=7))
    # relevant_constraints never emits source == target, so an in-query
    # target pool needs at least two distinct types.
    assume(len(base.node_types()) >= 2)
    ics = relevant_constraints(
        base,
        data.draw(st.integers(min_value=1, max_value=4)),
        target_pool=sorted(base.node_types()),
        seed=data.draw(st.integers(min_value=0, max_value=999)),
    )
    virtual, extra_types = augmentation_targets(base, closure(ics))
    query = base.copy()
    for node_id, types in extra_types.items():
        for t in sorted(types):
            query.add_extra_type(query.node(node_id), t)
    engine = FlatImagesEngine(query, virtual)
    _delete_random_leaves(data.draw, query, engine, rounds=3)
    survivors = [vt for vt in virtual if query.has_node(vt.parent_id)]
    _assert_engines_agree(engine, FlatImagesEngine(query, survivors), query)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_with_pair_filter_equals_fresh_engine(data):
    query = data.draw(patterns(max_size=8))
    salt = data.draw(st.integers(min_value=0, max_value=5))

    def pair_filter(source_id: int, target_id: int) -> bool:
        return (source_id * 31 + target_id + salt) % 4 != 0

    engine = FlatImagesEngine(query, pair_filter=pair_filter)
    for leaf in list(query.leaves()):
        if not leaf.is_root and not leaf.is_output:
            engine.is_redundant_leaf(leaf)
    _delete_random_leaves(data.draw, query, engine, rounds=3)
    _assert_engines_agree(
        engine, FlatImagesEngine(query, pair_filter=pair_filter), query
    )


# ---------------------------------------------------------------------------
# Differential: incremental drivers vs the from-scratch baseline
# (100 + 60 + 40 + 30 + 15 = 245 seeded workloads)
# ---------------------------------------------------------------------------


def _random_workload(seed: int, size: int = 10) -> TreePattern:
    base = random_query(size, types=TYPES, seed=seed)
    return duplicate_random_branch(base, seed=seed)


@pytest.mark.parametrize("seed", range(100))
def test_cim_incremental_matches_rebuild(seed):
    query = _random_workload(seed)
    fast = cim_minimize(query)
    slow = cim_minimize(query, incremental=False)
    assert fast.eliminated == slow.eliminated
    assert fast.pattern.isomorphic(slow.pattern)
    assert equivalent(fast.pattern, query)
    assert is_minimal(fast.pattern)


@pytest.mark.parametrize("seed", range(60))
def test_acim_incremental_matches_rebuild(seed):
    """ACIM runs exercise the virtual-target maintenance: constraints with
    in-query targets make augmentation produce virtual rows."""
    query = _random_workload(seed, size=8)
    pool = sorted(query.node_types())
    ics = (
        relevant_constraints(query, 3, target_pool=pool, seed=seed)
        if len(pool) >= 2
        else []
    )
    fast = acim_minimize(query, ics)
    slow = acim_minimize(query, ics, incremental=False)
    assert fast.eliminated == slow.eliminated
    assert fast.virtual_count == slow.virtual_count
    assert fast.pattern.isomorphic(slow.pattern)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_elimination_orders_match_rebuild(seed):
    """With the same seed both paths draw the same elimination order, so
    the runs must agree deletion-for-deletion, not just up to iso."""
    query = _random_workload(seed, size=12)
    fast = cim_minimize(query, seed=seed, collect_witnesses=True)
    slow = cim_minimize(query, seed=seed, incremental=False, collect_witnesses=True)
    assert fast.eliminated == slow.eliminated
    assert fast.witnesses == slow.witnesses


@pytest.mark.parametrize("seed", range(30))
def test_incremental_matches_naive_cim(seed):
    query = _random_workload(seed, size=9)
    fast = cim_minimize(query)
    naive = cim_minimize_naive(query)
    assert fast.pattern.isomorphic(naive.pattern)


@pytest.mark.parametrize("seed", range(15))
def test_incremental_matches_bruteforce(seed):
    query = _random_workload(seed, size=5)
    fast = cim_minimize(query)
    best = exhaustive_minimize(query)
    assert fast.pattern.size == best.size
    assert equivalent(fast.pattern, best)


class TestNestedVirtualTargets:
    """Witness subtrees: virtual targets parented on virtual targets."""

    def test_delete_leaf_drops_whole_witness_subtree(self):
        pattern = TreePattern("a", root_is_output=True)
        b = pattern.add_child(pattern.root, "b", EdgeKind.CHILD)
        pattern.add_child(pattern.root, "c", EdgeKind.CHILD)
        virtual = [
            VirtualTarget(-1, "x", b.id, EdgeKind.CHILD),
            VirtualTarget(-2, "y", -1, EdgeKind.CHILD),
            VirtualTarget(-3, "z", -2, EdgeKind.DESCENDANT),
            VirtualTarget(-4, "x", pattern.root.id, EdgeKind.CHILD),
        ]
        engine = FlatImagesEngine(pattern, virtual)
        assert -3 in live_tables(engine)["descendants"][b.id]
        pattern.delete_leaf(b)
        dropped = engine.delete_leaf(b)
        assert [vt.id for vt in dropped] == [-1, -2, -3]
        assert [vt.id for vt in engine.virtual] == [-4]
        assert live_ids(engine).isdisjoint({-1, -2, -3})
        assert -4 in live_ids(engine)

    def test_extra_types_make_virtual_reachable_by_other_types(self):
        pattern = TreePattern("a", root_is_output=True)
        pattern.add_child(pattern.root, "c", EdgeKind.CHILD)
        vt = VirtualTarget(
            -1, "b", pattern.root.id, EdgeKind.CHILD, extra_types=frozenset({"c"})
        )
        engine = FlatImagesEngine(pattern, [vt])
        leaf = pattern.find("c")[0]
        # The c-leaf can map onto the b∧c witness, so it is redundant.
        assert engine.is_redundant_leaf(leaf)
