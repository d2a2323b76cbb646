"""Differential and property tests for the containment-oracle cache.

The load-bearing guarantee is *byte-for-byte equivalence*: with the
cross-query oracle cache enabled, every oracle answer and every
minimizer output must be exactly what the uncached code path produces.
The differential sweeps here pin that over
hundreds of seeded workloads; the hypothesis suites pin the two
soundness arguments the cache rests on — remap invariance of the DP
table under node-id relabeling, and isomorphism implying two-way
containment (the ``equivalent`` fast path).
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api import MinimizeOptions
from repro.batch import minimize_batch
from repro.constraints.model import parse_constraints
from repro.core.acim import acim_minimize
from repro.core.cdm import cdm_minimize
from repro.core.cim import cim_minimize
from repro.core.containment import (
    ContainmentStats,
    equivalent,
    is_contained_in,
    mapping_targets,
)
from repro.core.edges import EdgeKind
from repro.core.oracle_cache import (
    ContainmentOracleCache,
    OracleCacheStats,
    global_cache,
    global_enabled,
    oracle_cache_disabled,
    reset_global_cache,
    set_global_enabled,
)
from repro.core.pattern import TreePattern
from repro.core.pipeline import minimize
from repro.parsing.sexpr import to_sexpr
from repro.workloads import batch_workload, isomorphic_shuffle, random_query
from repro.workloads.querygen import duplicate_random_branch

from conftest import incremental_workload

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


@pytest.fixture(autouse=True)
def _fresh_global_cache():
    """Isolate every test: fresh process-wide cache, switch restored."""
    previous = global_enabled()
    set_global_enabled(True)
    reset_global_cache()
    yield
    set_global_enabled(previous)
    reset_global_cache()


def _random_pair(rng: random.Random) -> tuple[TreePattern, TreePattern]:
    """A (source, target) pair with enough shared structure for the DP
    to produce non-trivial tables."""
    target = duplicate_random_branch(
        random_query(rng.randint(2, 10), types=["a", "b", "c"], rng=rng), rng=rng
    )
    source = random_query(rng.randint(1, 6), types=["a", "b", "c"], rng=rng)
    return source, target


# ---------------------------------------------------------------------------
# Cache unit behaviour
# ---------------------------------------------------------------------------


class TestCacheUnit:
    def test_lookup_remaps_onto_caller_ids(self):
        rng = random.Random(7)
        source, target = _random_pair(rng)
        cache = ContainmentOracleCache()
        reference = mapping_targets(source, target, cache=cache)

        shuffled_source = isomorphic_shuffle(source, seed=1)
        shuffled_target = isomorphic_shuffle(target, seed=2)
        remapped = cache.lookup(shuffled_source, shuffled_target)
        assert remapped is not None
        assert remapped == mapping_targets(shuffled_source, shuffled_target, cache=None)
        assert cache.stats.hits == 1
        assert cache.stats.remapped_nodes == len(reference)

    def test_store_snapshots_patterns(self):
        """Minimizers mutate patterns right after running the oracle on
        them; the cache must have copied, not aliased."""
        source = random_query(5, types=["a", "b"], seed=3)
        target = duplicate_random_branch(source, seed=3)
        cache = ContainmentOracleCache()
        mapping_targets(source, target, cache=cache)
        probe_s, probe_t = source.copy(), target.copy()

        leaf = next(n for n in target.leaves() if not n.is_root and not n.is_output)
        target.delete_leaf(leaf)

        remapped = cache.lookup(probe_s, probe_t)
        assert remapped == mapping_targets(probe_s, probe_t, cache=None)

    def test_lru_eviction(self):
        cache = ContainmentOracleCache(maxsize=2)
        queries = [random_query(4, types=["a", "b", "c"], seed=s) for s in range(3)]
        for q in queries:
            mapping_targets(q, q, cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.stats.stores == 3
        # The first-stored pair was the LRU victim.
        assert cache.lookup(queries[0], queries[0]) is None
        assert cache.lookup(queries[2], queries[2]) is not None

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            ContainmentOracleCache(maxsize=0)

    def test_clear_keeps_counters(self):
        cache = ContainmentOracleCache()
        q = random_query(4, seed=0)
        mapping_targets(q, q, cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.stores == 1

    def test_stats_counters_dict(self):
        stats = OracleCacheStats(hits=3, misses=1, stores=1)
        counters = stats.counters()
        assert counters["oracle_cache_hits"] == 3
        assert counters["oracle_cache_hit_rate"] == pytest.approx(0.75)
        assert stats.lookups == 4


class TestGlobalSwitch:
    def test_disable_enable(self):
        assert global_cache() is not None
        set_global_enabled(False)
        assert global_cache() is None
        set_global_enabled(True)
        assert global_cache() is not None

    def test_context_manager_restores(self):
        assert global_enabled()
        with oracle_cache_disabled():
            assert not global_enabled()
            assert global_cache() is None
        assert global_enabled()

    def test_scope_is_the_callers_alone(self):
        """A scope covers its own thread and the ``asyncio.to_thread``
        work it starts; every other thread keeps a live cache."""
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def scoped():
            with oracle_cache_disabled():
                seen["scoped"] = global_cache()
                seen["to_thread"] = asyncio.run(asyncio.to_thread(global_cache))
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=scoped)
        worker.start()
        try:
            assert inside.wait(10)
            seen["other"] = global_cache()
        finally:
            release.set()
            worker.join()
        assert seen["scoped"] is None and seen["to_thread"] is None
        assert seen["other"] is not None
        assert global_enabled()

    def test_global_cache_serves_repeats(self):
        q = random_query(6, types=["a", "b"], seed=11)
        dup = duplicate_random_branch(q, seed=11)
        stats = ContainmentStats()
        mapping_targets(dup, q, stats=stats)
        mapping_targets(dup, q, stats=stats)
        assert stats.oracle_cache_misses == 1
        assert stats.oracle_cache_hits == 1

    def test_cache_none_bypasses(self):
        q = random_query(6, types=["a", "b"], seed=11)
        stats = ContainmentStats()
        mapping_targets(q, q, stats=stats, cache=None)
        mapping_targets(q, q, stats=stats, cache=None)
        assert stats.oracle_cache_hits == 0
        assert stats.oracle_cache_misses == 0
        assert global_cache() is not None and len(global_cache()) == 0


# ---------------------------------------------------------------------------
# Differential sweeps: cached == uncached, byte for byte
# ---------------------------------------------------------------------------


class TestOracleDifferential:
    """mapping_targets through a cache == the raw DP, across 400 seeded
    workloads (each seed exercises a cold store plus a remapped hit)."""

    @pytest.mark.parametrize("offset", range(0, 400, 50))
    def test_seeded_workloads(self, offset):
        for seed in range(offset, offset + 50):
            rng = random.Random(seed)
            source, target = _random_pair(rng)
            cache = ContainmentOracleCache()

            uncached = mapping_targets(source, target, cache=None)
            cold = mapping_targets(source, target, cache=cache)
            assert cold == uncached, f"cold store diverged (seed {seed})"

            # A structurally identical pair under fresh ids and shuffled
            # sibling order must be served by remap, identically.
            s2 = isomorphic_shuffle(source, rng=rng)
            t2 = isomorphic_shuffle(target, rng=rng)
            hit = mapping_targets(s2, t2, cache=cache)
            assert hit == mapping_targets(s2, t2, cache=None), (
                f"remapped hit diverged (seed {seed})"
            )
            assert cache.stats.hits >= 1, f"expected a cache hit (seed {seed})"

    @pytest.mark.parametrize("offset", range(0, 100, 25))
    def test_containment_predicates_agree(self, offset):
        for seed in range(offset, offset + 25):
            rng = random.Random(1000 + seed)
            q1, q2 = _random_pair(rng)
            with oracle_cache_disabled():
                raw = (
                    is_contained_in(q1, q2),
                    is_contained_in(q2, q1),
                    equivalent(q1, q2),
                )
            cached = (
                is_contained_in(q1, q2),
                is_contained_in(q2, q1),
                equivalent(q1, q2),
            )
            # Twice: the second round is served from the warm cache.
            assert cached == raw, f"cold round diverged (seed {seed})"
            assert (
                is_contained_in(q1, q2),
                is_contained_in(q2, q1),
                equivalent(q1, q2),
            ) == raw, f"warm round diverged (seed {seed})"

    @pytest.mark.parametrize("count", (8, 16, 32))
    def test_repeated_structure_pair_stream(self, count):
        """The regime the cache exists for: ``4 * count`` cross-query
        checks over a Figure 8 workload of ``count`` size-90 queries on
        4 structures, so the same content repeats under new node ids."""
        queries, _ = batch_workload(count, kind="fig8", distinct=4, size=90, seed=0)
        rng = random.Random(1)
        pairs = [(rng.choice(queries), rng.choice(queries)) for _ in range(4 * count)]
        cache = ContainmentOracleCache()
        cached = [mapping_targets(s, t, cache=cache) for s, t in pairs]
        assert cached == [mapping_targets(s, t, cache=None) for s, t in pairs]
        assert cache.stats.hits > 0
        assert cache.stats.collisions == 0


class TestMinimizerDifferential:
    """CIM / ACIM / CDM / pipeline outputs are unchanged by the
    process-wide oracle cache."""

    @pytest.mark.parametrize("offset", range(0, 120, 30))
    def test_cim_acim_unchanged(self, offset):
        for seed in range(offset, offset + 30):
            rng = random.Random(seed)
            q = duplicate_random_branch(
                random_query(rng.randint(3, 18), types=["a", "b", "c"], rng=rng),
                rng=rng,
            )
            on = acim_minimize(q)
            with oracle_cache_disabled():
                off = acim_minimize(q)
            assert on.eliminated == off.eliminated, f"seed {seed}"
            assert to_sexpr(on.pattern) == to_sexpr(off.pattern), f"seed {seed}"

    @pytest.mark.parametrize("shape", ("right-deep", "bushy"))
    def test_acim_under_constraints_unchanged(self, shape):
        for size in (8, 21, 34):
            q, repo = incremental_workload(size, shape=shape)
            on = acim_minimize(q, repo)
            with oracle_cache_disabled():
                off = acim_minimize(q, repo)
            assert on.eliminated == off.eliminated
            assert to_sexpr(on.pattern) == to_sexpr(off.pattern)

    def test_cdm_unchanged(self):
        """CDM runs outside the oracle-cache subsystem entirely (the
        Figure 6 rules are direct structural matches, not containment
        checks), so disabling the cache cannot change its output."""
        for seed in range(60):
            q = random_query(24, types=["a", "b", "c"], seed=seed)
            on = cdm_minimize(q, CONSTRAINTS)
            with oracle_cache_disabled():
                off = cdm_minimize(q, CONSTRAINTS)
            assert on.eliminated == off.eliminated, f"seed {seed}"
            assert to_sexpr(on.pattern) == to_sexpr(off.pattern), f"seed {seed}"

    def test_pipeline_unchanged(self):
        for seed in range(40):
            rng = random.Random(seed)
            q = duplicate_random_branch(
                random_query(rng.randint(3, 14), types=["a", "b", "c"], rng=rng),
                rng=rng,
            )
            on = minimize(q, CONSTRAINTS)
            with oracle_cache_disabled():
                off = minimize(q, CONSTRAINTS)
            assert to_sexpr(on.pattern) == to_sexpr(off.pattern), f"seed {seed}"
            assert on.removed_count == off.removed_count, f"seed {seed}"

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_batch_composition(self, jobs):
        """The cache composes with BatchMinimizer: same patterns for
        every (jobs, oracle_cache) setting; workers rebuild their own."""
        queries, ics = batch_workload(10, kind="fig8", distinct=3, size=20, seed=5)
        on = minimize_batch(
            queries, ics, MinimizeOptions(jobs=jobs, memoize=False, oracle_cache=True)
        )
        with oracle_cache_disabled():
            off = minimize_batch(
                queries,
                ics,
                MinimizeOptions(jobs=jobs, memoize=False, oracle_cache=False),
            )
        assert [to_sexpr(p) for p in on.patterns()] == [
            to_sexpr(p) for p in off.patterns()
        ]


# ---------------------------------------------------------------------------
# Property tests (hypothesis)
# ---------------------------------------------------------------------------

TYPES = ["a", "b", "c"]


@st.composite
def patterns(draw, max_size: int = 8) -> TreePattern:
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


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns(), st.integers(min_value=0, max_value=10**6))
def test_remap_invariant_under_relabeling(source, target, seed):
    """The keying theorem: for any node-id relabeling / sibling reshuffle
    of a cached pair, the remapped table equals the direct DP."""
    cache = ContainmentOracleCache()
    mapping_targets(source, target, cache=cache)
    s2 = isomorphic_shuffle(source, seed=seed)
    t2 = isomorphic_shuffle(target, seed=seed + 1)
    hit = cache.lookup(s2, t2)
    assert hit is not None
    assert hit == mapping_targets(s2, t2, cache=None)


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns())
def test_equivalent_fast_path_agrees_with_two_pass_dp(q1, q2):
    """The ``equivalent`` fingerprint short-circuit never changes the
    answer of the two-DP-pass definition."""
    slow = is_contained_in(q1, q2, cache=None) and is_contained_in(
        q2, q1, cache=None
    )
    assert equivalent(q1, q2) == slow


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(min_value=0, max_value=10**6))
def test_equivalent_fast_path_fires_on_isomorphic_pairs(q, seed):
    shuffled = isomorphic_shuffle(q, seed=seed)
    stats = ContainmentStats()
    assert equivalent(q, shuffled, stats=stats)
    assert stats.equivalent_fast_path == 1


@settings(max_examples=60, deadline=None)
@given(patterns(max_size=7), st.integers(min_value=0, max_value=10**6))
def test_cim_differential_property(q, seed):
    assume(q.size >= 2)
    bloated = isomorphic_shuffle(duplicate_random_branch(q, seed=seed), seed=seed)
    on = cim_minimize(bloated)
    with oracle_cache_disabled():
        off = cim_minimize(bloated)
    assert on.eliminated == off.eliminated
    assert to_sexpr(on.pattern) == to_sexpr(off.pattern)


# ---------------------------------------------------------------------------
# Pending-slot hand-off regressions (the id-reuse poisoning bug)
# ---------------------------------------------------------------------------


class TestPendingHandoff:
    """The lookup→store hand-off must be validated by object identity and
    mutation stamp — never by ``id()``, which CPython reuses after GC."""

    def test_pending_slot_pins_the_looked_up_patterns(self):
        """A missed lookup's patterns stay strongly referenced until the
        matching store (or the next lookup) — so a *different* pattern
        allocated at a recycled address can never match the slot."""
        import gc
        import weakref

        cache = ContainmentOracleCache()
        source = random_query(4, types=["a", "b"], seed=11)
        target = random_query(5, types=["a", "b"], seed=12)
        assert cache.lookup(source, target) is None  # miss arms the slot
        refs = (weakref.ref(source), weakref.ref(target))
        del source, target
        gc.collect()
        # Alive: the pending slot holds strong references, which is what
        # makes identity (``is``) validation sound against id reuse.
        assert refs[0]() is not None and refs[1]() is not None

    def test_store_after_mutation_does_not_poison(self):
        """Mutating a pattern between the missed lookup and the store
        invalidates the hand-off: the entry must be keyed by the
        pattern's *current* shape, not the stale pre-mutation keys."""
        cache = ContainmentOracleCache()
        source = random_query(4, types=["a", "b"], seed=21)
        target = duplicate_random_branch(
            random_query(6, types=["a", "b"], seed=22), seed=22
        )
        assert cache.lookup(source, target) is None
        # Mutate the target after the miss (bumps its _version stamp).
        leaf = next(
            n for n in target.leaves() if not n.is_root and not n.is_output
        )
        target.delete_leaf(leaf)
        table = mapping_targets(source, target, cache=None)
        cache.store(source, target, table)
        # The entry must now hit for the *mutated* shape...
        probe_s, probe_t = source.copy(), target.copy()
        hit = cache.lookup(probe_s, probe_t)
        assert hit is not None
        assert hit == mapping_targets(probe_s, probe_t, cache=None)

    def test_interleaved_miss_then_foreign_store_recanonicalizes(self):
        """A store for a pair *other than* the pending one must not
        consume the slot: the correct entries land for both pairs."""
        cache = ContainmentOracleCache()
        s1 = random_query(4, types=["a", "b"], seed=31)
        t1 = random_query(5, types=["a", "b"], seed=32)
        s2 = random_query(3, types=["a", "c"], seed=33)
        t2 = random_query(6, types=["a", "c"], seed=34)
        assert cache.lookup(s1, t1) is None  # slot now pends (s1, t1)
        # A different pair is stored first (an interleaved caller).
        cache.store(s2, t2, mapping_targets(s2, t2, cache=None))
        cache.store(s1, t1, mapping_targets(s1, t1, cache=None))
        for s, t in ((s1, t1), (s2, t2)):
            probe_s, probe_t = s.copy(), t.copy()
            assert cache.lookup(probe_s, probe_t) == mapping_targets(
                probe_s, probe_t, cache=None
            )


# ---------------------------------------------------------------------------
# Stats-counter thread safety
# ---------------------------------------------------------------------------


class TestStatsUnderConcurrency:
    def test_hammered_counters_balance_exactly(self):
        """hits + misses must equal lookups *exactly* after a threaded
        hammer — increments outside the lock would drop counts."""
        import sys
        import threading

        cache = ContainmentOracleCache(maxsize=64)
        rng = random.Random(41)
        pairs = [_random_pair(rng) for _ in range(8)]
        for s, t in pairs:
            mapping_targets(s, t, cache=cache)
        per_thread = 150
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors: list = []

        def hammer(seed: int) -> None:
            try:
                local = random.Random(seed)
                barrier.wait()
                for _ in range(per_thread):
                    s, t = local.choice(pairs)
                    cache.lookup(
                        isomorphic_shuffle(s, seed=local.randint(0, 99)),
                        isomorphic_shuffle(t, seed=local.randint(0, 99)),
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force adversarial interleavings
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(n_threads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        total = n_threads * per_thread
        # The 8 seeding calls each counted one miss before storing.
        assert cache.stats.hits + cache.stats.misses == total + len(pairs)
        assert cache.stats.hits == total  # every pair was pre-seeded
