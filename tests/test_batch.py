"""Tests for the batch backend (``repro.batch``).

The load-bearing guarantee is *drop-in equivalence*: for every workload
and every ``jobs``/``memoize`` setting, ``BatchMinimizer`` must return
byte-for-byte the same minimal patterns, in the same order, as the naive
serial loop ``[minimize(q, ics) for q in workload]``. The differential
sweeps here pin that over hundreds of seeded workloads, with and without
constraints.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
from types import SimpleNamespace

import pytest

from repro.api import MinimizeOptions, Session
from repro.batch import (
    BatchMinimizer,
    WorkerPool,
    evaluate_batch,
    minimize_batch,
    process_map,
    resolve_jobs,
)
from repro.batch.executor import default_chunksize, use_pool
from repro.constraints.model import parse_constraints
from repro.core.pipeline import minimize
from repro.data.generate import random_tree
from repro.matching.evaluator import ENGINES, evaluate
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.workloads import batch_workload, isomorphic_shuffle, random_query
from repro.workloads.icgen import relevant_constraints

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


def serial_loop(queries, constraints):
    return [to_sexpr(minimize(q, constraints).pattern) for q in queries]


def random_workload(seed: int, *, n_queries: int = 6, max_size: int = 8):
    """A small random workload with duplicate structures mixed in."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < n_queries:
        base = random_query(
            rng.randint(1, max_size), types=["a", "b", "c"], rng=rng
        )
        queries.append(base)
        if rng.random() < 0.5 and len(queries) < n_queries:
            queries.append(isomorphic_shuffle(base, rng=rng))
    rng.shuffle(queries)
    return queries


class TestDifferential:
    """BatchMinimizer == serial loop, byte for byte."""

    @pytest.mark.parametrize("offset", range(0, 200, 25))
    def test_random_workloads_without_constraints(self, offset):
        for seed in range(offset, offset + 25):
            queries = random_workload(seed)
            assert (
                [to_sexpr(i.pattern) for i in minimize_batch(queries, [])]
                == serial_loop(queries, [])
            ), f"diverged without constraints at seed {seed}"

    @pytest.mark.parametrize("offset", range(0, 200, 25))
    def test_random_workloads_with_constraints(self, offset):
        for seed in range(offset, offset + 25):
            queries = random_workload(seed)
            constraints = list(CONSTRAINTS) + relevant_constraints(
                queries[0], 3, seed=seed
            )
            assert (
                [to_sexpr(i.pattern) for i in minimize_batch(queries, constraints)]
                == serial_loop(queries, constraints)
            ), f"diverged under constraints at seed {seed}"

    @pytest.mark.parametrize("kind", ("fig7", "fig8", "mixed"))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_paper_workloads_all_jobs(self, kind, jobs):
        queries, constraints = batch_workload(
            20, kind=kind, distinct=4, size=16, seed=11
        )
        batch = minimize_batch(queries, constraints, MinimizeOptions(jobs=jobs))
        assert [to_sexpr(i.pattern) for i in batch] == serial_loop(
            queries, constraints
        )

    @pytest.mark.parametrize("kind", ("fig7", "fig8", "mixed"))
    def test_paper_workloads_at_pool_width(self, kind):
        """A pool of up to four workers on 12 queries of 4 structures:
        the serial loop's bytes, and every repeat replayed."""
        queries, constraints = batch_workload(12, kind=kind, distinct=4, size=20, seed=7)
        options = MinimizeOptions(jobs=min(4, os.cpu_count() or 1))
        with BatchMinimizer(constraints, options) as minimizer:
            batch = minimizer.minimize_all(queries)
        assert [to_sexpr(i.pattern) for i in batch] == serial_loop(
            queries, constraints
        )
        assert batch.stats.cache_hits == len(queries) - batch.stats.distinct

    @pytest.mark.parametrize("memoize", (True, False))
    def test_memoize_toggle_is_invisible(self, memoize):
        queries, constraints = batch_workload(
            15, kind="fig8", distinct=3, size=12, seed=5
        )
        minimizer = BatchMinimizer(constraints, MinimizeOptions(memoize=memoize))
        batch = minimizer.minimize_all(queries)
        assert [to_sexpr(i.pattern) for i in batch] == serial_loop(
            queries, constraints
        )
        assert batch.stats.cache_hits == (12 if memoize else 0)

    def test_eliminated_nodes_match_serial(self):
        queries, constraints = batch_workload(
            10, kind="fig7", distinct=2, size=16, seed=3
        )
        batch = minimize_batch(queries, constraints)
        for item, query in zip(batch, queries):
            run = minimize(query, constraints)
            expected = []
            if run.cdm is not None:
                expected += [(i, t) for i, t, _rule in run.cdm.eliminated]
            if run.acim is not None:
                expected += list(run.acim.eliminated)
            assert item.eliminated == expected


class TestBatchMinimizer:
    def test_items_in_input_order_with_metadata(self):
        queries, constraints = batch_workload(
            8, kind="fig8", distinct=2, size=10, seed=1
        )
        batch = BatchMinimizer(constraints).minimize_all(queries)
        assert len(batch) == 8
        assert [item.index for item in batch] == list(range(8))
        for item, query in zip(batch, queries):
            assert item.input_size == query.size
            assert item.removed_count == query.size - item.pattern.size
        assert len(batch.patterns()) == 8

    def test_cache_persists_across_calls(self):
        queries, constraints = batch_workload(
            6, kind="fig8", distinct=2, size=10, seed=2
        )
        minimizer = BatchMinimizer(constraints)
        first = minimizer.minimize_all(queries)
        assert first.stats.cache_hits == 4
        assert minimizer.cache_size == 2
        second = minimizer.minimize_all(queries)
        assert second.stats.cache_hits == 6  # everything replays now
        assert [to_sexpr(i.pattern) for i in second] == [
            to_sexpr(i.pattern) for i in first
        ]

    def test_single_query_wrapper(self):
        query = random_workload(9)[0]
        minimizer = BatchMinimizer(CONSTRAINTS)
        assert to_sexpr(minimizer.minimize(query).pattern) == to_sexpr(
            minimize(query, CONSTRAINTS).pattern
        )

    def test_stats_accounting(self):
        queries, constraints = batch_workload(
            12, kind="mixed", distinct=3, size=12, seed=4
        )
        batch = minimize_batch(queries, constraints)
        stats = batch.stats
        assert stats.queries == 12
        assert stats.distinct == 3
        assert stats.cache_hits == 9
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.total_seconds >= 0
        counters = stats.counters()
        assert counters["queries"] == 12 and counters["hit_rate"] == 0.75
        # Engine counters aggregate over the 3 representatives only —
        # cache hits do no images-engine work.
        assert batch.images_stats.engine_builds == 3

    def test_empty_workload(self):
        batch = minimize_batch([], CONSTRAINTS)
        assert len(batch) == 0 and batch.stats.queries == 0

    def test_no_key_table_stays_on_the_callers_patterns(self):
        # Fresh queries and replays alike, certified or not: the
        # fingerprint's subtree-key table is per call, never memoized on
        # a pattern the caller owns. Certified replays re-check the
        # memo's own copies, which keep theirs.
        queries, constraints = batch_workload(
            12, kind="mixed", distinct=3, size=12, seed=4
        )
        for options in (MinimizeOptions(), MinimizeOptions(certify=True)):
            minimizer = BatchMinimizer(constraints, options)
            for _ in range(2):  # cold, then all replays
                batch = minimizer.minimize_all(queries)
                assert not any(hasattr(q, "_subtree_keys_memo") for q in queries)
            assert batch.stats.cache_hits == 12
            assert batch.stats.certified == (12 if options.certify else 0)


class TestExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_default_chunksize(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(100, 4) == 100 // 16

    def test_serial_map_preserves_order(self):
        """Payloads that all stay in process (none pickles) run through
        ``local`` in input order, and no worker is ever started."""
        payloads = [lambda: 3, lambda: 1, lambda: 2]
        with WorkerPool(2) as pool:
            assert process_map(_call, payloads, pool=pool) == [3, 1, 2]
        assert pool.recreations == 0

    def test_parallel_map_preserves_order(self):
        with WorkerPool(2) as pool:
            assert process_map(_square, list(range(20)), pool=pool) == [
                i * i for i in range(20)
            ]

    def test_unpicklable_payloads_fall_back_to_serial(self):
        payloads = [1, lambda: 2, 3]  # the lambda cannot cross a process
        with WorkerPool(2) as pool:
            assert process_map(_typename, payloads, pool=pool) == [
                "int",
                "function",
                "int",
            ]

    def test_crashed_worker_falls_back_to_serial(self):
        """A worker hard-crashing (BrokenProcessPool) must not lose the
        batch: process_map reruns everything serially in-process."""
        with WorkerPool(2) as pool:
            assert process_map(_crash_in_worker, list(range(8)), pool=pool) == [
                i * 10 for i in range(8)
            ]

    def test_unstartable_pool_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("cannot start process pool")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _BrokenPool
        )
        with WorkerPool(2) as pool:
            assert process_map(_square, list(range(6)), pool=pool) == [
                i * i for i in range(6)
            ]

    def test_payloads_pickled_exactly_once(self):
        """The picklability probe's bytes are what the pool ships — the
        payload object graph is never serialized a second time."""
        _CountingPayload.pickles = 0
        payloads = [_CountingPayload(i) for i in range(10)]
        with WorkerPool(2) as pool:
            assert process_map(_payload_value, payloads, pool=pool) == list(range(10))
        assert _CountingPayload.pickles == len(payloads)

    def test_serial_path_never_pickles(self, pickle_spy):
        """``jobs=1`` never reaches a pool: neither the queries nor the
        closure are pickled."""
        assert not any(use_pool(1, n) for n in range(12))
        queries = [parse_xpath(q) for q in ("a/b[c][c]", "a//b", "a/b/c")]
        with BatchMinimizer(CONSTRAINTS, MinimizeOptions(memoize=False)) as minimizer:
            minimizer.minimize_all(queries)
        assert pickle_spy.dumped == [] and pickle_spy.loaded == []


@pytest.fixture
def pickle_spy(monkeypatch):
    """Records the type name of everything ``pickle.dumps`` /
    ``pickle.loads`` handle in this process during the test."""
    spy = SimpleNamespace(dumped=[], loaded=[])
    real_dumps, real_loads = pickle.dumps, pickle.loads

    def dumps(obj, *args, **kwargs):
        spy.dumped.append(type(obj).__name__)
        return real_dumps(obj, *args, **kwargs)

    def loads(data, *args, **kwargs):
        obj = real_loads(data, *args, **kwargs)
        spy.loaded.append(type(obj).__name__)
        return obj

    monkeypatch.setattr(pickle, "dumps", dumps)
    monkeypatch.setattr(pickle, "loads", loads)
    return spy


def _live_children() -> set:
    return {process.pid for process in multiprocessing.active_children()}


def _worker_sees_store(_):
    from repro.core.oracle_cache import global_store

    return global_store() is not None


class TestPoolLifetime:
    """Only worker processes run a pool initializer, a closure is pickled
    only when a pool is built, and every pool dies with its owner."""

    QUERIES = ("a/b[c][c]", "a//b", "a/b/c", "a[b][c]//c")

    def queries(self):
        return [parse_xpath(q) for q in self.QUERIES]

    def test_jobs1_session_never_initializes_a_worker_in_process(
        self, monkeypatch, pickle_spy
    ):
        from repro.batch import evaluation, minimizer

        calls = []
        monkeypatch.setattr(minimizer, "_init_worker", lambda *a: calls.append(a))
        monkeypatch.setattr(evaluation, "_init_eval_worker", lambda *a: calls.append(a))
        forest = [random_tree(["a", "b", "c"], size=15, seed=s) for s in range(3)]
        with Session(constraints=CONSTRAINTS) as session:
            session.minimize_many(self.queries())
            session.minimize(self.queries()[0])
            session.update_constraints(add="c -> a")
            session.minimize_many(self.queries())
            session.evaluate(self.queries(), forest)
            assert session.equivalent(self.queries()[0], self.queries()[0])
        assert calls == []
        assert "ConstraintRepository" not in pickle_spy.loaded

    def test_jobs1_minimizer_and_update_pickle_no_closure(self, pickle_spy):
        BatchMinimizer(CONSTRAINTS)
        with Session(constraints=CONSTRAINTS) as session:
            session.minimize(self.queries()[0])
            session.update_constraints(add="c -> a")
            session.update_constraints(drop="c -> a")
        assert "ConstraintRepository" not in pickle_spy.dumped

    def test_pooled_minimizer_pickles_the_closure_once(self, pickle_spy):
        with BatchMinimizer(CONSTRAINTS, MinimizeOptions(jobs=2, memoize=False)) as m:
            assert "ConstraintRepository" not in pickle_spy.dumped
            for _ in range(3):
                m.minimize_all(self.queries())
        assert pickle_spy.dumped.count("ConstraintRepository") == 1
        assert "ConstraintRepository" not in pickle_spy.loaded

    def test_one_shot_minimize_batch_leaves_no_live_worker(self):
        before = _live_children()
        batch = minimize_batch(self.queries(), CONSTRAINTS, MinimizeOptions(jobs=2))
        assert batch.executor_stats.dispatched_chunks > 0
        assert _live_children() <= before

    def test_one_shot_evaluate_batch_leaves_no_live_worker(self):
        forest = [random_tree(["a", "b", "c"], size=15, seed=s) for s in range(4)]
        before = _live_children()
        answers = evaluate_batch(self.queries(), forest, jobs=2)
        assert answers == [evaluate(q, forest) for q in self.queries()]
        assert _live_children() <= before

    def test_closed_session_leaves_no_live_worker(self):
        before = _live_children()
        with Session(MinimizeOptions(jobs=2), constraints=CONSTRAINTS) as session:
            session.minimize_many(self.queries())
            assert _live_children() - before  # the warm pool is up
        assert _live_children() <= before

    def test_jobs2_session_reuses_one_pool(self):
        rng = random.Random(5)
        with Session(
            MinimizeOptions(jobs=2, memoize=False), constraints=CONSTRAINTS
        ) as session:
            for _ in range(3):
                queries = [
                    random_query(6, types=["a", "b", "c"], rng=rng) for _ in range(4)
                ]
                results = session.minimize_many(queries)
                assert [to_sexpr(r.pattern) for r in results] == serial_loop(
                    queries, CONSTRAINTS
                )
            pool = session._minimizer_for(None)._pool
            assert pool is not None and pool.recreations == 1

    def test_pool_workers_do_not_inherit_the_open_store(self, tmp_path):
        """Workers start from a fresh process, not a fork of a parent that
        runs the store's write-behind thread and holds it as the
        process-wide oracle store."""
        from repro.core.oracle_cache import global_store

        options = MinimizeOptions(store_path=str(tmp_path / "store.db"))
        with Session(options, constraints=CONSTRAINTS) as session:
            session.minimize(self.queries()[0])
            assert global_store() is session.store
            with WorkerPool(2) as pool:
                seen = process_map(_worker_sees_store, list(range(4)), pool=pool)
        assert seen == [False] * 4


def _call(thunk):
    return thunk()


def _square(x):
    return x * x


def _typename(x):
    return type(x).__name__


def _crash_in_worker(x):
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        os._exit(1)  # hard-kill the worker: the pool breaks, no exception
    return x * 10


class _CountingPayload:
    """Counts parent-side pickling passes via ``__reduce__``."""

    pickles = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountingPayload, (self.value,))


def _payload_value(p):
    return p.value


class TestEvaluateBatch:
    @pytest.fixture(scope="class")
    def forest(self):
        return [random_tree(["a", "b", "c"], size=25, seed=s) for s in range(4)]

    @pytest.fixture(scope="class")
    def queries(self):
        rng = random.Random(13)
        return [
            random_query(rng.randint(1, 5), types=["a", "b", "c"], rng=rng)
            for _ in range(6)
        ]

    @pytest.mark.parametrize("jobs", (1, 3))
    def test_matches_evaluate_per_query(self, forest, queries, jobs):
        answers = evaluate_batch(queries, forest, jobs=jobs)
        assert answers == [evaluate(q, forest) for q in queries]

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "pathstack"])
    def test_all_engines_agree(self, forest, queries, engine):
        assert evaluate_batch(queries, forest, engine=engine) == evaluate_batch(
            queries, forest
        )

    def test_pathstack_rejects_branching_queries(self, forest):
        branching = random_query(6, types=["a", "b"], max_fanout=3, seed=0)
        while all(len(n.children) <= 1 for n in branching.nodes()):
            branching = random_query(8, types=["a", "b"], max_fanout=4, seed=1)
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError, match="linear"):
            evaluate_batch([branching], forest, engine="pathstack")

    def test_unknown_engine_fails_fast(self, forest, queries):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate_batch(queries, forest, engine="nope")


class TestBatchWorkload:
    def test_deterministic(self):
        a = batch_workload(10, seed=42)
        b = batch_workload(10, seed=42)
        assert [to_sexpr(q) for q in a[0]] == [to_sexpr(q) for q in b[0]]
        assert a[1] == b[1]

    @pytest.mark.parametrize("kind", ("fig7", "fig8", "mixed"))
    def test_counts_and_duplication(self, kind):
        queries, constraints = batch_workload(
            12, kind=kind, distinct=4, size=16, seed=0
        )
        assert len(queries) == 12
        assert constraints
        from repro.core.fingerprint import fingerprint

        assert 1 <= len({fingerprint(q) for q in queries}) <= 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            batch_workload(0)
        with pytest.raises(ValueError):
            batch_workload(5, kind="fig99")
        with pytest.raises(ValueError):
            batch_workload(5, distinct=0)
