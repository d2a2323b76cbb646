"""Differential tests for live constraint churn.

The contract under test: after *any* sequence of live
``update_constraints`` calls, every answer a long-lived session (or
service) serves is byte-identical to a cold session built
directly on the post-churn constraint repository. Precise invalidation
may keep whatever it can prove safe (the closure-free oracle tier, the
persistent store's oracle rows) and must drop the rest (closure-keyed
replay memos) — and none of that is allowed to show up in served
bytes.

Covers 200+ seeded add/drop sequences on a warm session (with and
without the persistent store attached), churn racing in-flight
requests in the service, the idempotence of re-applied updates,
and the store-counter snapshot across ``close()``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.api import MinimizeOptions, Session
from repro.core.oracle_cache import global_cache, reset_global_cache
from repro.parsing.sexpr import to_sexpr
from repro.workloads.batchgen import isomorphic_shuffle
from repro.workloads.icgen import relevant_constraints
from repro.workloads.querygen import random_query


def norm(result) -> "tuple[str, tuple]":
    return to_sexpr(result.pattern), tuple(map(tuple, result.eliminated))


def make_pool(base, *, seed: int, count: int = 4):
    """Distinct triggering constraints over the query's own types."""
    types = sorted(base.node_types())
    target_pool = types if len(types) > 1 else None
    pool = []
    seen = set()
    attempt = 0
    while len(pool) < count and attempt < count * 10:
        for c in relevant_constraints(
            base, 2, target_pool=target_pool, seed=seed + attempt
        ):
            if c not in seen:
                seen.add(c)
                pool.append(c)
        attempt += 1
    return pool[:count]


def churn_sequence(session, base, pool, rng, *, toggles: int, probes: int):
    """Random add/drop toggles; after each, served answers must match a
    cold session on the post-churn base. Returns total invalidations."""
    active = set()
    invalidated = 0
    for _ in range(toggles):
        constraint = rng.choice(pool)
        if constraint in active:
            update = session.update_constraints(drop=[constraint])
        else:
            update = session.update_constraints(add=[constraint])
        # Maintain the mirror from what the update *reports*: adding a
        # constraint the closure already derives is a no-op that never
        # joins the base, so it must not join the mirror either.
        active.update(update.added)
        active.difference_update(update.dropped)
        invalidated += update.invalidated_replays
        assert update.new_digest == session.constraints_digest()
        with Session(MinimizeOptions(), constraints=sorted(active)) as cold:
            assert update.new_digest == cold.constraints_digest()
            for probe_index in range(probes):
                query = isomorphic_shuffle(base, seed=rng.randrange(1 << 30))
                assert norm(session.minimize(query)) == norm(cold.minimize(query)), (
                    f"served bytes diverged from cold session after churn "
                    f"(active={sorted(c.notation() for c in active)})"
                )
    return invalidated


class TestDifferentialChurn:
    def test_200_seeded_sequences(self):
        """Warm sessions under 200 random add/drop sequences never serve
        a byte different from the cold post-churn reference."""
        total_invalidated = 0
        for seed in range(200):
            rng = random.Random(seed)
            base = random_query(12, seed=seed)
            pool = make_pool(base, seed=seed * 7 + 1)
            if not pool:
                continue
            with Session(MinimizeOptions()) as session:
                # Warm the replay memo pre-churn so invalidation has
                # something to be precise about.
                session.minimize(isomorphic_shuffle(base, seed=seed))
                total_invalidated += churn_sequence(
                    session, base, pool, rng, toggles=3, probes=1
                )
        assert total_invalidated > 0, (
            "no sequence ever invalidated a replay — the differential "
            "suite is not exercising precise invalidation"
        )

    def test_sequences_with_persistent_store(self, tmp_path):
        """Same contract with the content-addressed store attached: the
        store's closure-keyed replays must never leak across churn."""
        for seed in range(8):
            rng = random.Random(1000 + seed)
            base = random_query(12, seed=400 + seed)
            pool = make_pool(base, seed=seed * 13 + 5)
            if not pool:
                continue
            options = MinimizeOptions(store_path=str(tmp_path / f"s{seed}.db"))
            with Session(options) as session:
                session.minimize(isomorphic_shuffle(base, seed=seed))
                churn_sequence(session, base, pool, rng, toggles=4, probes=2)

    def test_oracle_tier_survives_drop(self):
        """The closure-free containment-oracle tier is not invalidated
        by churn — and keeping it never changes served bytes."""
        reset_global_cache()
        try:
            base = random_query(14, seed=77)
            pool = make_pool(base, seed=99)
            assert pool
            from repro.core.containment import is_contained_in

            variant = isomorphic_shuffle(base, seed=1)
            is_contained_in(base, variant)
            is_contained_in(variant, base)
            before = len(global_cache())
            assert before > 0
            with Session(MinimizeOptions()) as session:
                update = session.update_constraints(add=[pool[0]])
                assert update.surviving_oracle_entries == len(global_cache())
                assert len(global_cache()) == before
                with Session(MinimizeOptions(), constraints=[pool[0]]) as cold:
                    assert norm(session.minimize(variant)) == norm(
                        cold.minimize(variant)
                    )
        finally:
            reset_global_cache()

    def test_idempotent_reapply(self):
        base = random_query(12, seed=5)
        pool = make_pool(base, seed=21)
        assert pool
        with Session(MinimizeOptions()) as session:
            first = session.update_constraints(add=[pool[0]])
            assert first.changed
            again = session.update_constraints(add=[pool[0]])
            assert not again.changed
            assert again.mode == "noop"
            assert again.new_digest == first.new_digest
            absent = session.update_constraints(drop=[pool[1]])
            assert not absent.changed

    def test_update_after_close_rejected(self):
        session = Session(MinimizeOptions())
        session.close()
        with pytest.raises(Exception):
            session.update_constraints(add=["a -> b"])


class TestServiceChurn:
    def test_churn_races_inflight_requests(self):
        """Fire a constraint update while a burst of requests is queued
        in the service: the burst is served under the old closure, the
        batcher cuts its batch short for the update, and every answer
        afterwards matches a cold session on the new constraints."""
        from repro.service import MinimizationService

        base = random_query(14, seed=31)
        pool = make_pool(base, seed=63)
        assert pool

        async def scenario():
            # A batch stays open up to max_wait, so the burst is still
            # accumulating when the update reaches the queue.
            async with MinimizationService(
                MinimizeOptions(), constraints=[], max_wait=0.5
            ) as service:
                inflight = [
                    asyncio.ensure_future(
                        service.submit(isomorphic_shuffle(base, seed=s))
                    )
                    for s in range(8)
                ]
                await asyncio.sleep(0)  # the burst reaches the queue first
                update = await service.update_constraints(add=[pool[0]])
                before = await asyncio.gather(*inflight)
                after = await asyncio.gather(
                    *(
                        service.submit(isomorphic_shuffle(base, seed=100 + s))
                        for s in range(4)
                    )
                )
                return update, before, after, service.counters()

        update, before, after, counters = asyncio.run(scenario())
        assert update.changed
        assert counters["flushes_churn"] >= 1
        assert counters["ic_updates"] == 1
        with Session(MinimizeOptions()) as old:
            for s, served in enumerate(before):
                query = isomorphic_shuffle(base, seed=s)
                assert norm(served) == norm(old.minimize(query))
        with Session(MinimizeOptions(), constraints=[pool[0]]) as cold:
            assert update.new_digest == cold.constraints_digest()
            for s, served in enumerate(after):
                query = isomorphic_shuffle(base, seed=100 + s)
                assert norm(served) == norm(cold.minimize(query))


class TestCounterSnapshots:
    def test_store_counters_survive_close(self, tmp_path):
        """Regression: ``counters()`` after ``close()`` must keep the
        final store tallies instead of dropping them to zero."""
        options = MinimizeOptions(store_path=str(tmp_path / "snap.db"))
        session = Session(options)
        try:
            session.minimize(random_query(12, seed=3))
        finally:
            session.close()
        # The write-behind queue flushes during close(); the snapshot
        # must be taken after that flush and then stay frozen.
        after = session.counters()
        assert after.get("store_writes", 0) > 0
        assert session.counters() == after

    def test_ic_update_counters_reported(self):
        base = random_query(12, seed=9)
        pool = make_pool(base, seed=17)
        assert pool
        with Session(MinimizeOptions()) as session:
            session.minimize(base)
            update = session.update_constraints(add=[pool[0]])
            assert update.invalidated_replays >= 1  # the warmed memo entry
            assert update.closure_size >= 1
            payload = update.to_json()
            assert payload["added"] == [pool[0].notation()]
            assert payload["mode"] in ("incremental", "full")
