"""Tests for the unified front-door API (``repro.api``).

The Session facade must be a *pure* re-packaging of the existing stack:
``Session.minimize`` / ``minimize_many`` byte-identical to the pipeline,
``Session.evaluate`` identical to the evaluators, options validated in
one place, and the scoped oracle-cache switch never leaking into global
state.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.api import MinimizeOptions, QueryResult, Session
from repro.batch import BatchMinimizer
from repro.constraints.model import parse_constraints
from repro.constraints.repository import ConstraintRepository
from repro.core import oracle_cache
from repro.core.pipeline import minimize
from repro.data.generate import random_tree
from repro.matching.evaluator import evaluate
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.workloads import batch_workload, isomorphic_shuffle, random_query

CONSTRAINTS = parse_constraints("a -> b; b ->> c; a ~ c")


def random_workload(seed: int, *, n_queries: int = 6, max_size: int = 8):
    rng = random.Random(seed)
    queries = []
    while len(queries) < n_queries:
        base = random_query(rng.randint(1, max_size), types=["a", "b", "c"], rng=rng)
        queries.append(base)
        if rng.random() < 0.5 and len(queries) < n_queries:
            queries.append(isomorphic_shuffle(base, rng=rng))
    rng.shuffle(queries)
    return queries


class TestMinimizeOptions:
    def test_defaults(self):
        options = MinimizeOptions()
        assert options.jobs == 1
        assert options.oracle_cache is True

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            MinimizeOptions(jobs=-1)
        for bad in (None, 0, "off"):
            with pytest.raises(ValueError, match="oracle_cache"):
                MinimizeOptions(oracle_cache=bad)

    def test_with_overrides(self):
        options = MinimizeOptions()
        pooled = options.with_overrides(jobs=2, memoize=False)
        assert pooled.jobs == 2 and pooled.memoize is False
        assert options.jobs == 1 and options.memoize  # frozen original untouched

    def test_strategy_is_retired(self):
        """Sessions always run CDM then ACIM (Theorem 5.3: the same query
        as ACIM alone, faster); there is no strategy knob to set."""
        import repro

        with pytest.raises(TypeError, match="strategy"):
            MinimizeOptions(strategy="acim")
        assert not hasattr(MinimizeOptions(), "use_cdm_prefilter")
        assert "STRATEGIES" not in repro.__all__


class TestSessionDifferential:
    """Session output == the bare pipeline, byte for byte."""

    @pytest.mark.parametrize("offset", (0, 50))
    def test_random_workloads(self, offset):
        for seed in range(offset, offset + 25):
            queries = random_workload(seed)
            with Session(constraints=CONSTRAINTS) as session:
                results = session.minimize_many(queries)
            assert [to_sexpr(r.pattern) for r in results] == [
                to_sexpr(minimize(q, CONSTRAINTS).pattern) for q in queries
            ], f"diverged at seed {seed}"

    @pytest.mark.parametrize("kind", ("fig7", "fig8"))
    def test_paper_workloads(self, kind):
        queries, constraints = batch_workload(12, kind=kind, distinct=3, size=14, seed=7)
        with Session(MinimizeOptions(jobs=2), constraints=constraints) as session:
            results = session.minimize_many(queries)
        assert [to_sexpr(r.pattern) for r in results] == [
            to_sexpr(minimize(q, constraints).pattern) for q in queries
        ]


class TestSession:
    def test_memo_replays_across_calls(self):
        query = parse_xpath("a/b[c][c]")
        with Session(constraints=CONSTRAINTS) as session:
            first = session.minimize(query)
            second = session.minimize(query)
        assert not first.cache_hit and second.cache_hit
        assert to_sexpr(first.pattern) == to_sexpr(second.pattern)
        assert second.fingerprint == first.fingerprint

    def test_counters_aggregate_across_calls(self):
        with Session(constraints=CONSTRAINTS) as session:
            session.minimize(parse_xpath("a/b[c][c]"))
            session.minimize(parse_xpath("a/b[c][c]"))
            counters = session.counters()
        assert counters["queries"] == 2
        assert counters["cache_hits"] == 1
        assert counters["hit_rate"] == pytest.approx(0.5)
        assert "jobs" not in counters  # a setting, not a counter

    def test_max_image_size_is_the_largest_over_queries(self):
        """Per-query maxima merge as a maximum, not a sum."""
        queries = ("a[b][b][b]", "a[b][b]", "a[b][b][b][b]")
        with Session() as session:
            sizes = [
                session.minimize(parse_xpath(q)).counters["max_image_size"]
                for q in queries
            ]
            counters = session.counters()
        assert sizes == [2, 1, 3]
        assert counters["max_image_size"] == 3

    def test_closure_is_counted_once(self):
        """The closure runs once per repository; the session's total
        counts it once however many batches follow, and a one-shot
        batch still reports it."""
        with Session(constraints=CONSTRAINTS) as session:
            for text in ("a[b]", "a[c]", "b[c]", "a[b][c]"):
                session.minimize(parse_xpath(text))
            closure_seconds = session._minimizer_for(None).closure_seconds
            counters = session.counters()
        assert closure_seconds > 0
        assert counters["closure_seconds"] == closure_seconds
        with BatchMinimizer(CONSTRAINTS) as minimizer:
            first = minimizer.minimize_all([parse_xpath("a[b]")])
            second = minimizer.minimize_all([parse_xpath("a[c]")])
        assert first.stats.closure_seconds == minimizer.closure_seconds > 0
        assert second.stats.closure_seconds == 0

    def test_equivalence_leaves_the_images_counters_alone(self):
        """The containment DP's base sets count under ``containment_``,
        apart from the images engine's base-candidate memo."""
        with Session() as session:
            session.minimize(parse_xpath("a[b][b][b]"))
            before = session.counters()
            assert session.equivalent(parse_xpath("a/b[c][c]"), parse_xpath("a/b[c]"))
            after = session.counters()
        for key in ("base_cache_hits", "base_cache_misses"):
            assert after[key] == before[key]
        assert (
            after["containment_base_cache_misses"]
            > before["containment_base_cache_misses"]
        )

    def test_constrained_equivalence_is_counted(self):
        """Equivalence under constraints counts its containment work, as
        absolute equivalence does: one oracle-cache lookup per direction,
        and the DP's base sets when the cache is off."""
        q1, q2 = parse_xpath("a/b[c][c]"), parse_xpath("a/b[c]")
        with Session(constraints=CONSTRAINTS) as session:
            assert session.equivalent(q1, q2)
            cached = session.counters()
        options = MinimizeOptions(oracle_cache=False)
        with Session(options, constraints=CONSTRAINTS) as session:
            assert session.equivalent(q1, q2)
            uncached = session.counters()
        assert (
            cached["containment_oracle_cache_hits"]
            + cached["containment_oracle_cache_misses"]
        ) == 2
        assert uncached["containment_base_cache_misses"] > 0

    def test_concurrent_calls_lose_no_count(self):
        """The session merges each call's stats under a lock: threads
        counting at once lose no update, even with a switch interval
        short enough to interleave every merge."""
        import sys
        import threading

        query = parse_xpath("a/b[c]")
        calls, workers = 300, 4
        with Session(MinimizeOptions(audit_rate=0)) as session:

            def work():
                for _ in range(calls):
                    session.equivalent(query, query)

            threads = [threading.Thread(target=work) for _ in range(workers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            counters = session.counters()
        assert counters["containment_equivalent_fast_path"] == calls * workers

    @pytest.mark.parametrize("enabled", (True, False))
    def test_only_equivalence_consults_the_oracle_cache(self, enabled, monkeypatch):
        """Minimization, the certificate checker and both audit paths
        never look up the containment-oracle cache, whatever
        ``oracle_cache`` says; equivalence does exactly when it is on."""
        lookups = []
        real = oracle_cache.ContainmentOracleCache.lookup

        def spy(cache, *args, **kwargs):
            lookups.append(1)
            return real(cache, *args, **kwargs)

        monkeypatch.setattr(oracle_cache.ContainmentOracleCache, "lookup", spy)
        options = MinimizeOptions(oracle_cache=enabled, certify=True)
        queries = [parse_xpath("a/b[c][c]"), parse_xpath("a[b][b]")]
        with Session(options, constraints=CONSTRAINTS) as session:
            results = session.minimize_many(queries)
            assert session.check_certificate(results[0])
            assert session.audit_result(results[0])  # checks the certificate
            uncertified = QueryResult(
                pattern=results[1].pattern, input_pattern=results[1].input_pattern
            )
            assert session.audit_result(uncertified)  # recomputes cold
            assert lookups == []
            assert session.equivalent(queries[0], parse_xpath("a/b[c]"))
        assert bool(lookups) is enabled

    def test_per_call_repo_overrides_default(self):
        query = parse_xpath("a[b][.//c]")
        with Session(constraints=CONSTRAINTS) as session:
            constrained = session.minimize(query)
            unconstrained = session.minimize(query, [])
        assert to_sexpr(constrained.pattern) == to_sexpr(
            minimize(query, CONSTRAINTS).pattern
        )
        assert to_sexpr(unconstrained.pattern) == to_sexpr(minimize(query, []).pattern)

    def test_closed_session_rejects_work(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.minimize(parse_xpath("a/b"))

    def test_scoped_oracle_cache_never_touches_global_switch(self):
        enabled_before = oracle_cache.global_enabled()
        with Session(MinimizeOptions(oracle_cache=False), constraints=CONSTRAINTS) as session:
            session.minimize(parse_xpath("a/b[c][c]"))
            # Inside minimize the scope applies; between calls it must not.
            assert oracle_cache.global_enabled() == enabled_before
        assert oracle_cache.global_enabled() == enabled_before

    def test_evaluate_single_and_batch(self):
        forest = [random_tree(["a", "b", "c"], size=25, seed=s) for s in range(3)]
        rng = random.Random(5)
        queries = [
            random_query(rng.randint(1, 5), types=["a", "b", "c"], rng=rng)
            for _ in range(4)
        ]
        with Session() as session:
            single = session.evaluate(queries[0], forest)
            many = session.evaluate(queries, forest)
        assert single == evaluate(queries[0], forest)
        assert many == [evaluate(q, forest) for q in queries]

    def test_equivalent(self):
        with Session(constraints=CONSTRAINTS) as session:
            assert session.equivalent(
                parse_xpath("a/b[c][c]"), parse_xpath("a/b[c]")
            )
            assert not session.equivalent(parse_xpath("a/b"), parse_xpath("a/c"))
            # Explicit empty repo: absolute equivalence only.
            assert session.equivalent(parse_xpath("a/b[c][c]"), parse_xpath("a/b[c]"), [])

    def test_rejects_non_options(self):
        with pytest.raises(TypeError, match="MinimizeOptions"):
            Session({"jobs": 2})

    def test_default_constraints_resolved_once_per_epoch(self, monkeypatch):
        """Keying a repository sorts the whole closure; after an update
        the session reuses the default it resolved, call after call."""
        query = parse_xpath("a/b[c][c]")
        with Session(constraints=CONSTRAINTS) as session:
            session.minimize(query)
            session.update_constraints(add="c -> a")
            default = session._minimizer_for(None).repository
            assert default.is_closed
            session.minimize(query)  # warms the new epoch's memo
            scans = []
            real_iter = ConstraintRepository.__iter__

            def spy(repo):
                if repo is default:
                    scans.append(1)
                return real_iter(repo)

            monkeypatch.setattr(ConstraintRepository, "__iter__", spy)
            for _ in range(5):
                assert session.minimize(query).cache_hit
            session.constraints_digest()
            session.constraints_info()
        assert scans == []

    def test_equivalent_closes_the_default_once(self, monkeypatch):
        import importlib

        closures = []
        for name in (
            "repro.batch.minimizer",
            "repro.core.pipeline",
            "repro.core.acim",
            "repro.core.chase",
            "repro.core.ic_containment",
            "repro.certify.checker",
        ):
            module = importlib.import_module(name)
            if hasattr(module, "closure"):
                real = module.closure
                monkeypatch.setattr(
                    module,
                    "closure",
                    lambda repo, _real=real: closures.append(1) or _real(repo),
                )
        q1, q2 = parse_xpath("a/b[c][c]"), parse_xpath("a/b[c]")
        with Session(constraints=list(CONSTRAINTS)) as session:
            for _ in range(4):
                assert session.equivalent(q1, q2)
        assert len(closures) <= 1


class TestConstraintArguments:
    """Every public constraint argument takes notation strings, and
    rejects any item that is neither a string nor a constraint."""

    QUERY = "Book*[Title][Title//Name]"
    NOTATION = "Book -> Title; Title ->> Name"

    def expected(self):
        return minimize(parse_xpath(self.QUERY), parse_constraints(self.NOTATION))

    def test_session_takes_a_notation_string(self):
        with Session(constraints=self.NOTATION) as session:
            result = session.minimize(parse_xpath(self.QUERY))
        assert to_sexpr(result.pattern) == to_sexpr(self.expected().pattern)
        assert result.removed_count == 3

    def test_session_takes_a_list_of_notation_strings(self):
        with Session(constraints=self.NOTATION.split("; ")) as session:
            result = session.minimize(parse_xpath(self.QUERY))
        assert to_sexpr(result.pattern) == to_sexpr(self.expected().pattern)

    def test_pipeline_minimize_takes_notation_strings(self):
        result = minimize(parse_xpath(self.QUERY), self.NOTATION.split("; "))
        assert to_sexpr(result.pattern) == to_sexpr(self.expected().pattern)

    @pytest.mark.parametrize("bad", [[1], ["Book -> Title", None], [("Book", "Title")]])
    def test_non_constraint_items_raise_type_error(self, bad):
        query = parse_xpath(self.QUERY)
        with pytest.raises(TypeError, match="notation strings"):
            minimize(query, bad)
        with pytest.raises(TypeError, match="notation strings"):
            Session(constraints=bad).minimize(query)
        with Session() as session:
            with pytest.raises(TypeError, match="notation strings"):
                session.update_constraints(add=bad)


class TestQueryResult:
    def test_to_json_shape(self):
        with Session(constraints=CONSTRAINTS) as session:
            result = session.minimize(parse_xpath("a/b[c][c]"))
        payload = result.to_json()
        assert payload["input"] == "a/b[c][c]"
        assert payload["minimized"] == "a/b[c]"
        assert payload["input_size"] == 4 and payload["output_size"] == 3
        assert payload["removed"] == 1 and payload["cache_hit"] is False
        assert payload["eliminated"] and payload["fingerprint"]
        assert payload["timings"]["total_seconds"] >= 0
        # Round-trippable through the sexpr renderer too.
        sexpr_payload = result.to_json(fmt="sexpr")
        assert sexpr_payload["minimized"].startswith("(")
        with pytest.raises(ValueError, match="format"):
            result.to_json(fmt="ascii")

    def test_summary_marks_replays(self):
        with Session(constraints=CONSTRAINTS) as session:
            session.minimize(parse_xpath("a/b[c][c]"))
            replay = session.minimize(parse_xpath("a/b[c][c]"))
        assert "memo replay" in replay.summary()
        assert replay.detail is None  # a hit does no engine work


class TestLegacyKwargsRemoved:
    """The deprecated per-knob kwargs finished their cycle: Python's own
    TypeError names the unexpected keyword."""

    def test_batch_minimizer_legacy_kwargs_raise_with_hint(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'jobs'"):
            BatchMinimizer(CONSTRAINTS, jobs=1, memoize=False)
        with pytest.raises(TypeError, match="jobs"):
            BatchMinimizer(CONSTRAINTS, jobs=4)

    def test_minimize_batch_legacy_kwargs_raise_with_hint(self):
        from repro.batch import minimize_batch

        with pytest.raises(TypeError, match="unexpected keyword argument 'jobs'"):
            minimize_batch([parse_xpath("a/b[c][c]")], CONSTRAINTS, jobs=2)

    def test_unknown_kwargs_still_rejected(self):
        with pytest.raises(TypeError, match="frobnicate"):
            BatchMinimizer(CONSTRAINTS, frobnicate=True)

    def test_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BatchMinimizer(CONSTRAINTS, options=MinimizeOptions(memoize=False))

    def test_options_path_matches_serial_loop(self):
        minimizer = BatchMinimizer(
            CONSTRAINTS, options=MinimizeOptions(memoize=False)
        )
        batch = minimizer.minimize_all([parse_xpath("a/b[c][c]")])
        assert to_sexpr(batch.items[0].pattern) == to_sexpr(
            minimize(parse_xpath("a/b[c][c]"), CONSTRAINTS).pattern
        )
