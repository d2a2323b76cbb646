"""Tests for the scenario harness (:mod:`repro.scenario`).

Covers spec parsing/validation, plan determinism, the burst/diurnal
arrival generators, replay determinism across backends (session vs
service, sequential vs paced), live IC churn
counters and cold-probe verification, and the ``repro-scenario`` CLI.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.scenario import (
    SCENARIO_OPS,
    ScenarioRunner,
    ScenarioSpec,
    SpecError,
    build_plan,
    event_log_digest,
    load_events,
    run_scenario,
)
from repro.scenario.cli import main as scenario_main
from repro.workloads.arrival import (
    ARRIVAL_PROCESSES,
    arrival_workload,
    burst_arrivals,
    diurnal_arrivals,
)

SMALL = {
    "name": "small",
    "seed": 11,
    "events": 24,
    "arrival": {"process": "poisson", "rate": 300.0},
    "constraints": 3,
    "tenants": [
        {
            "name": "t",
            "ops": {"minimize": 0.7, "equivalence-check": 0.2, "evaluate": 0.1},
            "families": 3,
            "family_size": 14,
            "zipf_s": 1.1,
        }
    ],
}

CHURNY = {
    "name": "churny",
    "seed": 5,
    "events": 30,
    "arrival": {"process": "burst", "rate": 400.0},
    "constraints": 3,
    "churn": {"every": 6, "pool": 3},
    "tenants": [
        {
            "name": "t",
            "ops": {"minimize": 0.8, "equivalence-check": 0.2},
            "families": 3,
            "family_size": 14,
        }
    ],
}


def spec(payload: dict) -> ScenarioSpec:
    return ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------


class TestSpec:
    def test_round_trip(self):
        s = spec(CHURNY)
        assert ScenarioSpec.from_dict(s.to_dict()) == s

    def test_known_ops_only(self):
        bad = dict(SMALL, tenants=[dict(SMALL["tenants"][0], ops={"frobnicate": 1.0})])
        with pytest.raises(SpecError):
            spec(bad)
        assert set(SMALL["tenants"][0]["ops"]) <= set(SCENARIO_OPS)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError):
            spec(dict(SMALL, surprise=1))

    def test_ic_update_requires_churn_pool(self):
        bad = dict(SMALL, tenants=[dict(SMALL["tenants"][0], ops={"ic-update": 1.0})])
        with pytest.raises(SpecError):
            spec(bad)

    def test_duplicate_tenant_names_rejected(self):
        tenant = SMALL["tenants"][0]
        with pytest.raises(SpecError):
            spec(dict(SMALL, tenants=[tenant, tenant]))

    def test_nonpositive_weights_rejected(self):
        bad = dict(SMALL, tenants=[dict(SMALL["tenants"][0], ops={"minimize": 0.0})])
        with pytest.raises(SpecError):
            spec(bad)


# ----------------------------------------------------------------------
# Arrival generators
# ----------------------------------------------------------------------


class TestArrivals:
    def test_burst_shape(self):
        offsets = burst_arrivals(64, 200.0, seed=3)
        assert len(offsets) == 64
        assert offsets == sorted(offsets)
        assert all(t >= 0 for t in offsets)
        # Determinism under the seed.
        assert offsets == burst_arrivals(64, 200.0, seed=3)
        assert offsets != burst_arrivals(64, 200.0, seed=4)

    def test_burst_clusters(self):
        # Bursts land near multiples of burst_every: a large fraction of
        # gaps inside a cluster are far smaller than the mean gap.
        offsets = burst_arrivals(200, 100.0, seed=1, burst_every=0.5, burst_size=10)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        tiny = sum(1 for g in gaps if g < 0.002)
        assert tiny >= 50

    def test_diurnal_shape(self):
        offsets = diurnal_arrivals(128, 300.0, seed=9)
        assert len(offsets) == 128
        assert offsets == sorted(offsets)
        assert offsets == diurnal_arrivals(128, 300.0, seed=9)

    def test_workload_dispatch(self):
        for process in ARRIVAL_PROCESSES:
            queries, offsets, constraints = arrival_workload(
                8, 100.0, process=process, size=10, seed=2
            )
            assert len(queries) == 8 and len(offsets) == 8
            assert constraints


# ----------------------------------------------------------------------
# Plan determinism
# ----------------------------------------------------------------------


class TestPlan:
    def test_same_seed_same_plan(self):
        a, b = build_plan(spec(CHURNY)), build_plan(spec(CHURNY))
        assert [(p.op, p.tenant, p.family, p.offset, p.add, p.drop) for p in a.ops] == [
            (p.op, p.tenant, p.family, p.offset, p.add, p.drop) for p in b.ops
        ]
        assert [c.notation() for c in a.initial_constraints] == [
            c.notation() for c in b.initial_constraints
        ]
        assert [c.notation() for c in a.churn_pool] == [
            c.notation() for c in b.churn_pool
        ]

    def test_different_seed_different_plan(self):
        a = build_plan(spec(CHURNY))
        b = build_plan(spec(dict(CHURNY, seed=6)))
        assert [(p.op, p.family) for p in a.ops] != [(p.op, p.family) for p in b.ops]

    def test_churn_cadence(self):
        plan = build_plan(spec(CHURNY))
        for index, planned in enumerate(plan.ops):
            if (index + 1) % 6 == 0:
                assert planned.op == "ic-update"
                assert planned.add or planned.drop

    def test_notation_constraints_passthrough(self):
        explicit = dict(SMALL, constraints=["a -> b", "b ~ c"])
        plan = build_plan(spec(explicit))
        assert [c.notation() for c in plan.initial_constraints] == [
            "a -> b",
            "b ~ c",
        ]


# ----------------------------------------------------------------------
# Replay determinism across backends
# ----------------------------------------------------------------------


class TestReplay:
    def test_session_replay_deterministic(self):
        a = run_scenario(spec(SMALL), target="session")
        b = run_scenario(spec(SMALL), target="session")
        assert a.digest == b.digest
        assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]
        assert a.digest == event_log_digest(a.events)

    def test_service_matches_session(self):
        a = run_scenario(spec(CHURNY), target="session")
        b = run_scenario(spec(CHURNY), target="service")
        assert a.digest == b.digest

    def test_paced_matches_sequential(self):
        a = run_scenario(spec(CHURNY), target="service")
        b = run_scenario(spec(CHURNY), target="service", paced=True)
        assert a.digest == b.digest

    def test_unknown_target_rejected(self):
        from repro.scenario.runner import ScenarioError

        with pytest.raises(ScenarioError):
            run_scenario(spec(SMALL), target="cluster:9000")


# ----------------------------------------------------------------------
# Live IC churn
# ----------------------------------------------------------------------


class TestChurnScenario:
    def test_churn_counters_and_probes(self):
        report = run_scenario(spec(CHURNY), target="session", verify=True)
        assert report.ic_updates == 5
        assert report.invalidated_replays > 0
        assert report.verify_probes > 0
        assert report.verify_failures == []
        churn_events = [e for e in report.events if e.op == "ic-update"]
        assert len(churn_events) == 5
        for event in churn_events:
            assert event.payload["old_digest"] != event.payload["new_digest"]
            assert event.payload["changed"] is True
            # Transient counter keys must not leak into the hashed log.
            assert "_invalidated" not in event.payload
            assert "_surviving" not in event.payload

    def test_oracle_entries_survive_churn(self):
        # equivalence-check ops populate the closure-free oracle tier
        # client-side; the churn snapshot must see it survive.
        from repro.core.oracle_cache import reset_global_cache

        reset_global_cache()
        try:
            report = run_scenario(spec(CHURNY), target="session")
            assert report.surviving_oracle_entries > 0
        finally:
            reset_global_cache()

    def test_verify_probes_are_digest_neutral(self):
        # Regression: a --verify cold probe warms the live target's
        # replay memo with the family exemplar, so later isomorphs
        # replay in the *exemplar's* deletion order instead of their
        # own. The digest hashes the eliminated set, not the order —
        # so probing must not move it.
        a = run_scenario(spec(CHURNY), target="session")
        b = run_scenario(spec(CHURNY), target="session", verify=True)
        assert b.verify_probes > 0
        assert a.digest == b.digest

    def test_churn_digest_stable_under_oracle_state(self):
        # Same spec, cold vs pre-warmed oracle cache: counters differ,
        # the hashed event log must not.
        from repro.core.oracle_cache import reset_global_cache

        reset_global_cache()
        a = run_scenario(spec(CHURNY), target="session")
        b = run_scenario(spec(CHURNY), target="session")  # warm cache now
        assert a.digest == b.digest


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_validate(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, SMALL)
        assert scenario_main(["validate", str(path)]) == 0
        bad = self._write_spec(tmp_path, dict(SMALL, surprise=1))
        assert scenario_main(["validate", str(bad)]) != 0

    def test_plan(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, CHURNY)
        assert scenario_main(["plan", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["name"] == "churny"
        assert len(out["ops"]) == CHURNY["events"]
        assert any(op["op"] == "ic-update" for op in out["ops"])

    def test_run_repeat_deterministic(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, SMALL)
        events_path = tmp_path / "events.jsonl"
        code = scenario_main(
            [
                "run",
                str(path),
                "--repeat",
                "2",
                "--events",
                str(events_path),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["replay_deterministic"] is True
        assert len(set(out["replay_digests"])) == 1
        replayed = load_events(events_path)
        assert event_log_digest(replayed) == out["digest"]

    def test_run_rejects_a_fleet_target(self, capsys):
        from pathlib import Path

        pack = Path(__file__).resolve().parent.parent / "docs" / "scenarios"
        burst = str(pack / "burst.json")
        assert scenario_main(["run", burst, "--target", "shards:2"]) != 0
        assert "unknown target 'shards:2'" in capsys.readouterr().err

    def test_run_verify_churn(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, CHURNY)
        assert scenario_main(["run", str(path), "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ic_updates"] == 5
        assert out["verify_failures"] == []


def test_example_specs_validate():
    """The shipped docs/scenarios pack must stay loadable."""
    from pathlib import Path

    from repro.scenario import load_spec

    pack = Path(__file__).resolve().parent.parent / "docs" / "scenarios"
    names = {p.name for p in pack.glob("*.json")}
    assert {
        "steady-state.json",
        "burst.json",
        "diurnal.json",
        "churn-heavy.json",
    } <= names
    for path in sorted(pack.glob("*.json")):
        loaded = load_spec(path)
        assert loaded.events > 0


#: The event digests of the shipped packs replayed on a session.
#: Byte-identical results are the bar for every change to the
#: minimization stack, and a digest covers every served answer of a
#: replay, so a drift in any of them fails here.
COMMITTED_DIGESTS = {
    "steady-state.json": "95c477e4a39f47cff8da13a7f81b949e544d958cdd4b53544c666fc2ed189055",
    "burst.json": "7ddf4ec6d4cda15a6bf5636bc44c0838e99146ae5770385051bc4874350be65b",
    "churn-heavy.json": "78c7d53f31b4d19416111d7ce7bf03fc4e3d43d2d5f8853f6399b15b76704f5f",
}


def replay_pack(name: str, **kwargs):
    """Replay one shipped pack from a cold process-wide oracle cache."""
    from pathlib import Path

    from repro.core.oracle_cache import reset_global_cache
    from repro.scenario import load_spec

    pack = Path(__file__).resolve().parent.parent / "docs" / "scenarios"
    reset_global_cache()
    return run_scenario(load_spec(pack / name), **kwargs)


@pytest.mark.parametrize("name", sorted(COMMITTED_DIGESTS))
def test_committed_scenario_digests_reproduce(name):
    report = replay_pack(name, target="session")
    assert report.digest == COMMITTED_DIGESTS[name]


@pytest.mark.parametrize(
    "name, paced", [("burst.json", True), ("churn-heavy.json", False)]
)
def test_committed_scenario_digests_hold_on_the_service(name, paced):
    """The event log measures the workload, not the backend: the burst
    pack paced on a live service and the churn pack on a service give
    the session's digests. Both report one counters namespace: the
    service reports every name the session does, and adds only its own
    queue, batch and latency counters."""
    from repro.service import ServiceStats

    report = replay_pack(name, target="service", paced=paced)
    assert report.digest == COMMITTED_DIGESTS[name]
    session = replay_pack(name, target="session").counters
    assert set(session) <= set(report.counters)
    assert set(report.counters) - set(session) == set(ServiceStats().counters())


def test_churn_pack_invalidates_and_passes_cold_probes():
    """The churn pack's live IC updates drop closure-keyed replays, keep
    the closure-free oracle entries, and every cold probe after a churn
    matches a fresh session; the probes leave the digest alone."""
    report = replay_pack("churn-heavy.json", target="session", verify=True)
    assert report.digest == COMMITTED_DIGESTS["churn-heavy.json"]
    assert report.ic_updates > 0
    assert report.invalidated_replays > 0
    assert report.surviving_oracle_entries > 0
    assert report.verify_probes > 0
    assert report.verify_failures == []
