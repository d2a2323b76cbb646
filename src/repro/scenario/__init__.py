"""Replayable, seeded scenario harness for the serving stack.

One :class:`ScenarioSpec` (op mix, Zipf query popularity over
fingerprint families, arrival shape, multi-tenant weights, live IC
churn) plus one seed fully determines an event stream;
:func:`run_scenario` replays it against an in-process session, the
micro-batching service, or a running ``repro-serve``,
and the resulting event-log digest is byte-identical across all of
them. See :mod:`repro.scenario.runner` for the determinism contract.
"""

from .events import (
    ScenarioEvent,
    event_log_digest,
    load_events,
    result_digest,
    write_events,
)
from .runner import ScenarioReport, ScenarioRunner, build_plan, run_scenario
from .spec import (
    SCENARIO_OPS,
    ArrivalSpec,
    ChurnSpec,
    ScenarioSpec,
    SpecError,
    TenantSpec,
    load_spec,
)

__all__ = [
    "SCENARIO_OPS",
    "ArrivalSpec",
    "ChurnSpec",
    "ScenarioEvent",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "SpecError",
    "TenantSpec",
    "build_plan",
    "event_log_digest",
    "load_events",
    "load_spec",
    "result_digest",
    "run_scenario",
    "write_events",
]
