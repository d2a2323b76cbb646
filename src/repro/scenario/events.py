"""Scenario event logs: deterministic records + the replay digest.

Every executed scenario event becomes one :class:`ScenarioEvent`. The
record's fields are **deliberately restricted to deterministic data** —
op, tenant, family, arrival offset, and a payload of result content
(minimized-query hashes, equivalence verdicts, constraint digests).
Nondeterministic observations (cache hits, timings, queue depths,
counters) live in the run report, never in events, so the same spec and
seed produce a byte-identical event log on every backend: in-process
session, micro-batching service, or a TCP server — the
replay-determinism gate is ``event_log_digest`` equality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "ScenarioEvent",
    "event_log_digest",
    "load_events",
    "result_digest",
    "write_events",
]


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def result_digest(minimized_sexpr: str, eliminated) -> str:
    """Content hash of one served answer: the minimized query's
    s-expression plus the eliminated-node set.

    The eliminated record is hashed as a *sorted* set, not in deletion
    order: a memoized replay reports deletions in the representative's
    elimination sequence while a fresh computation reports the query's
    own sequence, so the order depends on which isomorph warmed the
    memo (e.g. a ``--verify`` cold probe). The answer — minimal pattern
    plus which nodes went — is identical either way, and only that is
    part of the determinism contract.
    """
    payload = _canonical(
        [minimized_sexpr, sorted([int(i), str(t)] for i, t in eliminated)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ScenarioEvent:
    """One executed scenario operation (deterministic fields only)."""

    index: int
    op: str
    tenant: str
    offset: float
    family: Optional[int] = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "op": self.op,
            "tenant": self.tenant,
            # Arrival offsets round-trip through JSON exactly (repr
            # round-trip floats), but round anyway so logs stay tidy
            # and platform-independent.
            "offset": round(self.offset, 9),
            "family": self.family,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioEvent":
        return cls(
            index=data["index"],
            op=data["op"],
            tenant=data["tenant"],
            offset=data["offset"],
            family=data.get("family"),
            payload=data.get("payload", {}),
        )


def event_log_digest(events: "Iterable[ScenarioEvent]") -> str:
    """The replay digest: sha256 over the canonical JSON event list.

    Two runs are byte-identical replays iff their digests match.
    """
    blob = _canonical([event.to_dict() for event in events])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_events(path: "str | Path", events: "Iterable[ScenarioEvent]") -> None:
    """Write the event log as JSON lines (one event per line)."""
    with open(path, "w") as handle:
        for event in events:
            handle.write(_canonical(event.to_dict()) + "\n")


def load_events(path: "str | Path") -> "list[ScenarioEvent]":
    """Read a JSON-lines event log back."""
    events = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(ScenarioEvent.from_dict(json.loads(line)))
    return events
