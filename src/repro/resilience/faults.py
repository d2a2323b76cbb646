"""Seeded, deterministic fault injection for the minimization stack.

Partial failure is a first-class input here, not an afterthought: a
:class:`FaultPlan` names *where* (an injection point), *what* (a fault
kind), and *when* (counter-based hit indices — never wall-clock
randomness) faults fire, and a :class:`FaultInjector` arms that plan at
runtime. Because firing is keyed on per-point arm counters, the same
plan replays the same fault sequence whether the stack runs in-process
(``MinimizeOptions(fault_plan=...)``) or behind ``repro-serve
--fault-plan`` — which is what makes chaos failures reproducible from a
single seed.

Injection points and the fault kinds they understand:

=================== ============================== =========================
point               kinds                          armed by
=================== ============================== =========================
``worker.chunk``    ``crash``, ``slow``            :func:`repro.batch.executor.process_map`,
                                                   once per pooled chunk; ``crash``
                                                   SIGKILLs the worker mid-chunk,
                                                   ``slow`` sleeps ``delay`` seconds
                                                   inside the worker
``batch.run``       ``slow``                       :meth:`repro.batch.minimizer.BatchMinimizer.minimize_all`,
                                                   once per batch (a slow backend)
``batcher.flush``   ``stall``                      the service micro-batcher, once per
                                                   flush (a stalled queue)
``executor.pickle`` ``fail``                       :func:`~repro.batch.executor.process_map`,
                                                   once per payload (forces the
                                                   pickle-fallback path)
``protocol.send``   ``truncate``, ``garbage``,     the JSON-lines protocol, once per
                    ``broken_pipe``                response write
``store.write``     ``fail``, ``slow``             the persistent store's
                                                   write-behind thread
                                                   (:class:`repro.store.PersistentStore`),
                                                   once per commit batch; ``fail``
                                                   drops the batch (counted
                                                   degradation — future misses,
                                                   never an error), ``slow``
                                                   sleeps ``delay`` seconds
                                                   before the commit
``store.compact``   ``kill``, ``fail``             :meth:`repro.store.PersistentStore.compact`,
                                                   once per compaction, fired
                                                   *mid-transaction*; ``kill``
                                                   SIGKILLs the process (the
                                                   WAL rolls back — the next
                                                   open recovers the
                                                   pre-compaction records
                                                   byte-identically), ``fail``
                                                   rolls back and counts
``store.tamper``    ``drop``, ``retype``           the persistent store's
                                                   write-behind thread, once
                                                   per committed ``min``
                                                   record; mutates the replay
                                                   recipe *before* checksum
                                                   computation — a
                                                   checksum-valid but
                                                   semantically wrong record
                                                   (the certification layer's
                                                   adversary; see
                                                   :mod:`repro.certify`)
``cache.poison``    ``drop``, ``retype``           :meth:`repro.batch.minimizer.BatchMinimizer.minimize_all`,
                                                   once per fresh replay-memo
                                                   insertion; mutates the
                                                   in-memory memo entry after
                                                   the store write, so later
                                                   fingerprint-replay hits
                                                   would serve a wrong answer
                                                   unless certified
=================== ============================== =========================

The minimal-query uniqueness theorem (Amer-Yahia et al., SIGMOD 2001)
makes byte-identical differential checks a perfect chaos oracle: under
every plan the served outputs must equal the serial ``minimize`` loop's
exactly, or something was lost, duplicated, or corrupted along the way.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "FAULT_POINTS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
]

#: Every injection point and the fault kinds it understands.
FAULT_POINTS: dict[str, tuple[str, ...]] = {
    "worker.chunk": ("crash", "slow"),
    "batch.run": ("slow",),
    "batcher.flush": ("stall",),
    "executor.pickle": ("fail",),
    "protocol.send": ("truncate", "garbage", "broken_pipe"),
    "store.write": ("fail", "slow"),
    "store.compact": ("kill", "fail"),
    "store.tamper": ("drop", "retype"),
    "cache.poison": ("drop", "retype"),
}

#: The kinds :meth:`FaultPlan.seeded` draws from by default — one fault
#: of each failure family the chaos suite exercises. ``worker.crash`` is
#: excluded because it only fires on the pooled path (``jobs > 1``);
#: seeded plans must stay meaningful at any ``jobs`` setting.
_SEEDED_KINDS: tuple[tuple[str, str], ...] = (
    ("batch.run", "slow"),
    ("batcher.flush", "stall"),
    ("protocol.send", "garbage"),
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire ``kind`` at ``point`` on chosen hits.

    Attributes
    ----------
    point:
        Injection-point name (a :data:`FAULT_POINTS` key).
    kind:
        Fault kind understood by that point.
    at:
        1-based arm-counter indices at which this spec fires (the first
        time the point is armed is hit 1).
    every:
        Additionally fire on every ``every``-th hit (0 disables).
    delay:
        Sleep seconds for the ``slow``/``stall`` kinds.
    """

    point: str
    kind: str
    at: tuple[int, ...] = ()
    every: int = 0
    delay: float = 0.05

    def __post_init__(self) -> None:
        kinds = FAULT_POINTS.get(self.point)
        if kinds is None:
            raise ValueError(
                f"unknown injection point {self.point!r} "
                f"(expected one of {sorted(FAULT_POINTS)})"
            )
        if self.kind not in kinds:
            raise ValueError(
                f"point {self.point!r} does not understand kind {self.kind!r} "
                f"(expected one of {kinds})"
            )
        if self.every < 0:
            raise ValueError(f"every must be >= 0, got {self.every}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        object.__setattr__(self, "at", tuple(sorted(set(self.at))))
        if any(hit < 1 for hit in self.at):
            raise ValueError(f"hit indices are 1-based, got {self.at}")

    def fires(self, hit: int) -> bool:
        """Whether this spec fires on the ``hit``-th arming of its point."""
        return hit in self.at or bool(self.every and hit % self.every == 0)

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "at": list(self.at),
            "every": self.every,
            "delay": self.delay,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(f"fault spec must be a JSON object, got {data!r}")
        unknown = set(data) - {"point", "kind", "at", "every", "delay"}
        if unknown:
            raise ValueError(f"unknown fault-spec fields {sorted(unknown)}")
        return cls(
            point=data["point"],
            kind=data["kind"],
            at=tuple(data.get("at", ())),
            every=int(data.get("every", 0)),
            delay=float(data.get("delay", 0.05)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` entries (plus provenance).

    A plan is pure data: it can be embedded in
    :class:`~repro.api.MinimizeOptions`, serialized for ``repro-serve
    --fault-plan``, and replayed — the stateful arm counters live in the
    :class:`FaultInjector` built from it.
    """

    specs: tuple[FaultSpec, ...] = ()
    #: Generator seed when the plan came from :meth:`seeded` (provenance
    #: only; firing never consults it again).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        kinds: Optional[Sequence[tuple[str, str]]] = None,
        window: int = 6,
        faults_per_kind: int = 1,
        delay: float = 0.02,
    ) -> "FaultPlan":
        """A deterministic plan generated from ``seed``.

        For every ``(point, kind)`` pair (default: one per failure
        family safe at any ``jobs`` setting), ``faults_per_kind`` hit
        indices are drawn from ``1..window`` with ``random.Random(seed)``
        — pure pseudo-randomness, so the same seed always yields the
        same plan and therefore the same fault sequence.
        """
        rng = random.Random(seed)
        chosen = tuple(kinds) if kinds is not None else _SEEDED_KINDS
        specs = []
        for point, kind in chosen:
            per = min(faults_per_kind, window)
            at = tuple(sorted(rng.sample(range(1, window + 1), k=per)))
            specs.append(FaultSpec(point=point, kind=kind, at=at, delay=delay))
        return cls(specs=tuple(specs), seed=seed)

    def to_json(self) -> dict:
        return {"seed": self.seed, "specs": [s.to_json() for s in self.specs]}

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {data!r}")
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise ValueError(f"unknown fault-plan fields {sorted(unknown)}")
        specs = tuple(FaultSpec.from_json(s) for s in data.get("specs", ()))
        return cls(specs=specs, seed=data.get("seed"))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``--fault-plan`` argument forms.

        Accepts ``"seed:<int>"`` (a :meth:`seeded` plan), a JSON object
        (:meth:`to_json` shape), or a JSON array of fault specs.
        """
        text = text.strip()
        if text.startswith("seed:"):
            try:
                return cls.seeded(int(text[len("seed:"):]))
            except ValueError as exc:
                raise ValueError(f"bad fault-plan seed {text!r}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is neither 'seed:<int>' nor JSON: {exc}") from exc
        if isinstance(data, list):
            return cls(specs=tuple(FaultSpec.from_json(s) for s in data))
        return cls.from_json(data)


class FaultEvent(NamedTuple):
    """One fired fault: where, what, and on which arm-counter hit."""

    point: str
    kind: str
    hit: int


class FaultInjector:
    """The runtime arm of a :class:`FaultPlan`.

    Each layer calls :meth:`draw` when execution passes one of its
    injection points; the injector bumps that point's arm counter and
    returns the matching :class:`FaultSpec` when the plan says the fault
    fires (``None`` otherwise — the overwhelmingly common case). Firing
    depends only on the counters, so a replayed request stream replays
    the fault sequence. Thread-safe: the batch layer arms points from
    worker-dispatch threads while the service arms its own on the event
    loop.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every fault fired, in firing order.
        self.fired: list[FaultEvent] = []

    @property
    def faults_injected(self) -> int:
        """Total faults fired so far."""
        return len(self.fired)

    def draw(self, point: str) -> Optional[FaultSpec]:
        """Arm ``point`` once; the spec to execute if a fault fires."""
        if not self.plan.specs:
            return None
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for spec in self.plan.specs:
                if spec.point == point and spec.fires(hit):
                    self.fired.append(FaultEvent(point, spec.kind, hit))
                    return spec
        return None

    def events(self) -> list[FaultEvent]:
        """A snapshot of the fired faults, in firing order."""
        with self._lock:
            return list(self.fired)
