"""Measure on a host whose vCPUs change speed by themselves.

On the 2-vCPU virtual machines this benchmark was built on, each vCPU
switches by itself, every few seconds, between full speed and states up
to about 1.6 times slower (another tenant's load on the shared core);
the two vCPUs switch independently. A run that falls in slow spells
reads up to a third slower, which no averaging inside a run of tens of
seconds removes: the spread of ten runs was 0.2-0.3.

:class:`Speedometer` pins the measured work to one vCPU for a slice and
runs a fixed pure-Python probe on that same vCPU right before and right
after it. A cold query's latency tracked the probe within a few percent
in every state (about 18 probe times), so each slice's times are
multiplied by :data:`NOMINAL` over the slice's mean probe time: the
benchmark reports times as they would read on a vCPU where the probe
takes :data:`NOMINAL` seconds. Waits inside a measured time that do not
scale with the vCPU (the micro-batcher's 10 ms timer in hot-serve's
latencies) are scaled too, which over-corrects them in slow spells.
"""

from __future__ import annotations

import os
from time import perf_counter

#: Probe time, in seconds, of the speed every time is normalized to
#: (about a full-speed vCPU of the machine the benchmark was built on).
NOMINAL = 0.004


def probe_seconds() -> float:
    """One run of a fixed pure-Python kernel (dict and integer work,
    about 4 ms at full speed)."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i
        total += i * i % 7
    return perf_counter() - start


class Speedometer:
    """Pins the calling thread to a vCPU and probes that vCPU's speed."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))

    def probe(self, cpu: int) -> float:
        """Median of five probes with the calling thread pinned to ``cpu``
        (left pinned there)."""
        os.sched_setaffinity(0, {cpu})
        return sorted(probe_seconds() for _ in range(5))[2]

    def fastest(self) -> tuple[int, float]:
        """Probe every vCPU and stay pinned to the fastest; returns it
        with its probe time."""
        seconds = {cpu: self.probe(cpu) for cpu in self.cpus}
        cpu = min(seconds, key=seconds.get)
        os.sched_setaffinity(0, {cpu})
        return cpu, seconds[cpu]

    def release(self) -> None:
        """Let the calling thread run on every vCPU again."""
        os.sched_setaffinity(0, set(self.cpus))


def factor(before: float, after: float) -> float:
    """Multiplier taking times measured between two probes of
    ``before`` and ``after`` seconds to the nominal speed."""
    return NOMINAL / ((before + after) / 2)
