"""Helpers shared by the workloads: paths, percentiles, memory, results."""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass, field

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program's sources, imported from the checkout, never installed.
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, traces and server logs (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")
#: Nearest-rank percentiles need this many samples beyond the rank.
MIN_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src/``; raise
    :class:`ProgramMissing` when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p < 100) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the rank, so a p90 needs 100 samples and a median
    20."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {len(ordered)} samples leaves {len(ordered) - rank} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def min_samples(p: float) -> int:
    """The fewest samples :func:`percentile` accepts for ``p``."""
    n = 1
    while n - math.ceil(p / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Workload-guard and answer-check failures, one line each.
    problems: list = field(default_factory=list)
    #: The tracer of a traced run, whose spans are written out at exit.
    tracer: object = None

    def fail(self, message: str) -> None:
        """One failed operation (an error or a wrong answer)."""
        self.failed += 1
        self.problems.append(message)

    def guard(self, ok: bool, message: str) -> None:
        """A workload guard: the run is not valid unless ``ok``."""
        if not ok:
            self.problems.append(f"guard: {message}")
