"""Timing utilities for the experiment harness.

Thin wrappers over :func:`time.perf_counter` with best-of-``repeat``
semantics (the standard way to suppress scheduler noise for
sub-millisecond operations) and a small container for plottable series.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["best_of", "Series", "ExperimentResult"]


def best_of(fn: Callable[[], object], *, repeat: int = 5) -> float:
    """Minimum wall-clock seconds of ``repeat`` calls to ``fn``.

    The garbage collector is paused around each call (and run between
    them), so allocation-threshold collections don't land inside a
    measurement — they otherwise dominate sub-10ms points.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best = float("inf")
    was_enabled = gc.isenabled()
    try:
        for _ in range(repeat):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if was_enabled:
                gc.enable()
            if elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


@dataclass
class Series:
    """One plotted line: a label plus aligned x/y vectors."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(x)
        self.ys.append(y)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass
class ExperimentResult:
    """The outcome of one paper-figure experiment.

    Attributes
    ----------
    name / title:
        Experiment id (``fig7a``) and the paper's caption.
    x_label / y_label:
        Axis labels matching the paper's plot.
    series:
        One :class:`Series` per plotted line.
    notes:
        Free-form observations recorded by the driver (removal counts,
        measured ratios, ...).
    """

    name: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label (``KeyError`` if missing)."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def x_values(self) -> Sequence[float]:
        """The x vector (asserting all series are aligned)."""
        xs = self.series[0].xs
        for s in self.series[1:]:
            if s.xs != xs:
                raise ValueError("series have mismatched x vectors")
        return xs

    def to_dict(self) -> dict:
        """A JSON-serializable dict of the whole result (the payload of
        ``tpq-bench --json``)."""
        return {
            "name": self.name,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": [
                {"label": s.label, "xs": list(s.xs), "ys": list(s.ys)}
                for s in self.series
            ],
            "notes": list(self.notes),
        }
