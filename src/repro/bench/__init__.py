"""Benchmark harness regenerating the paper's evaluation figures."""

from .timing import ExperimentResult, Series, best_of
from .experiments import (
    ALL_EXPERIMENTS,
    fig7a,
    fig7b,
    fig8a,
    fig8b,
    fig9a,
    fig9b,
    run_experiment,
)
from .report import (
    format_ascii_plot,
    format_csv,
    format_json,
    format_report,
    format_table,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "best_of",
    "ALL_EXPERIMENTS",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig9a",
    "fig9b",
    "run_experiment",
    "format_ascii_plot",
    "format_csv",
    "format_json",
    "format_report",
    "format_table",
]
