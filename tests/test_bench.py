"""Tests for the experiment harness and reporting (fast configurations)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    Series,
    best_of,
    format_ascii_plot,
    format_csv,
    format_report,
    format_table,
    run_experiment,
)
from repro.bench.cli import main as bench_main


class TestTiming:
    def test_best_of_returns_minimum_scale(self):
        calls = []
        assert best_of(lambda: calls.append(1), repeat=4) >= 0.0
        assert len(calls) == 4

    def test_series_add(self):
        s = Series("x")
        s.add(1, 0.5)
        s.add(2, 0.6)
        assert len(s) == 2 and s.xs == [1, 2]

    def test_result_x_values_checks_alignment(self):
        r = ExperimentResult("e", "t", "x", "y", series=[Series("a", [1], [0.1]), Series("b", [2], [0.1])])
        with pytest.raises(ValueError):
            r.x_values()

    def test_series_by_label(self):
        r = ExperimentResult("e", "t", "x", "y", series=[Series("a", [1], [0.1])])
        assert r.series_by_label("a").ys == [0.1]
        with pytest.raises(KeyError):
            r.series_by_label("zzz")


def tiny_result() -> ExperimentResult:
    return ExperimentResult(
        "demo",
        "demo experiment",
        "size",
        "time (s)",
        series=[
            Series("fast", [10, 20], [0.001, 0.002]),
            Series("slow", [10, 20], [0.004, 0.009]),
        ],
        notes=["a note"],
    )


class TestReporting:
    def test_table_contains_all_cells(self):
        table = format_table(tiny_result())
        assert "fast (ms)" in table and "slow (ms)" in table
        assert "1.0000" in table and "9.0000" in table

    def test_csv_shape(self):
        csv = format_csv(tiny_result())
        lines = csv.strip().splitlines()
        assert lines[0] == "x,fast,slow"
        assert len(lines) == 3

    def test_ascii_plot_mentions_legend(self):
        plot = format_ascii_plot(tiny_result())
        assert "fast" in plot and "slow" in plot

    def test_report_combines_everything(self):
        report = format_report(tiny_result())
        assert "demo experiment" in report and "note: a note" in report


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_every_experiment_runs(name):
    """Each figure driver produces sane, plottable output (repeat=1 keeps
    this fast; ``repro-bench`` runs the full repeats)."""
    result = run_experiment(name, repeat=1)
    assert result.name == name
    assert result.series, "every figure has at least one series"
    xs = result.x_values()
    assert len(xs) >= 5
    for series in result.series:
        assert all(y >= 0 for y in series.ys)
        assert len(series.ys) == len(xs)


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out and "fig9b" in out

    def test_unknown_experiment(self, capsys):
        assert bench_main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_single_run_with_csv(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = bench_main(["fig8a", "--repeat", "1", "--no-plot", "--csv", str(target)])
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("x,")

    def test_multi_run_csv_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "csvs"
        code = bench_main(
            ["fig9a", "fig9b", "--repeat", "1", "--no-plot", "--csv", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "fig9a.csv").exists()
        assert (out_dir / "fig9b.csv").exists()


class TestJson:
    def test_to_dict_round_trips_through_json(self):
        payload = json.loads(json.dumps(tiny_result().to_dict()))
        assert payload["name"] == "demo"
        assert payload["series"][0] == {
            "label": "fast",
            "xs": [10, 20],
            "ys": [0.001, 0.002],
        }
        assert payload["notes"] == ["a note"]

    def test_format_json_is_deterministic(self):
        from repro.bench import format_json

        assert format_json(tiny_result()) == format_json(tiny_result())
        assert format_json(tiny_result()).endswith("\n")

    def test_cli_json_single_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = bench_main(["fig8a", "--repeat", "1", "--no-plot", "--json", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["name"] == "fig8a"
        assert payload["series"]

    def test_cli_json_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "jsons"
        code = bench_main(
            ["fig9a", "fig9b", "--repeat", "1", "--no-plot", "--json", str(out_dir)]
        )
        assert code == 0
        for name in ("fig9a", "fig9b"):
            payload = json.loads((out_dir / f"{name}.json").read_text())
            assert payload["name"] == name


class TestMarkdown:
    def test_markdown_table(self):
        from repro.bench.report import format_markdown

        text = format_markdown(tiny_result())
        assert "### demo: demo experiment" in text
        assert "| size | fast (ms) | slow (ms) |" in text
        assert "- a note" in text

    def test_cli_markdown_flag(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = bench_main(
            ["fig8a", "--repeat", "1", "--no-plot", "--markdown", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("### fig8a")
