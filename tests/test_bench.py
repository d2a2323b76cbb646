"""Tests for the experiment harness and reporting (fast configurations)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

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
    this fast; the real numbers come from benchmarks/)."""
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
        result = tiny_result()
        result.counters = {"engine_builds": 1}
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["name"] == "demo"
        assert payload["series"][0] == {
            "label": "fast",
            "xs": [10, 20],
            "ys": [0.001, 0.002],
        }
        assert payload["notes"] == ["a note"]
        assert payload["counters"] == {"engine_builds": 1}

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


def _load_bench_script(stem):
    path = Path(__file__).parent.parent / "benchmarks" / f"{stem}.py"
    name = f"{stem}_module"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


def _load_bench_incremental():
    return _load_bench_script("bench_incremental")


class TestBenchIncremental:
    """Schema smoke test for BENCH_incremental.json (fast grid)."""

    def test_fast_run_writes_valid_schema(self, tmp_path):
        bi = _load_bench_incremental()
        out = tmp_path / "BENCH_incremental.json"
        bi.main(["--fast", "--repeat", "1", "--out", str(out)])
        payload = json.loads(out.read_text())

        assert payload["benchmark"] == "incremental"
        assert payload["schema_version"] == bi.SCHEMA_VERSION
        assert payload["fast"] is True

        workloads = payload["workloads"]
        assert {r["workload"] for r in workloads} >= {
            "fig7-chain",
            "fig8-right-deep",
            "fig8-bushy",
        }
        for row in workloads:
            assert row["rebuild_seconds"] >= 0
            assert row["incremental_seconds"] >= 0
            assert row["speedup"] > 0
            assert row["engine_builds"] >= 1
            assert row["incremental_deletes"] == row["removed"]

        cache = payload["containment_cache"]
        assert 0.0 <= cache["base_hit_rate"] <= 1.0
        assert 0.0 <= cache["reach_hit_rate"] <= 1.0

        summary = payload["summary"]
        assert summary["fig8_largest_size"] == max(
            r["x"] for r in workloads if r["workload"] == "fig8-right-deep"
        )
        assert summary["max_speedup"] >= summary["fig8_speedup_at_largest"] > 0
        assert isinstance(summary["meets_3x_target"], bool)


class TestBenchBatch:
    """Schema smoke test for BENCH_batch.json (fast grid)."""

    def test_fast_run_writes_valid_schema(self, tmp_path):
        bb = _load_bench_script("bench_batch")
        out = tmp_path / "BENCH_batch.json"
        bb.main(["--fast", "--repeat", "1", "--out", str(out)])
        payload = json.loads(out.read_text())

        assert payload["benchmark"] == "batch"
        assert payload["schema_version"] == bb.SCHEMA_VERSION
        assert payload["fast"] is True
        assert payload["cpu_count"] >= 1

        workloads = payload["workloads"]
        assert {r["workload"] for r in workloads} == {"fig7", "fig8", "mixed"}
        for row in workloads:
            assert row["serial_seconds"] >= 0
            assert row["batch_seconds"] >= 0
            assert row["speedup"] > 0
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert 1 <= row["distinct_structures"] <= row["n_queries"]
            assert row["cache_hits"] == row["n_queries"] - row["distinct_structures"]

        scaling = payload["scaling"]
        assert [r["jobs"] for r in scaling] == [1, 2, 4, 8]
        for row in scaling:
            assert row["seconds"] >= 0 and row["speedup_vs_serial"] > 0

        summary = payload["summary"]
        assert summary["target_jobs"] == min(4, payload["cpu_count"])
        assert summary["speedup_at_target_jobs"] == max(r["speedup"] for r in workloads)
        assert isinstance(summary["meets_2x_target"], bool)


class TestBenchOracleCache:
    """Schema smoke test for BENCH_oracle_cache.json (fast grid)."""

    def test_fast_run_writes_valid_schema(self, tmp_path):
        bo = _load_bench_script("bench_oracle_cache")
        out = tmp_path / "BENCH_oracle_cache.json"
        bo.main(["--fast", "--repeat", "1", "--out", str(out)])
        payload = json.loads(out.read_text())

        assert payload["benchmark"] == "oracle_cache"
        assert payload["schema_version"] == bo.SCHEMA_VERSION
        assert payload["fast"] is True

        rows = payload["oracle"]["rows"]
        assert [r["queries"] for r in rows] == sorted(r["queries"] for r in rows)
        for row in rows:
            assert row["uncached_seconds"] >= 0
            assert row["cached_seconds"] >= 0
            assert row["speedup"] > 0
            assert row["pairs"] == 4 * row["queries"]
            assert row["oracle_cache_hits"] > 0
            assert 0.0 <= row["oracle_cache_hit_rate"] <= 1.0
            assert row["oracle_cache_collisions"] == 0

        prune = payload["prune_memo"]
        assert prune["prune_memo_hits"] > 0
        assert 0.0 <= prune["prune_memo_hit_rate"] <= 1.0

        batch = payload["batch"]
        assert batch["identical_results"] is True
        assert batch["prune_memo_hits"] > 0

        summary = payload["summary"]
        assert summary["results_identical"] is True
        assert summary["oracle_hits_at_largest"] > 0
        assert isinstance(summary["meets_target"], bool)


class TestBenchService:
    """Schema smoke test for BENCH_service.json (fast stream)."""

    def test_fast_run_writes_valid_schema(self, tmp_path):
        bs = _load_bench_script("bench_service")
        out = tmp_path / "BENCH_service.json"
        bs.main(["--fast", "--repeat", "1", "--out", str(out)])
        payload = json.loads(out.read_text())

        assert payload["benchmark"] == "service"
        assert payload["schema_version"] == bs.SCHEMA_VERSION
        assert payload["fast"] is True
        assert payload["repeat"] >= 3  # floored: single replays too noisy

        rates = payload["rates"]
        assert len(rates) >= 5
        assert [r["offered_rate_qps"] for r in rates] == sorted(
            r["offered_rate_qps"] for r in rates
        )
        for row in rates:
            assert row["one_at_a_time_qps"] > 0
            assert row["micro_batched_qps"] > 0
            assert row["speedup"] > 0

        mid = payload["mid_rate"]
        assert mid["batches"] >= 1
        assert mid["mean_batch_size"] >= 1.0
        assert mid["verified"] > 0  # paranoid mode re-proved every answer
        assert mid["latency_p95_seconds"] >= mid["latency_p50_seconds"] >= 0

        summary = payload["summary"]
        assert summary["capacity_one_at_a_time_qps"] > 0
        assert summary["mid_rate_factor"] > 1
        assert summary["fingerprint_hits"] > 0
        assert summary["oracle_cache_hits"] > 0
        assert isinstance(summary["batched_beats_one_at_a_time"], bool)


class TestBenchCertify:
    """Schema smoke test for BENCH_certify.json (fast stream)."""

    def test_fast_run_writes_valid_schema(self, tmp_path):
        bc = _load_bench_script("bench_certify")
        out = tmp_path / "BENCH_certify.json"
        bc.main(["--fast", "--repeat", "1", "--out", str(out)])
        payload = json.loads(out.read_text())

        assert payload["benchmark"] == "certify"
        assert payload["schema_version"] == bc.SCHEMA_VERSION
        assert payload["fast"] is True

        overhead = payload["audit_overhead"]
        assert overhead["audit_rate"] == 64
        assert set(overhead["legs"]) == {"baseline", "sampled_audit", "certify_all"}
        for leg in overhead["legs"].values():
            assert leg["seconds"] > 0 and leg["qps"] > 0
            assert leg["audit_failures"] == 0  # no chaos in the benchmark
        assert overhead["legs"]["baseline"]["certified"] == 0
        assert overhead["legs"]["certify_all"]["certified"] >= overhead["n_queries"]

        sweep = payload["differential_sweep"]
        assert sweep["byte_identical"] is True
        assert sweep["certificates_verified"] == sweep["n_queries"]
        assert sweep["verified_fraction"] == 1.0
        assert sweep["witness_steps_total"] > 0

        summary = payload["summary"]
        assert summary["all_certificates_verified"] is True
        assert isinstance(summary["sampled_audit_under_10pct"], bool)


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
