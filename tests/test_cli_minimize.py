"""Tests for the ``tpq-minimize`` command-line tool."""

from __future__ import annotations

import pytest

from repro.tools.eval_cli import main as eval_main
from repro.tools.minimize_cli import main


class TestMinimizeCli:
    def test_plain_cim(self, capsys):
        assert main(["a/b[c][c]", "--algorithm", "cim"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "a/b[c]"

    def test_pipeline_with_inline_constraints(self, capsys):
        code = main(["Book*[Title][Publisher]", "-c", "Book -> Title; Book -> Publisher"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Book"

    def test_cdm_explain(self, capsys):
        code = main(
            ["Book*[Title]", "-c", "Book -> Title", "--algorithm", "cdm", "--explain"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "Book"
        assert "CDM rule" in captured.err

    def test_explain_already_minimal(self, capsys):
        assert main(["a/b", "--explain"]) == 0
        assert "already minimal" in capsys.readouterr().err

    def test_sexpr_in_and_out(self, capsys):
        code = main(["(a (/ b) (/ b))", "--sexpr", "--format", "sexpr"])
        assert code == 0
        assert capsys.readouterr().out.strip().startswith("(a")

    def test_ascii_output(self, capsys):
        assert main(["a/b", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "/b" in out

    def test_constraints_file(self, tmp_path, capsys):
        ics = tmp_path / "ics.txt"
        ics.write_text("# schema\nBook -> Title\n")
        assert main(["Book*[Title]", "-C", str(ics)]) == 0
        assert capsys.readouterr().out.strip() == "Book"

    def test_acim_algorithm(self, capsys):
        code = main(
            [
                "Articles/Article[.//Paragraph]",  # like Figure 2(d) wrong-side
                "--algorithm",
                "acim",
                "-c",
                "Article ->> Paragraph",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "Articles/Article"

    def test_parse_error_exit_code(self, capsys):
        assert main(["a[["]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_constraint_exit_code(self, capsys):
        assert main(["a/b", "-c", "a >>> b"]) == 1


class TestBatchMode:
    def test_batch_file_preserves_order(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "a/b[c][c]\n"
            "# a comment line\n"
            "Book*[Title]   # trailing comment\n"
            "\n"
            "a/b[c][c]\n"
        )
        code = main(["--batch", str(queries), "-c", "Book -> Title"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["a/b[c]", "Book", "a/b[c]"]

    def test_batch_matches_single_query_runs(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        lines = ["a/b[c][c]", "Book*[Title][Publisher]", "a*[.//b][.//b]"]
        queries.write_text("\n".join(lines) + "\n")
        constraints = "Book -> Title; Book -> Publisher"
        assert main(["--batch", str(queries), "-c", constraints]) == 0
        batch_out = capsys.readouterr().out.strip().splitlines()
        singles = []
        for line in lines:
            assert main([line, "-c", constraints]) == 0
            singles.append(capsys.readouterr().out.strip())
        assert batch_out == singles

    def test_batch_explain_reports_cache(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("a/b[c][c]\na/b[c][c]\n")
        assert main(["--batch", str(queries), "--explain", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == ["a/b[c]", "a/b[c]"]
        assert "2 queries (1 distinct structures)" in captured.err
        assert "hit rate 50%" in captured.err

    def test_batch_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a/b[c][c]\n"))
        assert main(["--batch", "-"]) == 0
        assert capsys.readouterr().out.strip() == "a/b[c]"

    def test_batch_and_query_are_exclusive(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("a/b\n")
        with pytest.raises(SystemExit):
            main(["a/b", "--batch", str(queries)])
        with pytest.raises(SystemExit):
            main([])

    def test_batch_rejects_non_pipeline_algorithms(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("a/b\n")
        with pytest.raises(SystemExit):
            main(["--batch", str(queries), "--algorithm", "cim"])

    def test_batch_parse_error_exit_code(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("a/b\na[[\n")
        assert main(["--batch", str(queries)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cli, argv",
    [(main, ["a/b[c][c]"]), (eval_main, ["a/b", "doc.xml", "--minimize"])],
    ids=["tpq-minimize", "tpq-eval"],
)
def test_no_oracle_cache_flag_is_rejected(cli, argv, capsys):
    """Minimization never consults the containment-oracle cache, so
    neither tool offers a switch for it (``repro-serve`` still does)."""
    with pytest.raises(SystemExit) as exit_info:
        cli(argv + ["--no-oracle-cache"])
    assert exit_info.value.code == 2
    assert "--no-oracle-cache" in capsys.readouterr().err
