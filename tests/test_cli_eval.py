"""Tests for the ``tpq-eval`` command-line tool."""

from __future__ import annotations

import pytest

from repro.tools.eval_cli import main

XML = """<Catalog>
  <Product><Name>Widget</Name><Vendor><Name>Acme</Name></Vendor></Product>
  <Product><Name>Orphan</Name></Product>
</Catalog>
"""

LDIF = """dn: o=Corp
objectClass: Organization

dn: cn=Ada,o=Corp
objectClass: Employee
objectClass: Person
"""


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "cat.xml"
    path.write_text(XML)
    return path


@pytest.fixture
def ldif_file(tmp_path):
    path = tmp_path / "dir.ldif"
    path.write_text(LDIF)
    return path


class TestEvalCli:
    def test_basic_match(self, xml_file, capsys):
        assert main(["Catalog/Product*[Vendor]", str(xml_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Product")

    def test_count(self, xml_file, capsys):
        assert main(["Catalog//Name*", str(xml_file), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_engine_flag_is_retired(self, xml_file):
        """One evaluator answers; ``--engine`` is an unknown option."""
        with pytest.raises(SystemExit) as exc:
            main(["Catalog//Name*", str(xml_file), "--engine", "twig", "--count"])
        assert exc.value.code == 2

    def test_minimize_flag(self, xml_file, capsys):
        code = main(
            [
                "Catalog/Product*[Name][Vendor]",
                str(xml_file),
                "--minimize",
                "-c",
                "Product -> Name",
                "--count",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "minimized to: Catalog/Product[Vendor]" in captured.err
        assert captured.out.strip() == "1"

    def test_ldif_by_extension(self, ldif_file, capsys):
        assert main(["Organization//Person*", str(ldif_file)]) == 0
        out = capsys.readouterr().out
        assert "cn=Ada,o=Corp" in out

    def test_missing_file(self, capsys):
        assert main(["a", "/nonexistent/file.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_query(self, xml_file, capsys):
        assert main(["a[[", str(xml_file)]) == 1

    def test_twigmerge_engine(self, xml_file, capsys):
        """The path-merge engine's name is no option any more; the count
        it gave, 3, is the one evaluator's."""
        with pytest.raises(SystemExit) as exc:
            main(["Catalog//Name*", str(xml_file), "--engine", "twigmerge", "--count"])
        assert exc.value.code == 2
        assert main(["Catalog//Name*", str(xml_file), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"


class TestEvalBatchMode:
    @pytest.fixture
    def second_xml(self, tmp_path):
        path = tmp_path / "cat2.xml"
        path.write_text("<Catalog><Product><Name>Gizmo</Name></Product></Catalog>")
        return path

    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("Catalog/Product*  # one per product\nCatalog//Name*\n")
        return path

    def test_batch_counts_per_query(self, xml_file, query_file, capsys):
        assert main(["--batch", str(query_file), str(xml_file), "--count"]) == 0
        assert capsys.readouterr().out.split() == ["2", "3"]

    def test_batch_headers_and_forest(self, xml_file, second_xml, query_file, capsys):
        code = main(
            ["--batch", str(query_file), str(xml_file), str(second_xml), "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Catalog/Product" in out and "## Catalog//Name" in out
        assert str(second_xml) in out  # multi-document output is prefixed

    def test_forest_positional_single_query(self, xml_file, second_xml, capsys):
        assert main(
            ["Catalog//Name*", str(xml_file), str(second_xml), "--count"]
        ) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_jobs_do_not_change_answers(self, xml_file, second_xml, capsys):
        serial = main(["Catalog//Name*", str(xml_file), str(second_xml)])
        serial_out = capsys.readouterr().out
        parallel = main(
            ["Catalog//Name*", str(xml_file), str(second_xml), "--jobs", "2"]
        )
        assert (serial, parallel) == (0, 0)
        assert capsys.readouterr().out == serial_out

    def test_batch_minimize_uses_backend(self, xml_file, query_file, capsys):
        code = main(
            [
                "--batch",
                str(query_file),
                str(xml_file),
                "--minimize",
                "-c",
                "Product -> Name",
                "--count",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.split() == ["2", "3"]
        assert captured.err.count("# minimized to:") == 2

    def test_query_required_without_batch(self, xml_file):
        with pytest.raises(SystemExit):
            main([str(xml_file)])
