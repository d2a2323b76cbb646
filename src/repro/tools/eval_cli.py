"""``tpq-eval`` — run tree pattern queries against XML or LDIF files.

Examples::

    tpq-eval 'Library//Book*[Title]' catalog.xml
    tpq-eval 'Organization//Person*' directory.ldif --format ldif
    tpq-eval 'Catalog/Product*[Vendor]' catalog.xml \\
        -c 'Product -> Vendor' --minimize --engine twig --count

Several documents form a forest; ``--jobs`` fans the trees across
worker processes. ``--batch`` evaluates a whole file of queries (one per
line) through the batch backend instead of a single positional query::

    tpq-eval 'Library//Book*' a.xml b.xml c.xml --jobs 4
    tpq-eval --batch queries.txt catalog.xml --count --jobs 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..api import MinimizeOptions, Session
from ..constraints.model import parse_constraints
from ..data.ldif import parse_ldif
from ..data.ldap import dn_of
from ..data.tree import DataNode, DataTree
from ..data.xml_io import parse_xml
from ..errors import ReproError
from ..matching.pathstack import is_path_pattern
from ..parsing.serializer import to_xpath
from ..parsing.xpath import parse_xpath
from .minimize_cli import _jobs_arg

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``tpq-eval`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tpq-eval",
        description="Evaluate tree pattern queries against XML or LDIF documents.",
        epilog=(
            "Every flag maps onto one repro.api.MinimizeOptions field — "
            "the library's single configuration path."
        ),
    )
    parser.add_argument(
        "query", nargs="?", default=None, help="XPath-subset query (omit with --batch)"
    )
    parser.add_argument("document", nargs="+", type=Path, help="XML or LDIF file(s)")
    parser.add_argument(
        "--batch",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "evaluate a file of queries (one per line, '#' comments; '-' for "
            "stdin) instead of a positional QUERY"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes for fanning documents (0 = one per core; "
            "'auto' = one per core, tiny batches serial; default 1)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("auto", "xml", "ldif"),
        default="auto",
        help="document format (auto: by file extension)",
    )
    parser.add_argument(
        "--engine",
        choices=("dp", "twig", "pathstack", "twigmerge"),
        default="dp",
        help="matching engine (pathstack requires linear queries)",
    )
    parser.add_argument(
        "-c", "--constraints", default=None, help="';'-separated integrity constraints"
    )
    parser.add_argument(
        "--minimize",
        action="store_true",
        help="minimize the queries (under the constraints, if given) before matching",
    )
    parser.add_argument("--count", action="store_true", help="print only the match count")
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit one JSON object per query: match count, answers, and "
            "(with --minimize) the unified QueryResult shape the "
            "repro-serve protocol returns"
        ),
    )
    return parser


def _load(path: Path, fmt: str) -> tuple[DataTree, bool]:
    """Load the document; returns (tree, is_directory)."""
    text = path.read_text()
    if fmt == "auto":
        fmt = "ldif" if path.suffix.lower() in (".ldif", ".ldi") else "xml"
    if fmt == "ldif":
        return parse_ldif(text).tree, True
    return parse_xml(text), False


def _describe(node: DataNode, is_directory: bool) -> str:
    if is_directory:
        return f"{'+'.join(sorted(node.types))}  {dn_of(node)}"
    detail = f" = {node.value!r}" if node.value is not None else ""
    path = "/".join(p.primary_type for p in node.path())
    return f"{'+'.join(sorted(node.types))}{detail}  ({path})"


def _read_batch_queries(path: Path) -> list:
    text = sys.stdin.read() if str(path) == "-" else path.read_text()
    queries = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            queries.append(parse_xpath(line))
    return queries


def _print_answers(answers, docs, trees) -> None:
    prefix_files = len(docs) > 1
    for tree_index, (path, is_directory) in enumerate(docs):
        prefix = f"{path}: " if prefix_files else ""
        for node in trees[tree_index].nodes():  # document order
            if (tree_index, node.id) in answers:
                print(f"{prefix}{_describe(node, is_directory)}")


def main(argv: list[str] | None = None) -> int:
    """Run the tool; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.batch is not None:
            # All positionals are documents in batch mode.
            documents = ([Path(args.query)] if args.query else []) + list(args.document)
            patterns = _read_batch_queries(args.batch)
        else:
            if args.query is None:
                parser.error("QUERY is required unless --batch FILE is given")
            documents = list(args.document)
            patterns = [parse_xpath(args.query)]
        constraints = parse_constraints(args.constraints or "")

        loaded = [_load(path, args.format) for path in documents]
        trees = [tree for tree, _ in loaded]
        docs = [(path, is_dir) for path, (_, is_dir) in zip(documents, loaded)]

        options = MinimizeOptions(engine=args.engine, jobs=args.jobs)
        with Session(options, constraints=constraints) as session:
            minimized_results = None
            if args.minimize:
                minimized_results = session.minimize_many(patterns)
                patterns = [result.pattern for result in minimized_results]
                if not args.json:
                    for pattern in patterns:
                        print(f"# minimized to: {to_xpath(pattern)}", file=sys.stderr)

            if args.engine == "pathstack":
                for pattern in patterns:
                    if not is_path_pattern(pattern):
                        print(
                            "error: --engine pathstack requires a linear query",
                            file=sys.stderr,
                        )
                        return 2

            answer_sets = session.evaluate(patterns, trees)

        if args.json:
            records = []
            for index, (pattern, answers) in enumerate(zip(patterns, answer_sets)):
                record = {
                    "query": to_xpath(pattern),
                    "matches": len(answers),
                    "answers": sorted([t, n] for t, n in answers),
                }
                if minimized_results is not None:
                    record["minimization"] = minimized_results[index].to_json()
                records.append(record)
            print(json.dumps(records[0] if len(records) == 1 else records,
                             indent=2, sort_keys=True))
            return 0

        header_queries = len(patterns) > 1 and not args.count
        for pattern, answers in zip(patterns, answer_sets):
            if header_queries:
                print(f"## {to_xpath(pattern)}")
            if args.count:
                print(len(answers))
            else:
                _print_answers(answers, docs, trees)
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
