"""``tpq-minimize`` — minimize a tree pattern query from the command line.

Examples::

    tpq-minimize 'Articles/Article[Title][.//Paragraph]'
    tpq-minimize 'a/b[c][c]' --algorithm cim --explain
    tpq-minimize 'Book*[Title][Publisher]' -c 'Book -> Title; Book -> Publisher'
    tpq-minimize --sexpr '(a (/ b) (/ b))' --format sexpr
    echo 'Section ->> Paragraph' > ics.txt
    tpq-minimize 'Articles/Article*[.//Paragraph][.//Section]' -C ics.txt

Batch mode minimizes a whole file of queries (one per line, ``#``
comments allowed) through the workload backend — constraint closure
computed once, isomorphic queries memoized, distinct queries optionally
fanned across worker processes::

    tpq-minimize --batch queries.txt -C ics.txt --jobs 4
    tpq-minimize --batch - < queries.txt --explain
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..api import MinimizeOptions, QueryResult, Session
from ..constraints.model import parse_constraints
from ..core.acim import acim_minimize
from ..core.cdm import cdm_minimize
from ..core.cim import cim_minimize
from ..errors import ReproError
from ..parsing.serializer import to_xpath
from ..parsing.sexpr import parse_sexpr, to_sexpr
from ..parsing.xpath import parse_xpath

__all__ = ["main", "build_parser"]


def _jobs_arg(value: str):
    """``--jobs`` values: an integer worker count or the literal
    ``auto`` (one per core, tiny batches serial)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The ``tpq-minimize`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tpq-minimize",
        description="Minimize a tree pattern query (CIM / CDM / ACIM / full pipeline).",
        epilog=(
            "Every flag maps onto one repro.api.MinimizeOptions field — "
            "the library's single configuration path."
        ),
    )
    parser.add_argument(
        "query",
        nargs="?",
        default=None,
        help="the query (XPath subset, or s-expression with --sexpr)",
    )
    parser.add_argument(
        "--sexpr", action="store_true", help="parse the query as an s-expression"
    )
    parser.add_argument(
        "--batch",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "minimize a file of queries (one per line, '#' comments; '-' for "
            "stdin) through the batch backend; prints one minimized query "
            "per line in input order"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes for --batch (0 = one per core; 'auto' = one "
            "per core but tiny batches run serially; default 1)"
        ),
    )
    parser.add_argument(
        "-c",
        "--constraints",
        default=None,
        help="inline constraints, ';'-separated (e.g. 'Book -> Title; A ~ B')",
    )
    parser.add_argument(
        "-C",
        "--constraints-file",
        type=Path,
        default=None,
        help="file of constraints, one per line ('#' comments allowed)",
    )
    parser.add_argument(
        "--algorithm",
        choices=("pipeline", "cim", "cdm", "acim"),
        default="pipeline",
        help="which minimizer to run (default: CDM + ACIM pipeline)",
    )
    parser.add_argument(
        "--format",
        choices=("xpath", "sexpr", "ascii"),
        default="xpath",
        help="output rendering of the minimized query",
    )
    parser.add_argument(
        "--explain", action="store_true", help="print what was removed and why"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the unified QueryResult JSON (one object per query; the "
            "same shape the repro-serve protocol returns)"
        ),
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "record a witness certificate for every elimination and "
            "re-verify each answer with the independent checker "
            "(repro.certify) before printing; a failed check exits 2. "
            "With --json the certificate is included in the output"
        ),
    )
    return parser


def _render(pattern, fmt: str) -> str:
    if fmt == "xpath":
        return to_xpath(pattern)
    if fmt == "sexpr":
        return to_sexpr(pattern, pretty=True)
    return pattern.to_ascii()


def _read_batch_queries(path: Path, use_sexpr: bool) -> list:
    """Parse a file of queries (one per line; '#' comments, blank lines
    skipped; '-' reads stdin)."""
    text = sys.stdin.read() if str(path) == "-" else path.read_text()
    parse = parse_sexpr if use_sexpr else parse_xpath
    queries = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            queries.append(parse(line))
    return queries


def _session_options(args) -> MinimizeOptions:
    """The one configuration object both CLI paths hand to ``Session``
    (no engine/cache kwargs threaded anywhere below this line)."""
    return MinimizeOptions(jobs=args.jobs, certify=args.certify)


def _emit_json(results: "list[QueryResult]", fmt: str) -> None:
    """Print the unified JSON shape (a list for batch, one object for a
    single query) — exactly what the service protocol returns."""
    payload = [r.to_json(fmt=fmt) for r in results]
    print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, sort_keys=True))


def _json_fmt(args) -> str:
    return "sexpr" if args.format == "sexpr" else "xpath"


def _verify_results(session: Session, results: "list[QueryResult]") -> bool:
    """Re-check every certificate with the independent checker (the
    ``--certify`` post-condition); failures go to stderr."""
    ok = True
    for result in results:
        verdict = session.check_certificate(result)
        if not verdict:
            ok = False
            print(
                "error: certificate check failed for "
                f"{to_xpath(result.input_pattern)}: {verdict.reason}",
                file=sys.stderr,
            )
    return ok


def _run_batch(args, constraints) -> int:
    queries = _read_batch_queries(args.batch, args.sexpr)
    with Session(_session_options(args), constraints=constraints) as session:
        results = session.minimize_many(queries)
        counters = session.counters()
        if args.certify and not _verify_results(session, results):
            return 2
    if args.json:
        _emit_json(results, _json_fmt(args))
    else:
        for result in results:
            fmt = "sexpr" if args.format == "sexpr" else args.format
            rendered = (
                to_sexpr(result.pattern) if fmt == "sexpr" else _render(result.pattern, fmt)
            )
            print(rendered)
    if args.explain:
        removed = sum(r.removed_count for r in results)
        print(
            f"# {counters.get('queries', 0):.0f} queries "
            f"({counters.get('distinct', 0):.0f} distinct structures), "
            f"{removed} nodes removed",
            file=sys.stderr,
        )
        print(
            f"# cache hit rate {counters.get('hit_rate', 0.0):.0%}, "
            f"jobs={args.jobs}, "
            f"minimize {counters.get('minimize_seconds', 0.0) * 1e3:.1f} ms "
            f"(closure {counters.get('closure_seconds', 0.0) * 1e3:.1f} ms)",
            file=sys.stderr,
        )
    return 0


def _run_single(args, constraints) -> int:
    query = parse_sexpr(args.query) if args.sexpr else parse_xpath(args.query)

    if args.algorithm == "pipeline":
        with Session(_session_options(args), constraints=constraints) as session:
            result = session.minimize(query)
            if args.certify and not _verify_results(session, [result]):
                return 2
        explain_lines: list[str] = []
        detail = result.detail
        if detail is not None and detail.cdm is not None:
            explain_lines += [
                f"removed node #{i} ({t}) [CDM rule: {rule}]"
                for i, t, rule in detail.cdm.eliminated
            ]
        if detail is not None and detail.acim is not None:
            explain_lines += [
                f"removed node #{i} ({t}) [ACIM]" for i, t in detail.acim.eliminated
            ]
    else:
        # The research-algorithm drivers (CIM / CDM / ACIM in isolation)
        # run outside the pipeline; the session's cache scope still
        # applies through the re-entrant guard in main().
        if args.algorithm == "cim":
            run = cim_minimize(query)
            eliminated = list(run.eliminated)
            explain_lines = [f"removed node #{i} ({t}) [CIM]" for i, t in run.eliminated]
        elif args.algorithm == "cdm":
            run = cdm_minimize(query, constraints)
            eliminated = [(i, t) for i, t, _ in run.eliminated]
            explain_lines = [
                f"removed node #{i} ({t}) [CDM rule: {rule}]"
                for i, t, rule in run.eliminated
            ]
        else:  # acim
            run = acim_minimize(query, constraints)
            eliminated = list(run.eliminated)
            explain_lines = [f"removed node #{i} ({t}) [ACIM]" for i, t in run.eliminated]
        result = QueryResult(
            pattern=run.pattern, input_pattern=query, eliminated=eliminated
        )

    if args.json:
        _emit_json([result], _json_fmt(args))
    else:
        print(_render(result.pattern, args.format))
    if args.explain:
        print(f"# {result.input_size} -> {result.output_size} nodes", file=sys.stderr)
        for line in explain_lines:
            print(f"# {line}", file=sys.stderr)
        if not explain_lines:
            print("# query was already minimal", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the tool; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.query is None) == (args.batch is None):
        parser.error("exactly one of QUERY or --batch FILE is required")
    if args.batch is not None and args.algorithm != "pipeline":
        parser.error("--batch only supports the default pipeline algorithm")
    if args.certify and args.algorithm != "pipeline":
        parser.error(
            "--certify requires the pipeline algorithm (the standalone "
            "CIM/CDM/ACIM drivers do not assemble certificates)"
        )
    if args.json and args.format == "ascii":
        parser.error("--json renders queries as xpath or sexpr, not ascii")
    try:
        constraint_text = args.constraints or ""
        if args.constraints_file is not None:
            constraint_text += "\n" + args.constraints_file.read_text()
        constraints = parse_constraints(constraint_text)

        if args.batch is not None:
            return _run_batch(args, constraints)
        return _run_single(args, constraints)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
