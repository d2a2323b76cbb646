"""``repro-scenario`` — replay seeded scenario specs against live backends.

Examples::

    repro-scenario run docs/scenarios/steady-state.json
    repro-scenario run docs/scenarios/churn-heavy.json --target service --verify
    repro-scenario run spec.json --target service --repeat 2
    repro-scenario run spec.json --target tcp:127.0.0.1:8777 --events out.jsonl
    repro-scenario plan docs/scenarios/burst.json
    repro-scenario validate my-spec.json

``run`` replays the spec and prints a JSON report whose ``digest`` is
the replay-determinism fingerprint: the same spec + seed must print the
same digest on every backend. ``--repeat N`` runs the scenario N times
and fails (exit 1) if any digest differs. ``--verify`` adds cold-probe
checks after every constraint-churn event (served answers must be
byte-identical to a fresh session built on the post-churn repository).
``plan`` prints the expanded deterministic op plan without executing
it; ``validate`` just checks the spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..api import MinimizeOptions
from ..errors import ReproError
from .events import write_events
from .runner import ScenarioRunner, build_plan
from .spec import load_spec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Replay seeded workload scenarios against live serving backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a scenario and print the report")
    run.add_argument("spec", type=Path, help="scenario spec JSON file")
    run.add_argument(
        "--target",
        default="session",
        help="session | service | tcp:HOST:PORT (default session)",
    )
    run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run N times and fail unless every replay digest matches",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after every churn event, cold-probe family exemplars against "
            "a fresh post-churn session (byte-identical or fail)"
        ),
    )
    run.add_argument(
        "--paced",
        action="store_true",
        help=(
            "run requests between churn events concurrently (churn stays "
            "a barrier, so the digest is unchanged)"
        ),
    )
    run.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="with --paced: sleep out arrival offsets scaled by this factor",
    )
    run.add_argument(
        "--events",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the event log as JSON lines",
    )
    run.add_argument(
        "--include-events",
        action="store_true",
        help="inline the full event list in the printed report",
    )

    plan = sub.add_parser("plan", help="print the expanded op plan (no execution)")
    plan.add_argument("spec", type=Path)

    validate = sub.add_parser("validate", help="validate a spec file")
    validate.add_argument("spec", type=Path)
    return parser


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    options = MinimizeOptions()
    digests = []
    report = None
    for _ in range(args.repeat):
        runner = ScenarioRunner(
            spec,
            target=args.target,
            options=options,
            verify=args.verify,
            paced=args.paced,
            time_scale=args.time_scale,
        )
        report = runner.run()
        digests.append(report.digest)
    assert report is not None
    if args.events is not None:
        write_events(args.events, report.events)
    out = report.to_json(include_events=args.include_events)
    if args.repeat > 1:
        out["replay_digests"] = digests
        out["replay_deterministic"] = len(set(digests)) == 1
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.repeat > 1 and len(set(digests)) != 1:
        print("error: replay digests diverged across repeats", file=sys.stderr)
        return 1
    if report.verify_failures:
        print(
            f"error: {len(report.verify_failures)} cold-probe mismatch(es) "
            "after churn",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_plan(args) -> int:
    spec = load_spec(args.spec)
    plan = build_plan(spec)
    out = {
        "name": spec.name,
        "seed": spec.seed,
        "families": len(plan.families),
        "initial_constraints": [
            c.notation() for c in plan.initial_constraints
        ],
        "churn_pool": [c.notation() for c in plan.churn_pool],
        "ops": [
            {
                "index": i,
                "op": p.op,
                "tenant": p.tenant,
                "family": p.family,
                "offset": round(p.offset, 6),
                **({"add": p.add, "drop": p.drop} if p.op == "ic-update" else {}),
            }
            for i, p in enumerate(plan.ops)
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    print(f"ok: {spec.name} ({spec.events} events, {len(spec.tenants)} tenant(s))")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plan":
            return _cmd_plan(args)
        return _cmd_validate(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
