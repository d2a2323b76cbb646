"""``repro-serve`` — run the minimization service over stdio or TCP.

Examples::

    # One-shot scripting over stdio (exits at EOF):
    echo '{"op": "minimize", "query": "a/b[c][c]"}' | repro-serve

    # A long-lived TCP endpoint with warm workers:
    repro-serve --tcp 127.0.0.1:8777 --jobs 4 -C ics.txt

    # Tighter batching for latency-sensitive clients:
    repro-serve --max-wait 0.002 --max-batch-size 8

    # Chaos mode — replay a deterministic fault plan over TCP:
    repro-serve --tcp 127.0.0.1:0 --fault-plan seed:42 --max-batch-size 1

Everything runs in one process: protocol, micro-batcher, one
:class:`~repro.api.Session` and (with ``--store``) its single store
writer. ``--jobs N`` is the one way to put several cores to work: the
session's worker pool minimizes a batch's distinct queries.

Lifecycle: SIGTERM and SIGINT trigger a **graceful drain** — the server
stops accepting new requests/connections, flushes every in-flight
response, releases the worker pool, and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

from ..api import MinimizeOptions
from ..constraints.model import parse_constraints
from ..errors import ReproError
from ..resilience.faults import FaultPlan
from ..tools.minimize_cli import _jobs_arg
from .protocol import serve_stdio, serve_tcp
from .service import MinimizationService

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve tree-pattern-query minimization over a JSON-lines "
            "protocol (stdio by default, TCP with --tcp)."
        ),
    )
    parser.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP instead of stdio (e.g. 127.0.0.1:8777)",
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
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes, kept warm across batches (0 = one per "
            "core; 'auto' = one per core, tiny batches serial)"
        ),
    )
    parser.add_argument(
        "--no-oracle-cache",
        action="store_true",
        help="disable the containment-oracle cache for served requests",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=16,
        help="flush a micro-batch at this many requests (default 16)",
    )
    parser.add_argument(
        "--max-wait",
        type=float,
        default=0.01,
        help="max seconds the oldest request waits before flush (default 0.01)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="bound on queued requests before rejection (default 256)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--watchdog",
        type=float,
        default=None,
        help=(
            "per-chunk wall-clock bound (seconds) on pooled work: hung "
            "workers are killed and the chunk requeued (default: none)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "persistent content-addressed cache file (SQLite; created on "
            "first use): warm-starts the replay memo on boot and "
            "write-behinds new results"
        ),
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "record witness certificates and verify every answer — fresh "
            "or cached — with the independent checker before serving it "
            "(repro.certify); failed cached records are quarantined and "
            "recomputed"
        ),
    )
    parser.add_argument(
        "--audit-rate",
        type=int,
        default=64,
        metavar="N",
        help=(
            "re-verify 1-in-N served answers in the background, off the "
            "reply path; a failed audit quarantines the record "
            "(0 disables; ignored under --certify, which checks every "
            "answer inline; default 64)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help=(
            "deterministic fault injection: 'seed:<int>', inline JSON, or "
            "'@file.json' (see repro.resilience.faults; chaos testing only)"
        ),
    )
    return parser


def _parse_fault_plan(spec: str) -> FaultPlan:
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text()
    return FaultPlan.parse(spec)


def _parse_endpoint(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"--tcp expects HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


async def _serve(args: argparse.Namespace) -> int:
    constraint_text = args.constraints or ""
    if args.constraints_file is not None:
        constraint_text += "\n" + args.constraints_file.read_text()
    constraints = parse_constraints(constraint_text)
    options = MinimizeOptions(
        jobs=args.jobs,
        oracle_cache=not args.no_oracle_cache,
        watchdog=args.watchdog,
        fault_plan=(
            _parse_fault_plan(args.fault_plan) if args.fault_plan else None
        ),
        store_path=str(args.store) if args.store is not None else None,
        certify=args.certify,
        audit_rate=args.audit_rate,
    )
    service = MinimizationService(
        options,
        constraints=constraints,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
    )

    # Graceful drain on SIGTERM/SIGINT: stop accepting, flush in-flight
    # responses, release the pool, exit 0.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
    try:
        async with service:
            if args.tcp is not None:
                host, port = _parse_endpoint(args.tcp)

                def _announce(bound_port: int) -> None:
                    # The *actual* port (meaningful with ':0'), parsed by
                    # test harnesses and supervisors.
                    print(
                        f"repro-serve listening on {host}:{bound_port}",
                        file=sys.stderr,
                        flush=True,
                    )

                await serve_tcp(service, host, port, stop=stop, on_bound=_announce)
            else:
                await serve_stdio(service, stop=stop)
        if stop.is_set():
            print("repro-serve drained, exiting", file=sys.stderr, flush=True)
    finally:
        for sig in installed:
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.remove_signal_handler(sig)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Run the server; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
