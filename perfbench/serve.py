"""Launch ``repro-serve`` from the checkout, optionally traced.

Usage::

    python3 perfbench/serve.py --out STATUS.json [--trace SPANS.jsonl] -- <repro-serve args>

Runs the program's own entry point, ``repro.service.cli.main``, with the
given arguments. With ``--trace`` the benchmark's span wrappers are
installed first and the spans are written to ``SPANS.jsonl`` when the
server exits (SIGTERM drains it). ``STATUS.json`` receives the exit code
and the process's peak resident memory.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: serve.py --out PATH [--trace PATH] -- <repro-serve args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, server_args = argv[:split], argv[split + 1:]
    options = dict(zip(own[::2], own[1::2]))
    common.use_checkout_sources()
    from repro.service import cli

    tracer = None
    if "--trace" in options:
        from perfbench import trace

        tracer = trace.install(trace.Tracer())
    try:
        code = cli.main(server_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(options["--trace"])
    with open(options["--out"], "w", encoding="utf-8") as out:
        json.dump({"code": code, "peak_rss_mb": common.peak_rss_mb()}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
