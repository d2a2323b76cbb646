"""Reference answers computed outside the serving path.

A reference answer comes from a cold ``Session(MinimizeOptions(certify=
True, oracle_cache=False))``: no memo entry, store or oracle cache is
shared with the measured program, and the session checks every answer's
witness certificate with the engine-independent ``check_certificate``
before returning it (a failure raises). The paper-sized IC set makes
this about twice as slow as the measured work, so :class:`Pool` spreads
it over two processes, which run only between measured slices.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.constraints.repository import ConstraintRepository

from . import inputs

#: Reference processes (the host has two cores; timing is over by then).
PROCESSES = 2
#: Queries per task, small enough to balance the two processes.
CHUNK = 6

_SESSION = None


class _Closed(ConstraintRepository):
    """A closed IC set that computes its digest once. The certified
    session asks for the digest twice per answer (to stamp and to check
    each certificate); the set never changes, so one sha256 over the
    sorted notation serves them all."""

    def __init__(self, closed: ConstraintRepository) -> None:
        super().__init__(closed, closed=True)
        self._digest = closed.digest()

    def digest(self) -> str:
        return self._digest


def cold_session(constraints: "list[str] | tuple[str, ...]"):
    """A fresh certified session with every cache off, over the closure
    of ``constraints``."""
    from repro import MinimizeOptions, Session
    from repro.constraints.closure import closure
    from repro.constraints.model import parse_constraints

    closed = closure(ConstraintRepository(parse_constraints("\n".join(constraints))))
    return Session(MinimizeOptions(certify=True, oracle_cache=False),
                   constraints=_Closed(closed))


def solve(session, specs: list) -> list[tuple[str, int]]:
    """``(canonical_key, output_size)`` of each spec's certified minimum.

    The specs must be pairwise non-isomorphic, so every answer is
    computed cold; raises ``RuntimeError`` unless the session certified
    each one."""
    before = session.counters().get("certified", 0)
    results = session.minimize_many([inputs.to_pattern(spec) for spec in specs])
    certified = session.counters().get("certified", 0) - before
    if certified != len(specs) or any(r.cache_hit or r.certificate is None for r in results):
        raise RuntimeError(
            f"reference session certified {certified} of {len(specs)} answers"
        )
    return [(r.pattern.canonical_key(), r.output_size) for r in results]


def _init(constraints: list[str]) -> None:
    global _SESSION
    _SESSION = cold_session(constraints)
    _SESSION.constraints_digest()  # close the IC set before any query


def _solve_chunk(specs: list) -> list[tuple[str, int]]:
    return solve(_SESSION, specs)


def _ready() -> int:
    time.sleep(0.2)  # long enough for every idle process to take one
    return os.getpid()


class Pool:
    """:data:`PROCESSES` spawned reference processes, each holding one
    cold session over ``constraints``. Between measured slices they are
    idle; :meth:`solve` blocks until its answers are back."""

    def __init__(self, constraints: list[str]) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=PROCESSES, mp_context=multiprocessing.get_context("spawn"),
            initializer=_init, initargs=(list(constraints),),
        )
        # Start every process (and close its IC set) before anything is
        # timed: tasks run only after a process's initializer finished.
        ready: set[int] = set()
        while len(ready) < PROCESSES:
            tasks = [self._executor.submit(_ready) for _ in range(PROCESSES)]
            ready.update(task.result() for task in tasks)

    def solve(self, specs: list) -> list[tuple[str, int]]:
        """Reference answers for ``specs``, in order."""
        chunks = [specs[i:i + CHUNK] for i in range(0, len(specs), CHUNK)]
        return [answer for chunk in self._executor.map(_solve_chunk, chunks)
                for answer in chunk]

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
