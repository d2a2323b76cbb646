#!/usr/bin/env python
"""Why minimization pays: the same answers from a smaller pattern, sooner.

The paper's premise is that tree pattern matching costs grow with the
size of the pattern. This example generates a constraint-satisfying
document, minimizes a deliberately redundant query under the
constraints, and matches both forms with the library's evaluator (the
candidate-set DP, ``EmbeddingEngine``): the answers are equal, the
minimized query matches faster, and a selectivity-style cost estimate
from document statistics ranks the two the same way.

Run with::

    python examples/match_payoff.py
"""

import time

from repro import minimize, parse_constraints
from repro.data import random_satisfying_tree
from repro.matching import DocumentStatistics, EmbeddingEngine, estimate_cost
from repro.parsing import parse_xpath, to_xpath


def stopwatch(fn, repeat=20):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best * 1e3


def main() -> None:
    constraints = parse_constraints(
        "Book -> Title; Book -> Author; Author -> LastName"
    )
    types = ["Library", "Shelf", "Book", "Title", "Author", "LastName"]
    document = random_satisfying_tree(types, constraints, size=600, seed=42)
    print(f"document: {document.size} nodes")

    # A deliberately redundant query.
    query = parse_xpath("Library//Book*[Title][Author/LastName][Author]")
    small = minimize(query, constraints).pattern
    print(f"query:     {to_xpath(query)}  ({query.size} nodes)")
    print(f"minimized: {to_xpath(small)}  ({small.size} nodes)")

    # 1. Matching time: original vs minimized, on the same answers.
    reference, t_orig = stopwatch(lambda: EmbeddingEngine(query, document).answer_set())
    answers, t_min = stopwatch(lambda: EmbeddingEngine(small, document).answer_set())
    assert answers == reference
    print(f"{len(reference)} matching books")
    print(
        f"original {t_orig:6.2f} ms   minimized {t_min:6.2f} ms   "
        f"({t_orig / t_min:.2f}x)"
    )

    # 2. The optimizer-style estimate ranks the two the same way.
    stats = DocumentStatistics.collect(document)
    print(
        f"estimated cost: original {estimate_cost(query, stats):.0f}, "
        f"minimized {estimate_cost(small, stats):.0f}"
    )
    assert estimate_cost(small, stats) <= estimate_cost(query, stats)


if __name__ == "__main__":
    main()
