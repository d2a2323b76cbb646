"""Drivers regenerating every figure of the paper's evaluation (Section 6).

Each ``figNx()`` function reproduces one plot: it builds the same workload
the paper describes, times the same algorithm(s), and returns an
:class:`~repro.bench.timing.ExperimentResult` whose series carry the same
labels as the paper's plot legends. Absolute times differ from the 2001
testbed, but the *shapes* — what is flat, what is linear, who wins — are
the reproduction targets; ``EXPERIMENTS.md`` records both.

All constraint repositories are logically closed *outside* the timed
region, mirroring the paper's setup where the closure is part of loading
the constraint repository, not of minimization.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..constraints.closure import closure
from ..constraints.model import required_child, required_descendant
from ..constraints.repository import ConstraintRepository
from ..core.acim import acim_minimize
from ..core.cdm import cdm_minimize
from ..core.pattern import TreePattern
from ..core.pipeline import minimize
from ..workloads.icgen import relevant_constraints
from ..workloads.querygen import (
    bushy_cdm_query,
    chain_constraints,
    chain_query,
    cyclic_chain_constraints,
    equal_removal_query,
    fanout_cdm_query,
    fanout_constraints,
    half_removal_query,
    redundancy_query,
    right_deep_cdm_query,
)
from .timing import ExperimentResult, Series, best_of

__all__ = [
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8a_acim",
    "fig8b",
    "fig9a",
    "fig9b",
    "ALL_EXPERIMENTS",
    "run_experiment",
]

#: Figure 7(a)'s x axis: total redundant nodes (RedDegree * RedNodes).
_FIG7_PRODUCTS: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90)
_FIG7_DEGREE = 10
_FIG7_SIZE = 101


def _fig7_workload(product: int, n_constraints: int) -> tuple[TreePattern, ConstraintRepository]:
    """The Figure 7 query (101 nodes, ``product`` redundant) plus a
    constraint set of exactly ``n_constraints`` relevant constraints.

    The redundancy-driving ICs are padded with *active but fold-free*
    constraints (see the inline comment): they make augmentation add
    virtual targets — so constraint volume costs what it did in the
    paper — without creating any extra redundancy.
    """
    red_nodes = product // _FIG7_DEGREE
    query, driving = redundancy_query(
        _FIG7_SIZE, red_nodes=red_nodes, red_degree=_FIG7_DEGREE, seed=product
    )
    if n_constraints == 0:
        return query, closure([])
    # Pad with constraints S_i -> R_j / S_i ->> R_j where S_i is NOT R_j's
    # anchor: each adds one virtual target during augmentation (real work,
    # as in the paper) but can never be the target of a fold (the R_j
    # leaves are c-children of a different-typed parent), and R types have
    # no outgoing constraints so the closure cannot chain.
    anchors = {c.target: c.source for c in driving}
    spine_len = _FIG7_SIZE - product
    padding: list = []
    need = max(0, n_constraints - len(driving))
    for make in (required_child, required_descendant):
        for i in range(spine_len):
            for leaf_type, anchor in sorted(anchors.items()):
                if len(padding) >= need:
                    break
                source = f"S{i}"
                candidate = make(source, leaf_type)
                if source != anchor and candidate not in driving:
                    padding.append(candidate)
            if len(padding) >= need:
                break
        if len(padding) >= need:
            break
    constraints = driving + padding
    return query, closure(constraints)


def fig7a(*, repeat: int = 3) -> ExperimentResult:
    """Figure 7(a): ACIM time vs total redundant nodes, for 0/50/100/150
    relevant constraints.

    Expected shape: roughly flat in the redundancy product for a fixed
    constraint count; increasing (about linearly) in the constraint
    count.
    """
    result = ExperimentResult(
        name="fig7a",
        title="Studying ACIM: varying redundancy and constraints",
        x_label="RedDegree*RedNodes",
        y_label="ACIM time (s)",
    )
    for n_constraints in (0, 50, 100, 150):
        label = "NoConstraint" if n_constraints == 0 else f"{n_constraints}Constraints"
        series = Series(label)
        for product in _FIG7_PRODUCTS:
            query, repo = _fig7_workload(product, n_constraints)
            series.add(product, best_of(lambda: acim_minimize(query, repo), repeat=repeat))
        result.series.append(series)
    query, repo = _fig7_workload(_FIG7_PRODUCTS[-1], 150)
    removed = acim_minimize(query, repo).removed_count
    result.notes.append(
        f"at product={_FIG7_PRODUCTS[-1]} with 150 constraints, ACIM removes "
        f"{removed} of {query.size} nodes"
    )
    return result


def fig7b(*, repeat: int = 3) -> ExperimentResult:
    """Figure 7(b): ACIM total time vs the time spent building the
    tables (the paper measures its images and ancestor/descendant tables
    at ~60% of the total). Here the tables time covers the relation
    tables, the type index and deletions; the images rows are built
    lazily inside each redundancy check and count as pruning time.

    Workload: the 101-node query with 100 relevant constraints; as in the
    paper, all nodes except the root are redundant (the chain query of
    Figure 7(b)'s description).
    """
    result = ExperimentResult(
        name="fig7b",
        title="Studying ACIM: total time vs tables time",
        x_label="RedDegree*RedNodes",
        y_label="time (s)",
    )
    total = Series("TotalTime")
    tables = Series("TablesTime")
    ratios: list[float] = []
    for product in _FIG7_PRODUCTS:
        query, repo = _fig7_workload(product, 100)
        # Measure both quantities from the same (fastest) run so the
        # tables fraction is internally consistent.
        runs = [acim_minimize(query, repo) for _ in range(repeat)]
        fastest = min(runs, key=lambda r: r.total_seconds)
        total.add(product, fastest.total_seconds)
        tables.add(product, fastest.tables_seconds)
        if fastest.total_seconds > 0:
            ratios.append(fastest.tables_seconds / fastest.total_seconds)
    result.series = [total, tables]
    if ratios:
        mean_ratio = sum(ratios) / len(ratios)
        result.notes.append(
            f"tables time (relation tables, type index, deletions) is "
            f"{mean_ratio:.0%} of ACIM total on average (paper: ~60%, "
            f"images tables included; images rows count as pruning here)"
        )
    # The paper's all-redundant configuration, reported as a note.
    chain = chain_query(_FIG7_SIZE)
    chain_repo = closure(chain_constraints(_FIG7_SIZE))
    chain_run = acim_minimize(chain, chain_repo)
    result.notes.append(
        f"all-redundant chain (101 nodes, 100 constraints): removed "
        f"{chain_run.removed_count}, tables fraction "
        f"{chain_run.tables_seconds / max(chain_run.total_seconds, 1e-12):.0%}"
    )
    return result


def fig8a(*, repeat: int = 5) -> ExperimentResult:
    """Figure 8(a): CDM time vs number of constraints in the repository
    (127-node query; constraints 0..150 relevant to it).

    Expected shape: constant — every CDM probe is a hash lookup keyed by
    an argument pair, independent of repository size.
    """
    result = ExperimentResult(
        name="fig8a",
        title="Studying CDM: varying constraints",
        x_label="number of constraints",
        y_label="CDM time (s)",
    )
    query = bushy_cdm_query(127)
    series = Series("CDMconstant")
    for n in range(0, 151, 10):
        repo = closure(relevant_constraints(query, n, seed=n))
        series.add(n, best_of(lambda: cdm_minimize(query, repo), repeat=repeat))
    result.series.append(series)
    lo, hi = min(series.ys), max(series.ys)
    result.notes.append(
        f"min {lo * 1e3:.3f} ms, max {hi * 1e3:.3f} ms over 0..150 constraints"
    )
    return result


#: Figure 8(a) for ACIM: lengths of the irrelevant ``X0 -> X1 -> ...``
#: chain, whose closure holds k + k(k+1)/2 constraints (0 .. 5049).
_FIG8A_ACIM_CHAINS: tuple[int, ...] = (0, 10, 20, 40, 60, 80, 99)


def fig8a_acim(*, repeat: int = 30) -> ExperimentResult:
    """Figure 8(a)'s premise applied to ACIM: ACIM and CDM+ACIM time on
    a fixed query as irrelevant closed constraints grow from 0 to about
    5000.

    The query is a 20-node Figure 7(a) construction under its own two
    driving constraints; the growth is an ``X0 -> X1 -> ...`` chain that
    mentions no type of the query. Expected shape: constant — the
    pipeline reads the closure only by hash probe and through facts the
    repository keeps per closure, which are computed with the closure,
    outside the timed region.
    """
    result = ExperimentResult(
        name="fig8a_acim",
        title="Studying ACIM: varying irrelevant constraints",
        x_label="closed constraints in the repository",
        y_label="time (s)",
    )
    query, driving = redundancy_query(20, red_nodes=2, red_degree=2, seed=0)
    repos = []
    for links in _FIG8A_ACIM_CHAINS:
        chain = [required_child(f"X{i}", f"X{i + 1}") for i in range(links)]
        repos.append(closure(driving + chain))
        minimize(query, repos[-1])  # the repository's per-closure facts
    runners = (("ACIM", acim_minimize), ("CDM+ACIM", minimize))
    best = [[float("inf")] * len(repos) for _ in runners]
    # Round robin over the points: a slow spell of the host (or a move to
    # a slower core) then touches every point alike, not one point's
    # whole best-of run.
    for _ in range(repeat):
        for i, repo in enumerate(repos):
            for times, (_, run) in zip(best, runners):
                times[i] = min(times[i], best_of(lambda: run(query, repo), repeat=1))
    for times, (label, _) in zip(best, runners):
        series = Series(label)
        for repo, seconds in zip(repos, times):
            series.add(len(repo), seconds)
        result.series.append(series)
    for series in result.series:
        lo, hi = min(series.ys), max(series.ys)
        result.notes.append(
            f"{series.label}: min {lo * 1e3:.3f} ms, max {hi * 1e3:.3f} ms "
            f"(max/min {hi / lo:.2f}) over {result.x_values()[0]}.."
            f"{result.x_values()[-1]} closed constraints"
        )
    return result


def fig8b(*, repeat: int = 5) -> ExperimentResult:
    """Figure 8(b): CDM time vs query size for right-deep / bushy /
    varying-fanout queries under a fixed 110-constraint set; all edges
    redundant so only the marked root survives.

    Expected shape: linear in size for fixed fanout, shape-insensitive
    (right-deep ≈ bushy), and quadratic along the fanout series.
    """
    result = ExperimentResult(
        name="fig8b",
        title="Studying CDM: varying query size and shape",
        x_label="query size (nodes)",
        y_label="CDM time (s)",
    )
    sizes = list(range(10, 141, 10))
    fixed_repo = closure(cyclic_chain_constraints())

    shape_makers: list[tuple[str, Callable[[int], TreePattern]]] = [
        ("RightDeep", right_deep_cdm_query),
        ("Bushy", bushy_cdm_query),
    ]
    for label, maker in shape_makers:
        series = Series(label)
        for size in sizes:
            query = maker(size)
            series.add(size, best_of(lambda: cdm_minimize(query, fixed_repo), repeat=repeat))
            if cdm_minimize(query, fixed_repo).pattern.size != 1:
                result.notes.append(f"WARNING: {label} size {size} not fully reduced")
        result.series.append(series)

    fanout_series = Series("VaryingFanout")
    for size in sizes:
        fanout = size - 1  # star query: root plus `fanout` children
        query = fanout_cdm_query(fanout)
        repo = closure(fanout_constraints(fanout))
        fanout_series.add(size, best_of(lambda: cdm_minimize(query, repo), repeat=repeat))
    result.series.append(fanout_series)
    return result


def _time_pair(
    sizes: Sequence[int],
    make: Callable[[int], tuple[TreePattern, Iterable]],
    runners: Sequence[tuple[str, Callable[[TreePattern, ConstraintRepository], object]]],
    repeat: int,
) -> list[Series]:
    out = [Series(label) for label, _ in runners]
    for size in sizes:
        query, constraints = make(size)
        repo = closure(constraints)
        for series, (_, runner) in zip(out, runners):
            series.add(size, best_of(lambda: runner(query, repo), repeat=repeat))
    return out


def fig9a(*, repeat: int = 3) -> ExperimentResult:
    """Figure 9(a): ACIM vs CDM on queries where both remove the same
    node set, with growing query size.

    Expected shape: CDM far below ACIM, the gap widening with size.
    Raises :class:`AssertionError` when, at any size, CDM and ACIM remove
    different node sets.
    """
    result = ExperimentResult(
        name="fig9a",
        title="ACIM and CDM with a varying query size",
        x_label="query size (nodes)",
        y_label="time (s)",
    )
    sizes = list(range(10, 101, 10))
    result.series = _time_pair(
        sizes,
        equal_removal_query,
        [
            ("ACIM", lambda q, repo: acim_minimize(q, repo)),
            ("CDM", lambda q, repo: cdm_minimize(q, repo)),
        ],
        repeat,
    )
    for size in sizes:
        q, ics = equal_removal_query(size)
        repo = closure(ics)
        by_cdm = {entry[0] for entry in cdm_minimize(q, repo).eliminated}
        by_acim = {entry[0] for entry in acim_minimize(q, repo).eliminated}
        if by_cdm != by_acim:
            raise AssertionError(
                f"fig9a: at size {size} CDM removed nodes {sorted(by_cdm)} "
                f"but ACIM removed {sorted(by_acim)}"
            )
    result.notes.append(
        f"CDM and ACIM remove identical node sets at every size "
        f"({len(by_cdm)} nodes at size {sizes[-1]}; checked)"
    )
    return result


def fig9b(*, repeat: int = 3) -> ExperimentResult:
    """Figure 9(b): direct ACIM vs CDM-then-ACIM on queries where CDM can
    remove half of what ACIM can.

    Expected shape: the pre-filtered pipeline always at or below direct
    ACIM, the advantage growing with query size. Raises
    :class:`AssertionError` when, at any size, CDM does not remove exactly
    half of what direct ACIM removes, or CDM-then-ACIM is not isomorphic
    to direct ACIM (Theorem 5.3).
    """
    result = ExperimentResult(
        name="fig9b",
        title="Direct ACIM vs CDM as a pre-filter",
        x_label="query size (nodes)",
        y_label="time (s)",
    )
    sizes = list(range(10, 101, 10))

    def cdm_then_acim(q: TreePattern, repo: ConstraintRepository) -> None:
        reduced = cdm_minimize(q, repo).pattern
        acim_minimize(reduced, repo)

    result.series = _time_pair(
        sizes,
        half_removal_query,
        [
            ("ACIM", lambda q, repo: acim_minimize(q, repo)),
            ("CDMACIM", cdm_then_acim),
        ],
        repeat,
    )
    for size in sizes:
        q, ics = half_removal_query(size)
        repo = closure(ics)
        cdm = cdm_minimize(q, repo)
        direct = acim_minimize(q, repo)
        if 2 * cdm.removed_count != direct.removed_count:
            raise AssertionError(
                f"fig9b: at size {size} CDM removed {cdm.removed_count} nodes, "
                f"not half of direct ACIM's {direct.removed_count}"
            )
        if not acim_minimize(cdm.pattern, repo).pattern.isomorphic(direct.pattern):
            raise AssertionError(
                f"fig9b: at size {size} CDM-then-ACIM is not isomorphic to "
                "direct ACIM (Theorem 5.3)"
            )
    result.notes.append(
        f"CDM removes {cdm.removed_count}, ACIM removes {direct.removed_count} "
        f"at size {sizes[-1]}; half at every size and CDM-then-ACIM isomorphic "
        "to direct ACIM (checked)"
    )
    return result


#: Registry of all experiment drivers, keyed by figure id.
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8a": fig8a,
    "fig8a_acim": fig8a_acim,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
}


def run_experiment(name: str, *, repeat: int | None = None) -> ExperimentResult:
    """Run one experiment by id (``KeyError`` for unknown ids)."""
    driver = ALL_EXPERIMENTS[name]
    return driver() if repeat is None else driver(repeat=repeat)
