"""Seeded inputs for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives byte-identical inputs (see :func:`encode`), a different seed gives
different ones. The program under test receives only what this module
returns: patterns, constraint notation strings and operation streams.

A generated query is a *spec*, ``(type, is_output, children)`` with
``children`` a list of ``(edge, spec)`` pairs and ``edge`` either ``"/"``
or ``"//"``. Specs are turned into program patterns by :func:`to_pattern`
only when a workload needs them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Spec helpers
# ---------------------------------------------------------------------------


def spec_size(spec) -> int:
    """Node count of a spec."""
    return 1 + sum(spec_size(child) for _, child in spec[2])


def canon(spec) -> str:
    """A canonical text of a spec: equal exactly for isomorphic specs."""
    kids = sorted(edge + canon(child) for edge, child in spec[2])
    return spec[0] + ("*" if spec[1] else "") + "(" + ",".join(kids) + ")"


def shuffled(spec, rng: random.Random):
    """An isomorphic copy with every sibling list shuffled, so the
    program sees other node ids and another child order."""
    kids = [(edge, shuffled(child, rng)) for edge, child in spec[2]]
    rng.shuffle(kids)
    return (spec[0], spec[1], kids)


def to_pattern(spec):
    """Build the program's ``TreePattern`` for a spec (ids in preorder)."""
    from repro.core.edges import EdgeKind
    from repro.core.pattern import TreePattern

    pattern = TreePattern(spec[0], root_is_output=spec[1])
    stack = [(pattern.root, spec)]
    while stack:
        node, current = stack.pop()
        for edge, child in current[2]:
            kind = EdgeKind.CHILD if edge == "/" else EdgeKind.DESCENDANT
            twin = pattern.add_child(node, child[0], kind, is_output=child[1])
            stack.append((twin, child))
    return pattern


def to_text(spec) -> str:
    """The XPath text of a spec, as a client would send it."""
    from repro.parsing.serializer import to_xpath

    return to_xpath(to_pattern(spec))


def _grow(rng: random.Random, size: int, pick_type, *, max_fanout: int,
          descendant_share: float):
    """A random tree of ``size`` nodes; ``pick_type(parent_type)`` chooses
    each child's type (``None`` for the root)."""
    nodes = [[pick_type(None), False, []]]
    open_nodes = [0]
    for _ in range(size - 1):
        index = rng.choice(open_nodes)
        parent = nodes[index]
        edge = "//" if rng.random() < descendant_share else "/"
        child = [pick_type(parent[0]), False, []]
        parent[2].append((edge, child))
        nodes.append(child)
        open_nodes.append(len(nodes) - 1)
        if len(parent[2]) >= max_fanout:
            open_nodes.remove(index)
    rng.choice(nodes)[1] = True
    return _freeze(nodes[0])


def _freeze(node):
    return (node[0], node[1], [(edge, _freeze(child)) for edge, child in node[2]])


def _with_duplicate_branch(spec, rng: random.Random):
    """``spec`` with one random non-root branch copied under its parent,
    minus any output marker, so plain containment can fold it."""
    branches = []

    def walk(node, path):
        for index, (_, child) in enumerate(node[2]):
            branches.append(path + (index,))
            walk(child, path + (index,))

    walk(spec, ())
    target = rng.choice(branches)

    def unmarked(node):
        return (node[0], False, [(e, unmarked(c)) for e, c in node[2]])

    def rebuild(node, path):
        kids = list(node[2])
        if len(path) == 1:
            edge, child = kids[path[0]]
            kids.append((edge, unmarked(child)))
        else:
            edge, child = kids[path[0]]
            kids[path[0]] = (edge, rebuild(child, path[1:]))
        return (node[0], node[1], kids)

    return rebuild(spec, target)


# ---------------------------------------------------------------------------
# The paper-sized constraint set and the cold-paper query kinds
# ---------------------------------------------------------------------------

#: Links of the Figure 8 depth chain ``T0 -> T1 -> ... -> T99``.
CHAIN_LINKS = 99
#: Figure 7(a) anchors: ``S{i} -> R{i}`` makes every ``R{i}`` leaf under
#: ``S{i}`` redundant.
REDUNDANCY_ANCHORS = 8
#: Types of the random twigs; none occurs in any constraint, so only
#: ACIM's containment step can remove their duplicated branch.
TWIG_TYPES = tuple(f"a{i}" for i in range(10))
#: The four query kinds of the cold-paper stream.
KINDS = ("fig7", "right-deep", "bushy", "twig")
#: Size strata; every block of four queries takes one size from each, so
#: every window of the stream has the same mix of sizes.
STRATA = ((15, 30), (31, 46), (47, 63), (64, 80))


def paper_constraints() -> list[str]:
    """The paper-sized IC set shared by cold-paper and hot-serve: the
    Figure 8 depth chain plus the Figure 7(a) redundancy constraints
    (107 base constraints, 5065 after closure)."""
    chain = [f"T{i} -> T{i + 1}" for i in range(CHAIN_LINKS)]
    anchors = [f"S{i} -> R{i}" for i in range(REDUNDANCY_ANCHORS)]
    return chain + anchors


def fig7_query(rng: random.Random, size: int):
    """Figure 7(a): a spine ``S0*/S1/...`` of distinct types whose first
    anchors carry ``red_degree`` copies of an IC-implied ``R`` leaf.
    Returns ``(spec, expected_output_size)``: every ``R`` leaf goes."""
    red_nodes = rng.randint(1, 4)
    red_degree = rng.randint(1, max(1, min(4, (size - REDUNDANCY_ANCHORS) // red_nodes)))
    spine_len = size - red_nodes * red_degree
    anchors = set(rng.sample(range(REDUNDANCY_ANCHORS), red_nodes))
    spine = None
    for depth in reversed(range(spine_len)):
        kids = [] if spine is None else [("/", spine)]
        if depth in anchors:
            kids += [("/", (f"R{depth}", False, []))] * red_degree
        spine = (f"S{depth}", depth == 0, kids)
    return spine, spine_len


def right_deep_query(rng: random.Random, size: int):
    """Figure 8(b) right-deep: a path typed by depth from a random chain
    offset. Under the depth chain only the marked root survives."""
    offset = rng.randint(0, CHAIN_LINKS - (size - 1))
    spec = None
    for depth in reversed(range(size)):
        kids = [] if spec is None else [("/", spec)]
        spec = (f"T{offset + depth}", depth == 0, kids)
    return spec, 1


def bushy_query(rng: random.Random, size: int):
    """Figure 8(b) bushy: a breadth-first-filled tree of fanout 2 or 3,
    typed by depth from a random chain offset; reduces to its root."""
    fanout = rng.choice((2, 3))
    levels = [[0]]
    count = 1
    while count < size:
        width = min(size - count, len(levels[-1]) * fanout)
        levels.append(list(range(count, count + width)))
        count += width
    offset = rng.randint(0, CHAIN_LINKS - (len(levels) - 1))
    # Assemble bottom-up: node k of level d gets children in order.
    built: dict[int, tuple] = {}
    for depth in reversed(range(len(levels))):
        below = levels[depth + 1] if depth + 1 < len(levels) else []
        for position, node in enumerate(levels[depth]):
            kids = [("/", built[c]) for c in below[position * fanout:(position + 1) * fanout]]
            built[node] = (f"T{offset + depth}", depth == 0, kids)
    return built[0], 1


def twig_query(rng: random.Random, size: int):
    """A random twig over :data:`TWIG_TYPES` with one duplicated branch.
    Its output size is not known by construction (``None``)."""
    while True:
        base = rng.randint(max(4, size // 2), size - 1)
        spec = _grow(
            rng,
            base,
            lambda parent: rng.choice(TWIG_TYPES),
            max_fanout=3,
            descendant_share=0.3,
        )
        spec = _with_duplicate_branch(spec, rng)
        if spec_size(spec) == size:
            return spec, None


_MAKERS = {
    "fig7": fig7_query,
    "right-deep": right_deep_query,
    "bushy": bushy_query,
    "twig": twig_query,
}


@dataclass(frozen=True)
class Query:
    """One generated query with what is known about its answer."""

    kind: str
    spec: tuple
    expected_size: "int | None"


def paper_stream(rng: random.Random, count: int) -> list[Query]:
    """``count`` structurally distinct paper-style queries, in blocks of
    four that each hold every kind and every size stratum once."""
    out: list[Query] = []
    seen: set[str] = set()
    block = 0
    while len(out) < count:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for slot, kind in enumerate(kinds):
            low, high = STRATA[(block + slot) % len(STRATA)]
            while True:
                spec, expected = _MAKERS[kind](rng, rng.randint(low, high))
                key = canon(spec)
                if key not in seen:
                    break
            seen.add(key)
            out.append(Query(kind, spec, expected))
        block += 1
    return out[:count]


def cold_paper_inputs(seed: int, count: int) -> list[Query]:
    """The cold-paper stream: ``count`` distinct queries."""
    return paper_stream(random.Random(f"cold-paper:{seed}"), count)


# ---------------------------------------------------------------------------
# hot-serve: Zipf-skewed variants of fixed families
# ---------------------------------------------------------------------------

#: Families of the hot-serve workload (fixed across seeds).
HOT_FAMILIES = 64
#: Isomorphic variants prepared per family.
HOT_VARIANTS = 8
#: Zipf exponent of the family popularity.
ZIPF_S = 1.1


def zipf_weights(n: int, s: float = ZIPF_S) -> list[float]:
    """Unnormalized Zipf weights for ranks ``1..n``."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


@dataclass
class HotServeInputs:
    """Families, their variant texts and the request order."""

    families: list[Query]
    variants: list[list[str]]
    warmup: list[str]
    stream: list[tuple[int, int]]

    def text(self, item: tuple[int, int]) -> str:
        return self.variants[item[0]][item[1]]


def hot_serve_inputs(seed: int, length: int) -> HotServeInputs:
    """Fixed families with fixed popularity ranks, so every seed asks for
    the same expected mix of query sizes; the seed draws the variants and
    the request order (``length`` requests, sent cyclically if
    exhausted)."""
    families = paper_stream(random.Random("hot-serve:families"), HOT_FAMILIES)
    ranked = list(range(HOT_FAMILIES))
    random.Random("hot-serve:ranks").shuffle(ranked)
    rng = random.Random(f"hot-serve:{seed}")
    variants = [
        [to_text(shuffled(family.spec, rng)) for _ in range(HOT_VARIANTS)]
        for family in families
    ]
    picks = rng.choices(ranked, weights=zipf_weights(HOT_FAMILIES), k=length)
    stream = [(family, rng.randrange(HOT_VARIANTS)) for family in picks]
    warmup = [variants[family][0] for family in range(HOT_FAMILIES)]
    return HotServeInputs(families, variants, warmup, stream)


# ---------------------------------------------------------------------------
# churn-certified: layered constraints, toggles, a mixed op stream
# ---------------------------------------------------------------------------

#: Four type layers; every required edge goes from one layer to the next
#: or skips ahead, so implied chains are at most three links deep and no
#: type can require its own type (the set stays finitely satisfiable).
LAYERS = (
    tuple(f"p{i}" for i in range(4)),
    tuple(f"q{i}" for i in range(6)),
    tuple(f"r{i}" for i in range(6)),
    tuple(f"s{i}" for i in range(6)),
)
#: Base constraints of the churn workload.
CHURN_BASE = (
    "p0 -> q0", "p0 -> q2", "p1 -> q1", "p1 ->> r3", "p2 -> q3",
    "p2 -> q5", "p3 -> q4", "p3 ->> s5",
    "q0 -> r0", "q1 -> r1", "q2 ->> r2", "q3 -> r3", "q4 -> r4",
    "q5 ->> r5", "q1 ->> s1",
    "r0 -> s0", "r1 -> s1", "r2 -> s2", "r3 ->> s3", "r4 -> s4",
    "r5 -> s5",
    "q0 ~ q1", "r2 ~ r3", "s4 ~ s5", "p2 ~ p3",
)
#: Constraints the churn stream toggles; ``CHURN_POOL_START`` of them
#: are present at boot, so the first toggles both add and drop.
CHURN_POOL = ("p1 -> q2", "r0 ~ r1", "q4 ->> s2")
CHURN_POOL_START = ("r0 ~ r1",)
#: Families of the churn workload (fixed across seeds) and variants each.
CHURN_FAMILIES = 48
CHURN_VARIANTS = 6
#: One IC toggle every this many operations.
UPDATE_EVERY = 25
#: Share of non-update operations that are equivalence checks.
EQUIV_SHARE = 0.21


def _layer_of(node_type: str) -> int:
    return next(i for i, layer in enumerate(LAYERS) if node_type in layer)


def churn_family(rng: random.Random):
    """A layered twig: a ``p`` root, children drawn from deeper layers,
    plus one duplicated branch (6-16 nodes)."""

    def pick(parent_type):
        if parent_type is None:
            return rng.choice(LAYERS[0])
        layer = _layer_of(parent_type)
        deeper = min(len(LAYERS) - 1, layer + 1 + (rng.random() < 0.25))
        return rng.choice(LAYERS[max(deeper, layer)])

    spec = _grow(rng, rng.randint(5, 12), pick, max_fanout=3, descendant_share=0.35)
    return _with_duplicate_branch(spec, rng)


@dataclass
class ChurnOp:
    """One operation of the churn stream.

    ``kind`` is ``minimize`` (``a``), ``equiv`` (``a`` vs ``b``) or
    ``update`` (``add``/``drop`` one notation, ``base`` the base set after
    it). ``a``/``b`` are ``(family, variant)`` pairs."""

    kind: str
    a: tuple = ()
    b: tuple = ()
    add: str = ""
    drop: str = ""
    base: tuple = ()


@dataclass
class ChurnInputs:
    """Families, variants, the boot constraint set and the op streams."""

    families: list[tuple]
    variants: list[list[tuple]]
    constraints: list[str]
    stream: list[ChurnOp]
    prelude: list[ChurnOp]


def churn_states() -> list[tuple[str, ...]]:
    """Every base set the toggles can reach (each pool subset)."""
    states = []
    for mask in range(1 << len(CHURN_POOL)):
        chosen = [c for i, c in enumerate(CHURN_POOL) if mask >> i & 1]
        states.append(tuple(CHURN_BASE) + tuple(chosen))
    return states


def _churn_ops(rng: random.Random, count: int, weights) -> list[ChurnOp]:
    present = set(CHURN_POOL_START)
    ops: list[ChurnOp] = []
    families = range(CHURN_FAMILIES)

    def pick():
        return (rng.choices(families, weights=weights)[0], rng.randrange(CHURN_VARIANTS))

    for index in range(count):
        if index % UPDATE_EVERY == UPDATE_EVERY - 1:
            toggle = rng.choice(CHURN_POOL)
            if toggle in present:
                present.discard(toggle)
                op = ChurnOp("update", drop=toggle)
            else:
                present.add(toggle)
                op = ChurnOp("update", add=toggle)
            op.base = tuple(CHURN_BASE) + tuple(c for c in CHURN_POOL if c in present)
            ops.append(op)
        elif rng.random() < EQUIV_SHARE:
            a = pick()
            if rng.random() < 0.5:
                b = (a[0], rng.randrange(CHURN_VARIANTS))
            else:
                b = pick()
            ops.append(ChurnOp("equiv", a=a, b=b))
        else:
            ops.append(ChurnOp("minimize", a=pick()))
    return ops


def churn_inputs(seed: int, length: int, prelude_length: int = 300) -> ChurnInputs:
    """Fixed families, popularity ranks and constraints; the seed draws
    the variants, the measured stream and the prelude stream."""
    family_rng = random.Random("churn:families")
    families: list[tuple] = []
    seen: set[str] = set()
    while len(families) < CHURN_FAMILIES:
        spec = churn_family(family_rng)
        if canon(spec) not in seen:
            seen.add(canon(spec))
            families.append(spec)
    rng = random.Random(f"churn:{seed}")
    variants = [
        [shuffled(spec, rng) for _ in range(CHURN_VARIANTS)] for spec in families
    ]
    ranked = list(range(CHURN_FAMILIES))
    random.Random("churn:ranks").shuffle(ranked)
    weights = [0.0] * CHURN_FAMILIES
    for rank, family in enumerate(ranked):
        weights[family] = zipf_weights(CHURN_FAMILIES)[rank]
    # The prelude first solves every family under the boot IC set, so the
    # measured boot has one store record per family to warm-start from.
    prelude = [ChurnOp("minimize", a=(family, 0)) for family in range(CHURN_FAMILIES)]
    prelude += _churn_ops(random.Random(f"churn-prelude:{seed}"), prelude_length, weights)
    stream = _churn_ops(rng, length, weights)
    constraints = list(CHURN_BASE) + list(CHURN_POOL_START)
    return ChurnInputs(families, variants, constraints, stream, prelude)


# ---------------------------------------------------------------------------
# Byte encoding (determinism checks)
# ---------------------------------------------------------------------------


def encode(workload: str, seed: int, length: int = 200) -> bytes:
    """The inputs of one workload as bytes; equal seeds give equal bytes."""
    if workload == "cold-paper":
        queries = cold_paper_inputs(seed, length)
        doc = {"constraints": paper_constraints(),
               "queries": [[q.kind, canon(q.spec), q.expected_size] for q in queries]}
    elif workload == "hot-serve":
        inputs = hot_serve_inputs(seed, length)
        doc = {"constraints": paper_constraints(), "variants": inputs.variants,
               "stream": inputs.stream}
    elif workload == "churn-certified":
        inputs = churn_inputs(seed, length)
        doc = {"constraints": inputs.constraints,
               "variants": [[canon(v) + repr(v) for v in vs] for vs in inputs.variants],
               "ops": [[op.kind, op.a, op.b, op.add, op.drop] for op in inputs.stream],
               "prelude": [[op.kind, op.a, op.b, op.add, op.drop] for op in inputs.prelude]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(doc, sort_keys=True).encode("utf-8")

