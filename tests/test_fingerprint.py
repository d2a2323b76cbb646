"""Property tests for structural fingerprints (``repro.core.fingerprint``).

The batch backend's memoization is sound only if the fingerprint is a
*perfect* structural hash: isomorphic patterns (same shape up to sibling
order and node-id renaming) must collide, and colliding patterns must be
isomorphic. Both directions are pinned here, plus the validity of the
witness mapping ``isomorphism`` that the replay path consumes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import TreePattern
from repro.core.edges import EdgeKind
from repro.core.fingerprint import are_isomorphic, fingerprint, isomorphism, subtree_keys
from repro.workloads import isomorphic_shuffle

TYPES = ["a", "b", "c"]


@st.composite
def patterns(draw, max_size: int = 10) -> TreePattern:
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(st.sampled_from(TYPES)))
    nodes = [pattern.root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        edge = EdgeKind.DESCENDANT if draw(st.booleans()) else EdgeKind.CHILD
        nodes.append(pattern.add_child(parent, draw(st.sampled_from(TYPES)), edge))
    nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))].is_output = True
    return pattern


class TestFingerprintCollides:
    """Isomorphic-by-construction patterns must collide."""

    @given(patterns(), st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=150, deadline=None)
    def test_shuffle_preserves_fingerprint(self, pattern, seed):
        twin = isomorphic_shuffle(pattern, seed=seed)
        assert fingerprint(twin) == fingerprint(pattern)
        assert are_isomorphic(pattern, twin)

    @given(patterns(), st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=100, deadline=None)
    def test_shuffle_is_idempotent_on_fingerprint(self, pattern, seed):
        once = isomorphic_shuffle(pattern, seed=seed)
        twice = isomorphic_shuffle(once, seed=seed + 1)
        assert fingerprint(twice) == fingerprint(pattern)


class TestFingerprintSeparates:
    """Fingerprint equality must imply isomorphism (no false merges)."""

    @given(patterns(), patterns())
    @settings(max_examples=200, deadline=None)
    def test_equality_iff_isomorphic(self, a, b):
        assert (fingerprint(a) == fingerprint(b)) == are_isomorphic(a, b)

    def test_edge_kind_matters(self):
        child = TreePattern("a", root_is_output=True)
        child.add_child(child.root, "b", EdgeKind.CHILD)
        desc = TreePattern("a", root_is_output=True)
        desc.add_child(desc.root, "b", EdgeKind.DESCENDANT)
        assert fingerprint(child) != fingerprint(desc)

    def test_output_position_matters(self):
        marked_root = TreePattern("a", root_is_output=True)
        marked_root.add_child(marked_root.root, "b", EdgeKind.CHILD)
        marked_leaf = TreePattern("a")
        marked_leaf.add_child(marked_leaf.root, "b", EdgeKind.CHILD, is_output=True)
        assert fingerprint(marked_root) != fingerprint(marked_leaf)

    def test_type_rename_matters(self):
        a = TreePattern("a", root_is_output=True)
        b = TreePattern("b", root_is_output=True)
        assert fingerprint(a) != fingerprint(b)


class TestIsomorphismWitness:
    """The mapping the replay path consumes must be a real isomorphism."""

    @given(patterns(), st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=150, deadline=None)
    def test_mapping_is_structure_preserving(self, pattern, seed):
        twin = isomorphic_shuffle(pattern, seed=seed)
        mapping = isomorphism(pattern, twin)
        assert mapping is not None
        assert sorted(mapping) == sorted(n.id for n in pattern.nodes())
        assert sorted(mapping.values()) == sorted(n.id for n in twin.nodes())
        for node in pattern.nodes():
            image = twin.node(mapping[node.id])
            assert image.type == node.type
            assert image.is_output == node.is_output
            if not node.is_root:
                assert image.edge is node.edge
                assert mapping[node.parent.id] == image.parent.id

    @given(patterns(), patterns())
    @settings(max_examples=100, deadline=None)
    def test_mapping_exists_iff_isomorphic(self, a, b):
        assert (isomorphism(a, b) is not None) == are_isomorphic(a, b)


class TestSubtreeKeys:
    def test_root_key_agrees_with_canonical_key(self):
        pattern = TreePattern("a", root_is_output=True)
        b = pattern.add_child(pattern.root, "b", EdgeKind.DESCENDANT)
        pattern.add_child(b, "c", EdgeKind.CHILD)
        key = pattern.canonical_key()
        assert not hasattr(pattern, "_subtree_keys_memo")
        assert subtree_keys(pattern)[pattern.root.id] == key

    @given(patterns())
    @settings(max_examples=100, deadline=None)
    def test_every_node_keyed(self, pattern):
        keys = subtree_keys(pattern)
        assert sorted(keys) == sorted(n.id for n in pattern.nodes())

    def test_fingerprint_is_stable_hex(self):
        pattern = TreePattern("a", root_is_output=True)
        fp = fingerprint(pattern)
        assert fp == fingerprint(pattern)
        assert len(fp) == 64 and int(fp, 16) >= 0


# ---------------------------------------------------------------------------
# The key is injective: it decodes back to the pattern
# ---------------------------------------------------------------------------

#: Names from the whole type-name rule (TYPE_NAME), not a toy alphabet.
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,3}", fullmatch=True)


@st.composite
def augmented_patterns(draw, max_size: int = 7) -> TreePattern:
    """Patterns with extra types and temporary nodes, as the chase
    builds them (the oracle cache keys chased patterns)."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    pattern = TreePattern(draw(NAMES))
    nodes = [pattern.root]
    for _ in range(size - 1):
        nodes.append(
            pattern.add_child(
                draw(st.sampled_from(nodes)),
                draw(NAMES),
                draw(st.sampled_from([EdgeKind.CHILD, EdgeKind.DESCENDANT])),
                temporary=draw(st.booleans()),
            )
        )
    for node in nodes:
        for name in draw(st.lists(NAMES, max_size=2)):
            pattern.add_extra_type(node, name)
    draw(st.sampled_from(nodes)).is_output = True
    return pattern


def _form(node) -> tuple:
    """The subtree at ``node`` as a nested tuple, read off the node
    objects: type, sorted extra types, output flag, temporary flag, and
    the sorted ``(edge, child form)`` pairs."""
    children = sorted((child.edge.symbol, _form(child)) for child in node.children)
    return (
        node.type,
        tuple(sorted(node.extra_types)),
        node.is_output,
        node.temporary,
        tuple(children),
    )


def _decode(key: str, start: int = 0) -> tuple[tuple, int]:
    """Parse ``type|extras|flags(entry;...)`` at ``key[start:]``, where an
    entry is ``/`` or ``//`` followed by a key; return the nested form
    and the offset just past it."""
    bar = key.index("|", start)
    second = key.index("|", bar + 1)
    extras = key[bar + 1 : second]
    i = second + 1
    is_output = key.startswith("*", i)
    i += is_output
    temporary = key.startswith("?", i)
    i += temporary
    assert key[i] == "("
    i += 1
    children = []
    while key[i] != ")":
        if children:
            assert key[i] == ";"
            i += 1
        edge = "//" if key.startswith("//", i) else "/"
        assert key.startswith(edge, i)
        child, i = _decode(key, i + len(edge))
        children.append((edge, child))
    extra_types = tuple(extras.split(",")) if extras else ()
    form = (key[start:bar], extra_types, is_output, temporary, tuple(sorted(children)))
    return form, i + 1


class TestKeyDecodes:
    """``canonical_key`` decodes back to a form computed without it, so
    equal keys mean equal forms, i.e. isomorphic patterns. (Comparing
    ``fingerprint`` with ``are_isomorphic`` cannot show this: both read
    the same key.)"""

    @given(augmented_patterns())
    @settings(max_examples=500, deadline=None)
    def test_key_decodes_to_the_pattern(self, pattern):
        key = pattern.canonical_key()
        form, end = _decode(key)
        assert end == len(key)
        assert form == _form(pattern.root)
