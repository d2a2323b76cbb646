"""Structural fingerprints and isomorphisms of tree patterns.

A *fingerprint* is an order-insensitive canonical hash of a pattern's
structure — node types (original and augmented), edge kinds, the output
marker, and temporary flags. Two patterns carry the same fingerprint iff
they are isomorphic in the sense of Theorem 4.1 ("unique up to
isomorphism"): equal up to sibling order and node-id renaming.

The batch minimization backend (:mod:`repro.batch`) keys its cross-query
memoization cache on fingerprints: a workload's isomorphic queries are
minimized once, and every duplicate is replayed through the node-id
correspondence produced by :func:`isomorphism`.

The correspondence is *document-order canonical*: within a group of
sibling subtrees that are indistinguishable (same edge kind, same
canonical encoding), nodes are paired in sibling insertion order. The
serial minimizers walk candidates in document order and make decisions
from structure alone, so eliminating ``m(v)`` for every ``v`` the
representative run eliminated reproduces the serial result on the
duplicate exactly — not just up to isomorphism (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Optional

from .node import PatternNode
from .pattern import TreePattern

__all__ = ["fingerprint", "are_isomorphic", "isomorphism", "subtree_keys"]


def subtree_keys(pattern: TreePattern, *, memoize: bool = True) -> Dict[int, str]:
    """Canonical encoding of every node's (unordered) subtree.

    Same encoding as :meth:`TreePattern.canonical_key`, computed for all
    nodes in one iterative postorder pass; ``subtree_keys(p)[p.root.id]``
    equals ``p.canonical_key()``.

    The table is memoized on the pattern and invalidated by its
    structural version counter (bumped by every mutation — node flags,
    extra types, attach/detach), so repeated fingerprinting of an
    unchanged pattern — the oracle cache's steady state — costs a dict
    lookup. Callers must treat the returned dict as read-only.
    ``memoize=False`` leaves no memo behind: the batch path uses it on
    caller-owned patterns, which would otherwise carry the table for as
    long as the caller keeps them.
    """
    memo = getattr(pattern, "_subtree_keys_memo", None)
    version = pattern._version
    if memo is not None and memo[0] == version:
        return memo[1]
    keys: Dict[int, str] = {}
    stack: list[tuple[PatternNode, bool]] = [(pattern.root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        child_keys = sorted(
            f"{child.edge.symbol}{keys[child.id]}" for child in node.children
        )
        extras = ",".join(sorted(node.extra_types))
        flags = ("*" if node.is_output else "") + ("?" if node.temporary else "")
        keys[node.id] = f"{node.type}|{extras}|{flags}({';'.join(child_keys)})"
    if memoize:
        pattern._subtree_keys_memo = (version, keys)
    return keys


def fingerprint(pattern: TreePattern, *, keys: Optional[Dict[int, str]] = None) -> str:
    """A 64-hex-digit structural hash of ``pattern``.

    Order-insensitive and id-insensitive: isomorphic patterns (shuffled
    sibling order, remapped node ids) collide by construction, and — up
    to SHA-256 collisions — fingerprint equality implies
    :func:`are_isomorphic`. ``keys`` accepts the pattern's precomputed
    :func:`subtree_keys` table.
    """
    if keys is None:
        keys = subtree_keys(pattern)
    key = keys[pattern.root.id]
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def are_isomorphic(a: TreePattern, b: TreePattern) -> bool:
    """Exact unordered-isomorphism check (no hashing involved)."""
    return subtree_keys(a)[a.root.id] == subtree_keys(b)[b.root.id]


def isomorphism(
    a: TreePattern,
    b: TreePattern,
    *,
    keys_a: Optional[Dict[int, str]] = None,
    keys_b: Optional[Dict[int, str]] = None,
) -> Optional[Dict[int, int]]:
    """A concrete isomorphism ``a`` → ``b`` as a node-id mapping, or
    ``None`` when the patterns are not isomorphic.

    The mapping is deterministic and document-order canonical: siblings
    whose subtrees have identical canonical encodings are paired in
    insertion order on both sides. This is the property the memoization
    replay in :mod:`repro.batch` relies on.

    ``keys_a``/``keys_b`` accept precomputed :func:`subtree_keys` tables
    (they dominate the cost of this function); the oracle cache passes
    the tables it already computed for fingerprinting.
    """
    if keys_a is None:
        keys_a = subtree_keys(a)
    if keys_b is None:
        keys_b = subtree_keys(b)
    if keys_a[a.root.id] != keys_b[b.root.id]:
        return None

    mapping: Dict[int, int] = {}
    stack: list[tuple[PatternNode, PatternNode]] = [(a.root, b.root)]
    while stack:
        va, vb = stack.pop()
        mapping[va.id] = vb.id
        # Group b's children by (edge, canonical key); a's children drain
        # each group in insertion order. Equal root keys guarantee the
        # groups have matching cardinalities.
        groups: Dict[tuple[object, str], deque[PatternNode]] = {}
        for cb in vb.children:
            groups.setdefault((cb.edge, keys_b[cb.id]), deque()).append(cb)
        for ca in va.children:
            bucket = groups.get((ca.edge, keys_a[ca.id]))
            if not bucket:  # pragma: no cover - unreachable for equal keys
                return None
            stack.append((ca, bucket.popleft()))
    return mapping
