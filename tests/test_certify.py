"""Certification: the independent checker, certificate mutations, and
the cache-integrity quarantine pipeline.

Three layers of coverage:

* unit tests for :mod:`repro.certify` (JSON round-trip, checker verdicts,
  the oracle-table checker);
* a Hypothesis property suite showing the checker rejects *every*
  mutation of a genuine certificate (and accepts every genuine one, byte
  for byte, after a trip through the persistent store);
* the regression pinning the gap this subsystem closes: a
  checksum-valid but semantically wrong replay record in the persistent
  store is served verbatim by an uncertified session, and detected,
  quarantined, and transparently recomputed by a certified one.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import MinimizeOptions, QueryResult, Session
from repro.certify import Certificate, check_certificate, check_oracle_table
from repro.constraints.closure import closure
from repro.constraints.model import parse_constraints
from repro.constraints.repository import coerce_repository
from repro.core.containment import mapping_targets
from repro.core.fingerprint import fingerprint
from repro.core.oracle_cache import ContainmentOracleCache, _digest, subtree_keys
from repro.parsing.sexpr import to_sexpr
from repro.parsing.xpath import parse_xpath
from repro.store import PersistentStore
from repro.workloads.batchgen import batch_workload, isomorphic_shuffle
from repro.workloads.querygen import duplicate_random_branch, random_query

# A query with one redundant branch: the pipeline eliminates exactly one
# node, so its certificate has one witness step.
REDUNDANT = "a[b][b]/c"


def _certified_pool():
    """Deterministic certified answers (with their constraints) for the
    property suite: every entry carries a certificate, most with at
    least one witness step."""
    queries = []
    for i in range(8):
        base = random_query(8, seed=100 + i)
        queries.append(duplicate_random_branch(base, seed=200 + i))
    generated, constraints = batch_workload(
        8, kind="mixed", distinct=4, size=10, seed=7
    )
    queries.extend(generated)
    with Session(MinimizeOptions(certify=True), constraints=constraints) as session:
        results = session.minimize_many(queries)
    entries = [r for r in results if r.certificate is not None]
    assert entries, "pool construction produced no certified answers"
    return entries, constraints


POOL, POOL_CONSTRAINTS = _certified_pool()
#: Certificates are bound to the *closed* repository's digest — direct
#: checker calls must close the constraint set exactly as a session does.
POOL_REPO = closure(coerce_repository(POOL_CONSTRAINTS))
#: Entries whose certificate has at least one witness step (needed by
#: the step-level mutations).
STEPPED = [r for r in POOL if r.certificate.steps]
assert STEPPED, "pool has no answers with eliminations"


# ---------------------------------------------------------------------------
# Certificate structure
# ---------------------------------------------------------------------------


def test_certificate_json_round_trip():
    for result in POOL:
        data = result.certificate.to_json()
        clone = Certificate.from_json(data)
        assert clone == result.certificate
        assert clone.to_json() == data
        # JSON-serializable all the way down.
        assert json.loads(json.dumps(data)) == data


def test_certificate_binds_recipe_and_sizes():
    for result in POOL:
        cert = result.certificate
        assert cert.fingerprint == result.fingerprint
        assert cert.eliminated == tuple(result.eliminated)
        assert cert.input_size == result.input_pattern.size
        assert cert.output_size == result.pattern.size
        assert cert.output_key == result.pattern.canonical_key()


def test_remapped_certificates_share_equal_rows():
    """A remap re-anchors rows by value: remapping there and back gives
    the certificate back, and two equal remaps share their row objects
    instead of each allocating its own."""
    constraints = parse_constraints("a -> b; b ->> c; a ~ d")
    with Session(MinimizeOptions(certify=True), constraints=constraints) as session:
        results = session.minimize_many(
            [parse_xpath(q) for q in ("a/b[c][c]", "x/a[b][d]", "a[b][.//c]")]
        )
    for result in results:
        cert = result.certificate
        assert cert.virtual_targets
        there = {node.id: node.id + 100 for node in result.input_pattern.nodes()}
        back = {moved: original for original, moved in there.items()}
        first, second = cert.remapped(there), cert.remapped(there)
        assert first == second and first.remapped(back) == cert
        assert first.virtual_targets != cert.virtual_targets
        assert all(
            a is b for a, b in zip(first.virtual_targets, second.virtual_targets)
        )


# ---------------------------------------------------------------------------
# Checker verdicts (unit)
# ---------------------------------------------------------------------------


def test_genuine_certificates_verify():
    for result in POOL:
        verdict = check_certificate(
            result.certificate,
            result.input_pattern,
            POOL_REPO,
            eliminated=list(result.eliminated),
        )
        assert verdict.ok, verdict.reason


def test_genuine_certificates_survive_store_round_trip(tmp_path):
    """Byte-for-byte persistence: a certificate written with its replay
    record reads back identical and still verifies."""
    store = PersistentStore(str(tmp_path / "certs.sqlite"))
    digest = POOL[0].certificate.closure_digest
    # One record per fingerprint: isomorphic duplicates share a key, so
    # a later write would replace an earlier variant's certificate.
    distinct = list({r.fingerprint: r for r in POOL}.values())
    for result in distinct:
        store.put_minimization(
            result.fingerprint,
            digest,
            result.input_pattern.copy(),
            list(result.eliminated),
            result.certificate,
        )
    store.close()
    store = PersistentStore(str(tmp_path / "certs.sqlite"))
    for result in distinct:
        record = store.get_minimization(result.fingerprint, digest)
        assert record is not None
        pattern, eliminated, cert = record
        assert cert is not None
        assert cert.to_json() == result.certificate.to_json()
        verdict = check_certificate(
            cert, pattern, POOL_REPO, eliminated=eliminated
        )
        assert verdict.ok, verdict.reason
    store.close()


def test_checker_rejects_wrong_input_pattern():
    result = next(r for r in STEPPED)
    other = parse_xpath("x/y/z")
    verdict = check_certificate(result.certificate, other, POOL_REPO)
    assert not verdict.ok


def test_checker_rejects_wrong_constraints():
    """A certificate is bound to the closure digest it was proven under."""
    result = next(r for r in STEPPED)
    verdict = check_certificate(
        result.certificate,
        result.input_pattern,
        closure(coerce_repository(parse_constraints("Zq -> Zr"))),
        eliminated=list(result.eliminated),
    )
    assert not verdict.ok


# ---------------------------------------------------------------------------
# Mutation properties: every tampered certificate is rejected
# ---------------------------------------------------------------------------


def _flip(hex_string: str) -> str:
    head = "0" if hex_string[0] != "0" else "1"
    return head + hex_string[1:]


def _eliminated_pair(step: dict) -> int:
    """Index of the mapping pair that remaps the eliminated node (the
    checker requires one, so it is always present)."""
    for index, (source, _target) in enumerate(step["mapping"]):
        if source == step["node"]:
            return index
    raise AssertionError("genuine step does not remap its own node")


def _mutate_flip_fingerprint(data, eliminated):
    data["fingerprint"] = _flip(data["fingerprint"])
    return data, eliminated


def _mutate_flip_closure_digest(data, eliminated):
    data["closure_digest"] = _flip(data["closure_digest"])
    return data, eliminated


def _mutate_version(data, eliminated):
    data["version"] = 2
    return data, eliminated


def _mutate_input_size(data, eliminated):
    data["input_size"] += 1
    return data, eliminated


def _mutate_output_key(data, eliminated):
    data["output_key"] += "#"
    return data, eliminated


def _mutate_drop_step(data, eliminated):
    if not data["steps"]:
        return None
    data["steps"].pop()
    return data, eliminated


def _mutate_drop_mapping_pair(data, eliminated):
    if not data["steps"]:
        return None
    step = data["steps"][0]
    step["mapping"].pop(_eliminated_pair(step))
    return data, eliminated


def _mutate_retarget_nonexistent(data, eliminated):
    if not data["steps"]:
        return None
    step = data["steps"][0]
    step["mapping"][_eliminated_pair(step)][1] = 987654321
    return data, eliminated


def _mutate_bad_stage(data, eliminated):
    if not data["steps"]:
        return None
    data["steps"][0]["stage"] = "zzz"
    return data, eliminated


def _mutate_recipe_binding(data, eliminated):
    if not eliminated:
        return None
    return data, eliminated[:-1]


MUTATIONS = {
    "flip-fingerprint": _mutate_flip_fingerprint,
    "flip-closure-digest": _mutate_flip_closure_digest,
    "version-bump": _mutate_version,
    "input-size-off-by-one": _mutate_input_size,
    "output-key-garbage": _mutate_output_key,
    "drop-step": _mutate_drop_step,
    "drop-mapping-pair": _mutate_drop_mapping_pair,
    "retarget-nonexistent": _mutate_retarget_nonexistent,
    "bad-stage": _mutate_bad_stage,
    "recipe-binding-mismatch": _mutate_recipe_binding,
}


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_every_mutation_is_rejected(data):
    result = data.draw(st.sampled_from(STEPPED), label="workload")
    name = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    # Deep-copy through JSON: exactly the wire/store representation an
    # adversary would tamper with.
    cert_json = json.loads(json.dumps(result.certificate.to_json()))
    mutated = MUTATIONS[name](cert_json, list(result.eliminated))
    assume(mutated is not None)
    cert_data, eliminated = mutated
    cert = Certificate.from_json(cert_data)
    verdict = check_certificate(
        cert, result.input_pattern, POOL_REPO, eliminated=eliminated
    )
    assert not verdict.ok, f"mutation {name!r} was accepted"
    assert verdict.reason


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_genuine_certificates_always_accepted(data):
    result = data.draw(st.sampled_from(POOL), label="workload")
    cert = Certificate.from_json(
        json.loads(json.dumps(result.certificate.to_json()))
    )
    verdict = check_certificate(
        cert, result.input_pattern, POOL_REPO,
        eliminated=list(result.eliminated),
    )
    assert verdict.ok, verdict.reason


# ---------------------------------------------------------------------------
# The pinned gap: a semantically wrong store record
# ---------------------------------------------------------------------------


def _forge_wrong_recipe(store_path: str, query, genuine: QueryResult) -> None:
    """Overwrite the query's replay record with a checksum-valid forgery
    claiming the query is already minimal (the genuine certificate is
    kept, so only the recipe lies)."""
    store = PersistentStore(store_path)
    store.put_minimization(
        fingerprint(query),
        genuine.certificate.closure_digest,
        query.copy(),
        [],
        genuine.certificate,
    )
    store.close()


def test_wrong_store_record_served_without_certification(tmp_path):
    """The gap itself: checksums protect bytes, not meaning. A forged
    replay record passes every storage-level check and an uncertified
    session serves the wrong answer from it."""
    store_path = str(tmp_path / "cache.sqlite")
    query = parse_xpath(REDUNDANT)
    with Session(MinimizeOptions(certify=True, store_path=store_path)) as session:
        genuine = session.minimize(query)
    assert genuine.eliminated, "fixture query must have a redundant node"
    _forge_wrong_recipe(store_path, query, genuine)

    with Session(MinimizeOptions(store_path=store_path)) as session:
        served = session.minimize(parse_xpath(REDUNDANT))
    assert served.cache_hit
    # The wrong answer escapes: this is exactly what certification exists
    # to prevent.
    assert to_sexpr(served.pattern) != to_sexpr(genuine.pattern)


def test_wrong_store_record_quarantined_under_certification(tmp_path):
    """Regression for the gap above: under ``certify=True`` the forged
    record is detected (recipe/certificate cross-binding), quarantined,
    and the request transparently recomputes the correct answer."""
    store_path = str(tmp_path / "cache.sqlite")
    query = parse_xpath(REDUNDANT)
    with Session(MinimizeOptions(certify=True, store_path=store_path)) as session:
        genuine = session.minimize(query)
    _forge_wrong_recipe(store_path, query, genuine)

    with Session(
        MinimizeOptions(certify=True, store_path=store_path)
    ) as session:
        served = session.minimize(parse_xpath(REDUNDANT))
        counters = session.counters()

    # Byte-identical to the cold answer — the forgery never surfaced.
    assert to_sexpr(served.pattern) == to_sexpr(genuine.pattern)
    assert served.eliminated == genuine.eliminated
    assert counters["audit_failures"] == 1
    assert counters["quarantined_records"] == 1
    assert counters["recomputed_after_quarantine"] == 1
    assert counters["certified"] >= 1

    # The store self-healed: the recompute overwrote the forged row.
    store = PersistentStore(store_path)
    record = store.get_minimization(
        fingerprint(query), genuine.certificate.closure_digest
    )
    store.close()
    assert record is not None
    assert record[1] == list(genuine.eliminated)


def test_uncertified_store_record_recomputed_not_quarantined(tmp_path):
    """A record *without* a certificate is merely unproven: certified
    sessions refuse to serve it (counted separately) but do not treat it
    as corruption."""
    store_path = str(tmp_path / "cache.sqlite")
    query = parse_xpath(REDUNDANT)
    with Session(MinimizeOptions(certify=True, store_path=store_path)) as session:
        genuine = session.minimize(query)
    store = PersistentStore(store_path)
    store.put_minimization(
        fingerprint(query),
        genuine.certificate.closure_digest,
        query.copy(),
        [],
        None,
    )
    store.close()

    with Session(
        MinimizeOptions(certify=True, store_path=store_path)
    ) as session:
        served = session.minimize(parse_xpath(REDUNDANT))
        counters = session.counters()
    assert to_sexpr(served.pattern) == to_sexpr(genuine.pattern)
    assert counters["uncertified_cache_skips"] == 1
    assert counters.get("audit_failures", 0) == 0
    assert counters.get("quarantined_records", 0) == 0


# ---------------------------------------------------------------------------
# Session certification API
# ---------------------------------------------------------------------------


def test_session_check_certificate():
    with Session(MinimizeOptions(certify=True)) as session:
        result = session.minimize(parse_xpath(REDUNDANT))
        verdict = session.check_certificate(result)
        assert verdict
        assert verdict.ok


def test_session_check_certificate_requires_certificate():
    with Session() as session:
        result = session.minimize(parse_xpath(REDUNDANT))
        assert result.certificate is None
        with pytest.raises(ValueError, match="no certificate"):
            session.check_certificate(result)


def test_audit_result_verifies_certified_answer():
    with Session(MinimizeOptions(certify=True)) as session:
        result = session.minimize(parse_xpath(REDUNDANT))
        assert session.audit_result(result) is True
        counters = session.counters()
    assert counters["audited"] == 1
    assert counters.get("audit_failures", 0) == 0


def test_audit_result_recomputes_uncertified_answer():
    with Session() as session:
        result = session.minimize(parse_xpath(REDUNDANT))
        assert session.audit_result(result) is True
        assert session.counters()["audited"] == 1


def test_audit_result_quarantines_wrong_answer():
    """The sampling auditor's failure path: a served answer that does
    not match the cold recompute is quarantined from every cache."""
    with Session() as session:
        result = session.minimize(parse_xpath(REDUNDANT))
        wrong = QueryResult(
            pattern=result.input_pattern.copy(),  # un-minimized: wrong
            input_pattern=result.input_pattern,
            eliminated=[],
            fingerprint=result.fingerprint,
        )
        assert session.audit_result(wrong) is False
        counters = session.counters()
        assert counters["audit_failures"] == 1
        assert counters["quarantined_records"] == 1
        # The quarantined fingerprint recomputes cold (and correctly).
        again = session.minimize(parse_xpath(REDUNDANT))
        assert again.cache_hit is False
        assert to_sexpr(again.pattern) == to_sexpr(result.pattern)


# ---------------------------------------------------------------------------
# Fast-path equivalence auditing
# ---------------------------------------------------------------------------


def _isomorphic_pair():
    base = random_query(9, seed=31)
    return base, isomorphic_shuffle(base, rng=random.Random(5))


def test_fast_path_equivalence_audited_under_certify():
    q1, q2 = _isomorphic_pair()
    with Session(MinimizeOptions(certify=True)) as session:
        assert session.equivalent(q1, q2) is True
        counters = session.counters()
    assert counters["equivalent_fast_path_audited"] == 1
    assert counters["equivalent_fast_path_uncertified"] == 0


def test_fast_path_equivalence_sampled_by_audit_rate():
    q1, q2 = _isomorphic_pair()
    with Session(MinimizeOptions(audit_rate=1)) as session:
        assert session.equivalent(q1, q2) is True
        counters = session.counters()
    assert counters["equivalent_fast_path_audited"] == 1
    assert counters["equivalent_fast_path_uncertified"] == 0


def test_fast_path_equivalence_counted_when_unaudited():
    q1, q2 = _isomorphic_pair()
    with Session(MinimizeOptions(audit_rate=0)) as session:
        assert session.equivalent(q1, q2) is True
        counters = session.counters()
    assert counters["equivalent_fast_path_uncertified"] == 1
    assert counters.get("equivalent_fast_path_audited", 0) == 0


# ---------------------------------------------------------------------------
# Oracle-table checking and store-load auditing
# ---------------------------------------------------------------------------


def test_check_oracle_table_accepts_genuine_table():
    source = parse_xpath(REDUNDANT)
    target = parse_xpath("a[b]/c")
    table = mapping_targets(source, target)
    assert check_oracle_table(source, target, table)


def test_check_oracle_table_rejects_inflated_table():
    source = parse_xpath(REDUNDANT)
    target = parse_xpath("a[b]/c")
    table = mapping_targets(source, target)
    table[source.root.id] = {n.id for n in target.nodes()}
    assert not check_oracle_table(source, target, table)


def _oracle_key(source, target):
    source_keys, target_keys = subtree_keys(source), subtree_keys(target)
    return (
        _digest(source_keys[source.root.id]),
        _digest(target_keys[target.root.id]),
    )


def test_tampered_oracle_row_quarantined_on_audited_load(tmp_path):
    source = parse_xpath(REDUNDANT)
    target = parse_xpath("a[b]/c")
    table = mapping_targets(source, target)
    path = str(tmp_path / "oracle.sqlite")

    store = PersistentStore(path)
    cache = ContainmentOracleCache(store=store)
    cache.lookup(source, target)  # miss arms the key hand-off
    cache.store(source, target, table)
    store.close()

    # Tamper: same key, valid checksum, wrong (but well-formed) table.
    bad = {v: set(ts) for v, ts in table.items()}
    bad[source.root.id] = {n.id for n in target.nodes()}
    key = _oracle_key(source, target)
    store = PersistentStore(path)
    store.put_oracle(key[0], key[1], source.copy(), target.copy(), bad)
    store.close()

    # An unaudited cache serves the poisoned table (the gap) ...
    store = PersistentStore(path)
    plain = ContainmentOracleCache(store=store)
    served = plain.lookup(source, target)
    store.close()
    assert served is not None
    assert served[source.root.id] == bad[source.root.id]

    # ... the audited cache refuses it, counts it, and quarantines it.
    store = PersistentStore(path)
    audited = ContainmentOracleCache(store=store, audit_store_loads=True)
    assert audited.lookup(source, target) is None
    assert audited.stats.store_audit_failures == 1
    assert store.stats.quarantined == 1
    store.close()

    # Quarantine deleted the row: later loads miss instead of re-serving.
    store = PersistentStore(path)
    later = ContainmentOracleCache(store=store, audit_store_loads=True)
    assert later.lookup(source, target) is None
    assert later.stats.store_audit_failures == 0
    store.close()


# ---------------------------------------------------------------------------
# Differential sweep
# ---------------------------------------------------------------------------


def test_differential_sweep_certify_is_transparent():
    """``certify=True`` changes nothing about the answers — it only adds
    proofs, all of which verify. Mixed Figure 7/8 sweeps of 40 queries
    (seed 11), 80 and 400 (seed 23), with one structure per 8 queries."""
    for count, seed in ((40, 11), (80, 23), (400, 23)):
        queries, constraints = batch_workload(
            count, kind="mixed", distinct=max(10, count // 8), size=12, seed=seed
        )
        with Session(MinimizeOptions(), constraints=constraints) as plain:
            baseline = plain.minimize_many(queries)
        with Session(
            MinimizeOptions(certify=True), constraints=constraints
        ) as session:
            certified = session.minimize_many(queries)
            for base, result in zip(baseline, certified):
                assert to_sexpr(base.pattern) == to_sexpr(result.pattern)
                assert base.eliminated == result.eliminated
                assert result.certificate is not None
                assert session.check_certificate(result).ok
