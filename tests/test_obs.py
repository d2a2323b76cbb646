"""The one counters namespace (``repro.obs``): every ``*Stats`` class
flattens and merges the same way, and no two emit the same name."""

from __future__ import annotations

import itertools
from dataclasses import fields

import pytest

from repro.batch.executor import ExecutorStats
from repro.batch.minimizer import BatchStats
from repro.core.containment import ContainmentStats
from repro.core.images import ImagesStats
from repro.core.oracle_cache import OracleCacheStats
from repro.obs import Stats
from repro.resilience.client import ClientStats
from repro.service.service import ServiceStats
from repro.store import StoreStats

STATS = (
    ImagesStats,
    ContainmentStats,
    OracleCacheStats,
    BatchStats,
    ExecutorStats,
    StoreStats,
    ClientStats,
    ServiceStats,
)


def test_every_stats_class_is_covered():
    assert set(Stats.__subclasses__()) == set(STATS)


def test_counter_names_are_pairwise_disjoint():
    names = {cls.__name__: set(cls().counters()) for cls in STATS}
    for (a, keys_a), (b, keys_b) in itertools.combinations(names.items(), 2):
        assert not keys_a & keys_b, f"{a} and {b} both emit {sorted(keys_a & keys_b)}"


@pytest.mark.parametrize("cls", STATS, ids=lambda cls: cls.__name__)
def test_names_carry_the_class_prefix(cls):
    assert all(name.startswith(cls.prefix) for name in cls().counters())


def _filled(cls, offset: int):
    """An instance whose numeric fields hold distinct values."""
    stats = cls()
    for index, f in enumerate(fields(cls)):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)):
            setattr(stats, f.name, type(value)(index * 3 + offset))
    return stats


@pytest.mark.parametrize("cls", STATS, ids=lambda cls: cls.__name__)
def test_add_sums_counts_and_keeps_maxima(cls):
    a, b = _filled(cls, 1), _filled(cls, 2)
    if cls is ImagesStats:
        b.max_image_size = 0  # the larger value sits on either side
    merged = cls()
    merged.add(a)
    merged.add(b)
    for f in fields(cls):
        mine, left, right = (getattr(s, f.name) for s in (merged, a, b))
        if not isinstance(mine, (int, float)):
            continue
        expected = max(left, right) if f.name.startswith("max_") else left + right
        assert mine == expected, f.name


def test_histograms_merge_bucket_by_bucket():
    a, b = ServiceStats(), ServiceStats()
    for seconds in (0.001, 0.2):
        a.latency.observe(seconds)
    b.latency.observe(3.0)
    a.add(b)
    counters = a.counters()
    assert counters["latency_count"] == 3
    assert counters["latency_le_0.25"] == 2
    assert counters["latency_max_seconds"] == 3.0


def test_ratios_come_from_totals():
    total = BatchStats(queries=4, cache_hits=4)
    total.add(BatchStats(queries=4))
    assert total.counters()["hit_rate"] == 0.5
    service = ServiceStats(batches=1, batched_requests=3)
    service.add(ServiceStats(batches=1, batched_requests=1))
    assert service.counters()["mean_batch_size"] == 2.0
