"""One counters namespace: the base of every ``*Stats`` dataclass.

Each layer keeps its counters in a dataclass derived from :class:`Stats`:
the images engine (:class:`~repro.core.images.ImagesStats`), the
containment oracle and its cache
(:class:`~repro.core.containment.ContainmentStats`,
:class:`~repro.core.oracle_cache.OracleCacheStats`), the batch layer and
its executor (:class:`~repro.batch.minimizer.BatchStats`,
:class:`~repro.batch.executor.ExecutorStats`), the persistent store
(:class:`~repro.store.StoreStats`), the service
(:class:`~repro.service.service.ServiceStats`) and its clients
(:class:`~repro.resilience.client.ClientStats`). The base gives them all
the same two operations:

* :meth:`Stats.counters` flattens the fields into one ``{name: value}``
  dict, every name under the class's ``prefix``, plus the ratios the
  class derives from its totals;
* :meth:`Stats.add` merges another instance field by field: counts and
  seconds add up, and ``max_*`` fields keep the larger value.

:class:`repro.api.Session` accumulates its layers' stats with ``add`` and
flattens them only when its ``counters()`` is read, so every ratio is a
ratio of totals. No two classes emit the same name.
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar

__all__ = ["Stats"]


class Stats:
    """Base of the ``*Stats`` dataclasses: one flatten, one merge.

    A subclass declares its counters as dataclass fields. ``prefix``
    places them under the layer's name in the flat namespace; ``ratios``
    names properties reported beside them, computed from the totals when
    the counters are read. A field that is not a number (a latency
    histogram) flattens through its own ``counters(name)`` and merges
    through its own ``add``.
    """

    prefix: ClassVar[str] = ""
    ratios: ClassVar[tuple[str, ...]] = ()

    def counters(self) -> dict[str, float]:
        """The counters as one flat dict (JSON reports, the ``stats`` op)."""
        out: dict[str, float] = {}
        for f in fields(self):
            name, value = self.prefix + f.name, getattr(self, f.name)
            if isinstance(value, (int, float)):
                out[name] = value
            else:
                out.update(value.counters(name))
        for ratio in self.ratios:
            out[self.prefix + ratio] = getattr(self, ratio)
        return out

    def add(self, other: "Stats") -> None:
        """Merge ``other`` into this instance: every field is summed,
        except that ``max_*`` fields keep the larger value."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name.startswith("max_"):
                setattr(self, f.name, max(mine, theirs))
            elif isinstance(mine, (int, float)):
                setattr(self, f.name, mine + theirs)
            else:
                mine.add(theirs)
