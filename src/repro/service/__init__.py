"""Async serving layer: micro-batched minimization over the batch backend.

Entry points:

* :class:`~repro.service.service.MinimizationService` — the asyncio
  service (bounded queue, adaptive micro-batching, warm worker pool,
  per-request timeouts, backpressure, graceful drain);
* :func:`~repro.service.protocol.serve_stdio` /
  :func:`~repro.service.protocol.serve_tcp` — the JSON-lines wire
  protocol (the ``repro-serve`` console script);
* :class:`~repro.service.service.ServiceStats` /
  :class:`~repro.service.service.LatencyHistogram` — the service's own
  queue, batch and latency counters (:mod:`repro.obs`), reported beside
  the session's.
"""

from .protocol import (
    MAX_LINE_BYTES,
    handle_connection,
    handle_line,
    serve_stdio,
    serve_tcp,
)
from .service import LatencyHistogram, MinimizationService, ServiceStats

__all__ = [
    "LatencyHistogram",
    "MAX_LINE_BYTES",
    "MinimizationService",
    "ServiceStats",
    "handle_connection",
    "handle_line",
    "serve_stdio",
    "serve_tcp",
]
