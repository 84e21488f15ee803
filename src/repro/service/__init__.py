"""The partition-planning service (the serving layer's first subsystem).

The paper frames HotTiles preprocessing as an amortizable host-side step
whose artifacts "can be stored for later use" and reused across SpMM
invocations (Sec. VI-B).  This package turns that one-shot pipeline into
a long-running *plan server*:

- :mod:`repro.service.protocol` -- the :class:`PlanRequest` /
  :class:`PlanResult` wire vocabulary and its content digests,
- :mod:`repro.service.store` -- the content-addressed plan store
  (results + ``.npz`` artifacts) layered on the experiment cache,
- :mod:`repro.service.metrics` -- counters / gauges / latency histograms,
- :mod:`repro.service.planner` -- :class:`PlanService`: a bounded
  admission queue with backpressure, in-flight request coalescing,
  per-request timeouts, and drain-and-shutdown,
- :mod:`repro.service.httpd` -- the stdlib HTTP front end
  (``POST /plan``, ``GET /plan/<digest>``, ``GET /healthz``,
  ``GET /stats``).

``hottiles serve`` is the CLI entry point.
"""

from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanService,
    PlanTimeout,
    ServiceClosed,
)
from repro.service.protocol import PlanRequest, PlanResult, ProtocolError
from repro.service.store import PlanStore

__all__ = [
    "PlanRequest",
    "PlanResult",
    "ProtocolError",
    "PlanStore",
    "PlanService",
    "AdmissionRejected",
    "PlanTimeout",
    "PlanFailed",
    "ServiceClosed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
