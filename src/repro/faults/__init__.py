"""Deterministic fault injection and degraded-mode execution.

See ``docs/faults.md``.  Three layers:

- :mod:`repro.faults.schedule` -- seeded :class:`FaultSchedule` that the
  simulator's event loop applies (``repro.sim.engine.simulate(...,
  faults=...)``),
- :mod:`repro.faults.errors` -- the retryable/terminal error taxonomy and
  :class:`StructuredError` record the planning service carries,
- :mod:`repro.faults.retry` / :mod:`repro.faults.chaos` -- bounded
  backoff with jitter and the chaos load-generator configuration.
"""

from repro.faults.chaos import CHAOS_KINDS, ChaosConfig, ChaosDecision
from repro.faults.errors import (
    FaultError,
    FaultScheduleError,
    RetryableError,
    SimFault,
    StructuredError,
    TerminalError,
    is_retryable,
)
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.faults.schedule import (
    BandwidthWindow,
    FaultEvent,
    FaultSchedule,
    FaultSummary,
    WorkerFailure,
    WorkerSlowdown,
)

__all__ = [
    "BandwidthWindow",
    "CHAOS_KINDS",
    "ChaosConfig",
    "ChaosDecision",
    "FaultError",
    "FaultEvent",
    "FaultSchedule",
    "FaultScheduleError",
    "FaultSummary",
    "RetryExhausted",
    "RetryPolicy",
    "RetryableError",
    "SimFault",
    "StructuredError",
    "TerminalError",
    "WorkerFailure",
    "WorkerSlowdown",
    "is_retryable",
]
