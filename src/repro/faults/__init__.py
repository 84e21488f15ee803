"""Service-side error handling.

See ``docs/service.md``.  Two modules:

- :mod:`repro.faults.errors` -- the retryable/terminal error taxonomy and
  the :class:`StructuredError` record the planning service carries,
- :mod:`repro.faults.retry` -- bounded backoff with seeded jitter for the
  planner's retry loop.
"""

from repro.faults.errors import (
    RetryableError,
    StructuredError,
    TerminalError,
    is_retryable,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "RetryableError",
    "StructuredError",
    "TerminalError",
    "is_retryable",
]
