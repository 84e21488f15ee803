"""The typed error taxonomy of the planning service.

Every worker-side exception is classified as **retryable** (transient:
timeouts, connection resets, resource pressure, or anything raised as
:class:`RetryableError`) or **terminal** (deterministic: malformed
requests, value errors -- a retry would fail identically).  The
classification drives the planner's bounded-backoff retry loop and the
HTTP status mapping (``503`` + ``Retry-After`` vs ``500``).

A :class:`StructuredError` is the wire/record form of one failure: type
name, message, the tail of the traceback, and the retryable flag.  It is
what :class:`~repro.service.planner.PlanFailed` carries and what
``GET /stats`` exposes in ``last_errors``, replacing the stringified
``f"{type}: {exc}"`` that used to discard all of this.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

__all__ = [
    "RetryableError",
    "TerminalError",
    "is_retryable",
    "StructuredError",
]


class RetryableError(RuntimeError):
    """Marker: a transient failure a retry is expected to clear."""


class TerminalError(RuntimeError):
    """Marker: a deterministic failure a retry would reproduce."""


#: Exception types treated as transient without an explicit marker.
_RETRYABLE_TYPES = (TimeoutError, ConnectionError, InterruptedError, BlockingIOError)


def is_retryable(exc: BaseException) -> bool:
    """Classify one exception on the retryable/terminal axis.

    Explicit markers win; otherwise timeouts and connection-shaped OS
    errors are transient and everything else (``ValueError``,
    ``ProtocolError``, ...) is terminal -- retrying a deterministic
    computation with identical inputs cannot change the outcome.
    """
    if isinstance(exc, TerminalError):
        return False
    if isinstance(exc, RetryableError):
        return True
    return isinstance(exc, _RETRYABLE_TYPES)


@dataclass(frozen=True)
class StructuredError:
    """The record form of one worker-side failure."""

    type: str  #: exception class name
    message: str
    retryable: bool
    traceback_tail: str = ""  #: last few frames, newline-joined

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StructuredError":
        return cls(
            type=str(payload.get("type", "Exception")),
            message=str(payload.get("message", "")),
            retryable=bool(payload.get("retryable", False)),
            traceback_tail=str(payload.get("traceback_tail", "")),
        )

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        retryable: Optional[bool] = None,
        tail_lines: int = 10,
    ) -> "StructuredError":
        """Capture ``exc`` with the last ``tail_lines`` traceback lines."""
        lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
        tail = "".join(lines)[-4096:]
        tail = "\n".join(tail.strip().splitlines()[-tail_lines:])
        return cls(
            type=type(exc).__name__,
            message=str(exc),
            retryable=is_retryable(exc) if retryable is None else retryable,
            traceback_tail=tail,
        )
