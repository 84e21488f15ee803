"""Bounded exponential backoff with deterministic jitter.

The planner's worker loop retries *retryable* failures (see
:mod:`repro.faults.errors`) under a :class:`RetryPolicy`: attempt ``k``
sleeps ``base * 2**(k-1)`` seconds, capped at ``max_delay_s``, with a
uniform jitter of up to ``jitter`` of the delay added on top.  Jitter is
drawn from a seeded generator so test runs are reproducible while still
decorrelating real retry storms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts."""

    max_attempts: int = 3  #: total attempts, including the first
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25  #: fraction of the delay added uniformly at random
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def rng(self) -> np.random.Generator:
        """A fresh seeded jitter source (one per consumer, not shared)."""
        return np.random.default_rng(self.seed)

    def delay_s(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay_s * (2.0 ** (attempt - 1)), self.max_delay_s)
        if self.jitter > 0.0 and rng is not None:
            delay += delay * self.jitter * float(rng.random())
        return delay
