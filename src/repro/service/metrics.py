"""Thread-safe service metrics: counters, gauges, latency histograms.

A deliberately small, stdlib-only metrics vocabulary in the shape of the
usual production registries: monotonically increasing :class:`Counter`\\ s,
point-in-time :class:`Gauge`\\ s, and :class:`Histogram`\\ s that answer
percentile queries over a bounded window of recent observations.  The
:class:`MetricsRegistry` hands out named instruments and renders one
consistent :meth:`~MetricsRegistry.snapshot` dict the ``/stats`` endpoint
serves.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (queue depth, in-flight plans)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Latency distribution over a bounded window of recent samples.

    ``count`` and ``sum`` are exact over the full lifetime; percentiles
    are computed from the newest ``max_samples`` observations (a sliding
    window, which is what a serving dashboard wants anyway).
    """

    __slots__ = ("_lock", "_samples", "count", "sum", "max")

    def __init__(self, max_samples: int = 8192) -> None:
        self._lock = threading.Lock()
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the recent window, 0 if empty.

        Linear interpolation between the two closest order statistics
        (numpy's default ``"linear"`` method), *not* nearest-rank: the
        answer for a ``q`` that falls between two samples is a weighted
        blend of both, so e.g. the median of ``[1, 2]`` is ``1.5``.
        ``q=0`` is the minimum and ``q=100`` the maximum of the window.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        return self._percentile_of(samples, q)

    @staticmethod
    def _percentile_of(samples: list, q: float) -> float:
        """Linear-interpolated percentile of pre-sorted ``samples``."""
        if not samples:
            return 0.0
        pos = (len(samples) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1 - frac) + samples[hi] * frac

    def snapshot(self) -> Dict[str, float]:
        """One internally consistent view of the whole instrument.

        Everything is read under the lock in a single critical section:
        reading ``count``/``sum``/``max`` field by field while observers
        run can pair a fresh count with a stale sum (a torn read the
        threaded metrics test catches), so the snapshot must not go
        through the individually locked accessors.
        """
        with self._lock:
            count = self.count
            total = self.sum
            peak = self.max
            samples = sorted(self._samples)
        out = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "max": peak,
        }
        out.update(
            {f"p{q:g}": self._percentile_of(samples, q) for q in (50, 95, 99)}
        )
        return out


class MetricsRegistry:
    """Named instruments plus one consistent snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str, max_samples: int = 8192) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(name, Histogram(max_samples))

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one plain dict (JSON-serializable)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }
