"""A zero-dependency span/event tracer for the simulator and services.

The tracer records three kinds of observations onto named *tracks*
grouped into *processes*:

- **spans** -- durations with a name, arguments, and proper nesting.
  Wall-clock spans come from the ``with tracer.span("name"):`` context
  manager, which timestamps against a monotonic clock and maintains a
  per-thread nesting stack.  Virtual-time spans (the simulator's
  per-worker chunk executions, which happen in *simulated* seconds) are
  recorded with :meth:`Tracer.complete`, passing explicit ``ts``/``dur``.
- **events** -- instantaneous points (a cache hit, a water-filling
  rebalance).
- **counters** -- sampled numeric tracks (aggregate memory bandwidth
  over simulated time).

Processes separate incompatible time bases: ``"wall"`` holds monotonic
wall-clock tracks (one per thread), ``"sim"`` holds simulated-time tracks
(one per worker instance plus the memory system).  The Chrome-trace
exporter (:mod:`repro.obs.export`) maps processes to pids and tracks to
tids so Perfetto renders them side by side.

Overhead discipline: a disabled tracer does no allocation and takes no
lock -- ``span()`` returns a shared no-op handle and every other recording
method returns after a single attribute check.  Hot loops that would pay
even for argument construction should guard with ``if tracer.enabled:``.

The process-global tracer (:func:`get_tracer`) starts disabled; install
an enabled one for a scoped region with :func:`use_tracer`, mirroring the
``use_executor`` idiom of :mod:`repro.experiments.executor`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "SpanRecord",
    "EventRecord",
    "CounterRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "WALL",
    "SIM",
]

#: Canonical process names.  Anything else is allowed; these two are what
#: the built-in instrumentation uses.
WALL = "wall"
SIM = "sim"


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named duration on a track.

    ``path`` is the span's ancestry including itself (outermost first);
    wall-clock spans get it from the per-thread nesting stack, explicit
    :meth:`Tracer.complete` spans are flat (``path == (name,)``).
    """

    name: str
    process: str
    track: str
    ts: float  #: start, seconds (monotonic-relative for wall, virtual for sim)
    dur: float
    path: Tuple[str, ...]
    cat: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(frozen=True)
class EventRecord:
    """One instantaneous event on a track."""

    name: str
    process: str
    track: str
    ts: float
    cat: str = ""
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterRecord:
    """One sample of a numeric counter track."""

    name: str
    process: str
    track: str
    ts: float
    value: float


AnyRecord = Union[SpanRecord, EventRecord, CounterRecord]


class _NullSpan:
    """The shared no-op handle a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Context-manager handle of one open wall-clock span."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start", "_path")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0
        self._path: Tuple[str, ...] = ()

    def set(self, **args: Any) -> None:
        """Attach/override argument annotations before the span closes."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        stack = self._tracer._thread_stack()
        stack.append(self.name)
        self._path = tuple(stack)
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self._tracer
        end = tracer.now()
        stack = tracer._thread_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        tracer._append(
            SpanRecord(
                name=self.name,
                process=WALL,
                track=threading.current_thread().name,
                ts=self._start,
                dur=end - self._start,
                path=self._path,
                cat=self.cat,
                args=self.args,
            )
        )


class Tracer:
    """Thread-safe recorder of spans, events, and counter samples.

    Parameters
    ----------
    enabled:
        A disabled tracer records nothing and costs one attribute check
        per call.
    clock:
        Wall-clock source; must be monotonic.  Injected by tests to make
        wall timestamps deterministic.
    """

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.enabled = bool(enabled)
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._records: List[AnyRecord] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer was created (the wall time base)."""
        return self._clock() - self._epoch

    def rel(self, monotonic_ts: float) -> float:
        """Convert a raw ``time.monotonic()`` stamp into tracer time."""
        return monotonic_ts - self._epoch

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "", **args: Any) -> Union[_Span, _NullSpan]:
        """A wall-clock span context manager on the current thread."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        process: str = SIM,
        track: str = "main",
        cat: str = "",
        **args: Any,
    ) -> None:
        """Record an already-timed span (explicit, e.g. virtual-time)."""
        if not self.enabled:
            return
        self._append(
            SpanRecord(
                name=name,
                process=process,
                track=track,
                ts=float(ts),
                dur=float(dur),
                path=(name,),
                cat=cat,
                args=args,
            )
        )

    def event(
        self,
        name: str,
        ts: Optional[float] = None,
        process: str = WALL,
        track: Optional[str] = None,
        cat: str = "",
        **args: Any,
    ) -> None:
        """Record an instantaneous event (wall ``now()`` by default)."""
        if not self.enabled:
            return
        if ts is None:
            ts = self.now()
        if track is None:
            track = threading.current_thread().name
        self._append(
            EventRecord(
                name=name, process=process, track=track, ts=float(ts),
                cat=cat, args=args,
            )
        )

    def counter(
        self,
        name: str,
        value: float,
        ts: Optional[float] = None,
        process: str = SIM,
        track: str = "memory",
    ) -> None:
        """Record one sample of a numeric counter track."""
        if not self.enabled:
            return
        if ts is None:
            ts = self.now()
        self._append(
            CounterRecord(
                name=name, process=process, track=track,
                ts=float(ts), value=float(value),
            )
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def records(self) -> List[AnyRecord]:
        """A consistent snapshot of everything recorded so far."""
        with self._lock:
            return list(self._records)

    def spans(self) -> List[SpanRecord]:
        return [r for r in self.records() if isinstance(r, SpanRecord)]

    def events(self) -> List[EventRecord]:
        return [r for r in self.records() if isinstance(r, EventRecord)]

    def counters(self) -> List[CounterRecord]:
        return [r for r in self.records() if isinstance(r, CounterRecord)]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __bool__(self) -> bool:
        # Without this, ``__len__`` would make an *empty* tracer falsy,
        # silently disabling ``tracer or fallback`` style guards.
        return True

    # ------------------------------------------------------------------
    def _append(self, record: AnyRecord) -> None:
        with self._lock:
            self._records.append(record)

    def _thread_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack


# ----------------------------------------------------------------------
# The process-global tracer (disabled by default: zero overhead unless a
# CLI flag or test installs an enabled one).
# ----------------------------------------------------------------------
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The tracer all built-in instrumentation routes through."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` as the global one."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
