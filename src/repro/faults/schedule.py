"""Deterministic, seeded fault schedules for the fluid simulator.

A :class:`FaultSchedule` is an immutable, time-sorted set of injection
events that ``repro.sim.engine.simulate(..., faults=schedule)`` applies
inside its fluid event loop:

- :class:`WorkerSlowdown` -- from ``t_s`` on, instance ``index`` of the
  ``kind`` group computes ``factor``x slower (``factor >= 1``; memory
  traffic is unaffected -- stragglers are compute-bound in this model).
- :class:`WorkerFailure` -- at ``t_s`` the instance dies permanently;
  its unfinished work is reassigned to surviving same-kind instances or,
  when none remain, the run raises :class:`~repro.faults.errors.SimFault`.
- :class:`BandwidthWindow` -- during ``[t_start_s, t_end_s)`` the shared
  main-memory bandwidth is scaled by ``factor`` (``0 < factor <= 1``);
  overlapping windows multiply.  The PCIe link, being a point-to-point
  resource, keeps its nominal bandwidth.

Event times are *global* simulated seconds: in serial execution mode the
cold group starts at the hot group's span, so a failure timed during the
hot phase removes the cold instance before it starts.

Schedules serialize to/from a small JSON document (``docs/faults.md``)
and :meth:`FaultSchedule.random` draws a reproducible schedule from a
seed and per-type expected event counts -- the generator behind
``hottiles resilience`` and the chaos load generator.  An empty schedule
is a strict no-op: ``simulate`` injects nothing and its result stays
bit-identical to a fault-free run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.errors import FaultScheduleError

__all__ = [
    "WorkerSlowdown",
    "WorkerFailure",
    "BandwidthWindow",
    "FaultEvent",
    "FaultSchedule",
    "FaultSummary",
]

_KINDS = ("hot", "cold")


@dataclass(frozen=True)
class WorkerSlowdown:
    """Instance ``kind``-``index`` computes ``factor``x slower from ``t_s``."""

    t_s: float
    kind: str  #: 'hot' or 'cold'
    index: int  #: instance index within the group
    factor: float  #: >= 1; 2.0 means compute takes twice as long

    def validate(self) -> None:
        _check_target(self.kind, self.index, self.t_s)
        if not (self.factor >= 1.0 and np.isfinite(self.factor)):
            raise FaultScheduleError(
                f"slowdown factor must be finite and >= 1, got {self.factor!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": "slowdown",
            "t_s": self.t_s,
            "kind": self.kind,
            "index": self.index,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class WorkerFailure:
    """Instance ``kind``-``index`` dies permanently at ``t_s``."""

    t_s: float
    kind: str
    index: int

    def validate(self) -> None:
        _check_target(self.kind, self.index, self.t_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": "failure",
            "t_s": self.t_s,
            "kind": self.kind,
            "index": self.index,
        }


@dataclass(frozen=True)
class BandwidthWindow:
    """Main-memory bandwidth scaled by ``factor`` during the window."""

    t_start_s: float
    t_end_s: float
    factor: float  #: in (0, 1]

    def validate(self) -> None:
        if not (
            np.isfinite(self.t_start_s)
            and np.isfinite(self.t_end_s)
            and 0.0 <= self.t_start_s < self.t_end_s
        ):
            raise FaultScheduleError(
                f"bandwidth window needs 0 <= start < end, got "
                f"[{self.t_start_s!r}, {self.t_end_s!r})"
            )
        if not (0.0 < self.factor <= 1.0):
            raise FaultScheduleError(
                f"bandwidth factor must be in (0, 1], got {self.factor!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": "bandwidth",
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "factor": self.factor,
        }


FaultEvent = Union[WorkerSlowdown, WorkerFailure, BandwidthWindow]


def _check_target(kind: str, index: int, t_s: float) -> None:
    if kind not in _KINDS:
        raise FaultScheduleError(f"worker kind must be 'hot' or 'cold', got {kind!r}")
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise FaultScheduleError(f"instance index must be an int >= 0, got {index!r}")
    if not (np.isfinite(t_s) and t_s >= 0.0):
        raise FaultScheduleError(f"event time must be finite and >= 0, got {t_s!r}")


@dataclass(frozen=True)
class FaultSummary:
    """What one degraded-mode run actually injected and recovered from."""

    slowdowns: int = 0
    failures: int = 0
    bandwidth_windows: int = 0
    reassigned_phases: int = 0  #: work units moved off dead instances
    failed_instances: Tuple[str, ...] = ()  #: e.g. ('hot-1',)

    @property
    def injected(self) -> int:
        return self.slowdowns + self.failures + self.bandwidth_windows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slowdowns": self.slowdowns,
            "failures": self.failures,
            "bandwidth_windows": self.bandwidth_windows,
            "reassigned_phases": self.reassigned_phases,
            "failed_instances": list(self.failed_instances),
        }


class FaultSchedule:
    """An immutable, validated, time-sorted collection of fault events."""

    __slots__ = ("events",)

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        for event in events:
            if not isinstance(
                event, (WorkerSlowdown, WorkerFailure, BandwidthWindow)
            ):
                raise FaultScheduleError(f"not a fault event: {event!r}")
            event.validate()
        object.__setattr__(
            self,
            "events",
            tuple(sorted(events, key=_event_sort_key)),
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FaultSchedule is immutable")

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        kinds = {
            "slowdown": sum(isinstance(e, WorkerSlowdown) for e in self.events),
            "failure": sum(isinstance(e, WorkerFailure) for e in self.events),
            "bandwidth": sum(isinstance(e, BandwidthWindow) for e in self.events),
        }
        inner = ", ".join(f"{k}={v}" for k, v in kinds.items() if v)
        return f"FaultSchedule({inner or 'empty'})"

    def failures_for(self, kind: str) -> List[WorkerFailure]:
        return [
            e for e in self.events if isinstance(e, WorkerFailure) and e.kind == kind
        ]

    def validate_against(self, hot_count: int, cold_count: int) -> None:
        """Raise unless every targeted instance exists in the architecture."""
        counts = {"hot": hot_count, "cold": cold_count}
        for event in self.events:
            if isinstance(event, BandwidthWindow):
                continue
            if event.index >= counts[event.kind]:
                raise FaultScheduleError(
                    f"{event.kind}-{event.index} does not exist "
                    f"(architecture has {counts[event.kind]} {event.kind} workers)"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(payload, dict) or "events" not in payload:
            raise FaultScheduleError(
                "fault schedule must be an object with an 'events' list"
            )
        events: List[FaultEvent] = []
        for i, raw in enumerate(payload["events"]):
            if not isinstance(raw, dict):
                raise FaultScheduleError(f"event {i} must be an object, got {raw!r}")
            events.append(_event_from_dict(raw, i))
        return cls(events)

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise FaultScheduleError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Seeded generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        horizon_s: float,
        hot_instances: int,
        cold_instances: int,
        failure_rate: float = 0.0,
        slowdown_rate: float = 0.0,
        bandwidth_rate: float = 0.0,
        max_slowdown: float = 4.0,
        min_bandwidth_factor: float = 0.3,
    ) -> "FaultSchedule":
        """Draw a reproducible schedule over ``[0, horizon_s)``.

        Each ``*_rate`` is the *expected number of events* of that type
        over the horizon (Poisson-sampled).  Failures are capped at
        ``group size - 1`` per group so at least one instance of every
        populated group survives -- random schedules exercise degraded
        mode, never the unrecoverable :class:`SimFault` path (build that
        by hand when you want it).
        """
        if horizon_s <= 0 or not np.isfinite(horizon_s):
            raise FaultScheduleError(f"horizon_s must be positive, got {horizon_s!r}")
        for name, rate in (
            ("failure_rate", failure_rate),
            ("slowdown_rate", slowdown_rate),
            ("bandwidth_rate", bandwidth_rate),
        ):
            if rate < 0 or not np.isfinite(rate):
                raise FaultScheduleError(f"{name} must be >= 0, got {rate!r}")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []

        targets = [("hot", i) for i in range(hot_instances)] + [
            ("cold", i) for i in range(cold_instances)
        ]

        n_fail = int(rng.poisson(failure_rate))
        killable = [
            (k, i)
            for k, i in targets
            if (hot_instances if k == "hot" else cold_instances) > 1
        ]
        rng.shuffle(killable)
        per_kind_budget = {"hot": max(hot_instances - 1, 0),
                          "cold": max(cold_instances - 1, 0)}
        for kind, index in killable[: max(n_fail, 0)]:
            if per_kind_budget[kind] <= 0:
                continue
            per_kind_budget[kind] -= 1
            events.append(
                WorkerFailure(
                    t_s=float(rng.uniform(0.0, horizon_s)), kind=kind, index=index
                )
            )

        if targets:
            for _ in range(int(rng.poisson(slowdown_rate))):
                kind, index = targets[int(rng.integers(len(targets)))]
                events.append(
                    WorkerSlowdown(
                        t_s=float(rng.uniform(0.0, horizon_s)),
                        kind=kind,
                        index=index,
                        factor=float(rng.uniform(1.5, max_slowdown)),
                    )
                )

        for _ in range(int(rng.poisson(bandwidth_rate))):
            start = float(rng.uniform(0.0, horizon_s))
            length = float(rng.uniform(0.05, 0.5)) * horizon_s
            events.append(
                BandwidthWindow(
                    t_start_s=start,
                    t_end_s=start + length,
                    factor=float(rng.uniform(min_bandwidth_factor, 0.9)),
                )
            )
        return cls(events)


def _event_sort_key(event: FaultEvent) -> Tuple[float, int, str]:
    if isinstance(event, BandwidthWindow):
        return (event.t_start_s, 0, "")
    order = 1 if isinstance(event, WorkerFailure) else 2
    return (event.t_s, order, f"{event.kind}-{event.index}")


def _event_from_dict(raw: Dict[str, Any], position: int) -> FaultEvent:
    name = raw.get("event")
    try:
        if name == "slowdown":
            return WorkerSlowdown(
                t_s=float(raw["t_s"]),
                kind=str(raw["kind"]),
                index=int(raw["index"]),
                factor=float(raw["factor"]),
            )
        if name == "failure":
            return WorkerFailure(
                t_s=float(raw["t_s"]), kind=str(raw["kind"]), index=int(raw["index"])
            )
        if name == "bandwidth":
            return BandwidthWindow(
                t_start_s=float(raw["t_start_s"]),
                t_end_s=float(raw["t_end_s"]),
                factor=float(raw["factor"]),
            )
    except KeyError as exc:
        raise FaultScheduleError(
            f"event {position} ({name!r}) missing field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise FaultScheduleError(f"event {position} ({name!r}): {exc}") from None
    raise FaultScheduleError(
        f"event {position}: unknown event type {name!r} "
        "(known: slowdown, failure, bandwidth)"
    )
