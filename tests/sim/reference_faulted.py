"""Frozen pre-merge degraded-mode loop: the oracle for the merged engine.

Kept verbatim (only this docstring is new) so
``test_faulted_differential.py`` can require
``repro.sim.engine.simulate(..., faults=schedule)`` to return exactly the
``SimResult`` -- fault summary and bandwidth profile included -- that
this separate fault-aware event loop produced before fault injection was
folded into ``repro.sim.engine._run_fluid``.  Imported only by tests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.partition import ExecutionMode, TileSplit
from repro.core.traits import WorkerKind
from repro.faults.errors import SimFault
from repro.faults.schedule import (
    BandwidthWindow,
    FaultSchedule,
    FaultSummary,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.obs.tracer import SIM, Tracer, get_tracer
from repro.sim.memory import RateAllocator
from repro.sim.worker_sim import InstancePlan, build_plans
from repro.sparse.tiling import TiledMatrix

__all__ = ["simulate_faulted"]

_EPS = 1e-18
_INF = float("inf")


class _FaultState:
    """Mutable bookkeeping of one degraded fluid run."""

    __slots__ = ("slowdowns", "failures", "reassigned", "failed_labels")

    def __init__(self) -> None:
        self.slowdowns = 0
        self.failures = 0
        self.reassigned = 0
        self.failed_labels: List[str] = []


def simulate_faulted(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    mode: ExecutionMode,
    untiled_block_rows: Optional[int],
    faults: FaultSchedule,
    split: Optional[TileSplit] = None,
) -> "SimResult":
    """One simulated execution under a non-empty fault schedule."""
    from repro.sim.engine import SimResult, _group_stats, _instance_labels

    faults.validate_against(arch.hot.count, arch.cold.count)
    tracer = get_tracer()
    tracer = tracer if tracer.enabled else None

    hot_plans, cold_plans = build_plans(arch, tiled, assignment, split=split)
    n_windows = sum(isinstance(e, BandwidthWindow) for e in faults.events)

    span_ctx = (
        tracer.span(
            "sim.simulate",
            cat="sim",
            mode=mode.value,
            tiles=int(tiled.n_tiles),
            faults=len(faults),
        )
        if tracer is not None
        else _null_ctx()
    )
    with span_ctx:
        if mode is ExecutionMode.PARALLEL:
            labels = _instance_labels(hot_plans, cold_plans)
            state = _FaultState()
            makespan, completions, profile = _run_fluid_faulted(
                arch, hot_plans + cold_plans, faults, labels, state, tracer, 0.0
            )
            hot_stats = _group_stats(hot_plans, completions[: len(hot_plans)])
            cold_stats = _group_stats(cold_plans, completions[len(hot_plans):])
            merge = 0.0
            if hot_plans and cold_plans and not arch.atomic_updates:
                merge = arch.merge_time_s(tiled.matrix.n_rows)
                profile = profile + ((makespan + merge, arch.mem_bw_bytes_per_sec),)
            summary = FaultSummary(
                slowdowns=state.slowdowns,
                failures=state.failures,
                bandwidth_windows=n_windows,
                reassigned_phases=state.reassigned,
                failed_instances=tuple(state.failed_labels),
            )
            return SimResult(
                time_s=makespan + merge,
                merge_time_s=merge,
                mode=mode,
                hot=hot_stats,
                cold=cold_stats,
                bandwidth_profile=profile,
                faults=summary,
            )

        hot_state = _FaultState()
        hot_span, hot_completions, hot_profile = _run_fluid_faulted(
            arch, hot_plans, faults, _instance_labels(hot_plans, []), hot_state, tracer, 0.0
        )
        cold_state = _FaultState()
        cold_span, cold_completions, cold_profile = _run_fluid_faulted(
            arch,
            cold_plans,
            faults,
            _instance_labels([], cold_plans),
            cold_state,
            tracer,
            hot_span,
        )
        shifted = tuple((t + hot_span, bw) for t, bw in cold_profile)
        summary = FaultSummary(
            slowdowns=hot_state.slowdowns + cold_state.slowdowns,
            failures=hot_state.failures + cold_state.failures,
            bandwidth_windows=n_windows,
            reassigned_phases=hot_state.reassigned + cold_state.reassigned,
            failed_instances=tuple(hot_state.failed_labels + cold_state.failed_labels),
        )
        return SimResult(
            time_s=hot_span + cold_span,
            merge_time_s=0.0,
            mode=mode,
            hot=_group_stats(hot_plans, hot_completions),
            cold=_group_stats(cold_plans, cold_completions),
            bandwidth_profile=hot_profile + shifted,
            faults=summary,
        )


# ----------------------------------------------------------------------
def _run_fluid_faulted(
    arch: Architecture,
    plans: List[InstancePlan],
    schedule: FaultSchedule,
    labels: List[str],
    state: _FaultState,
    tracer: Optional[Tracer],
    t_offset: float,
) -> Tuple[float, np.ndarray, Tuple[Tuple[float, float], ...]]:
    """Advance ``plans`` to completion under the schedule's faults.

    Event times are global simulated seconds; this run covers
    ``[t_offset, t_offset + makespan)``, so point events before
    ``t_offset`` (a failure timed during the earlier serial phase) apply
    at the first iteration.  Returned times are run-local, like
    :func:`repro.sim.engine._run_fluid`.
    """
    n = len(plans)
    completions = np.zeros(n, dtype=np.float64)
    if n == 0:
        return 0.0, completions, ()

    index_of = {label: i for i, label in enumerate(labels)}
    point_events = [
        e
        for e in schedule.events
        if isinstance(e, (WorkerSlowdown, WorkerFailure))
        and f"{e.kind}-{e.index}" in index_of
    ]
    point_events.sort(key=lambda e: e.t_s)
    windows = [e for e in schedule.events if isinstance(e, BandwidthWindow)]
    edge_times = sorted(
        {e.t_s for e in point_events}
        | {w.t_start_s for w in windows}
        | {w.t_end_s for w in windows}
    )

    pending: List[List[Tuple[float, float]]] = [
        list(zip(plan.phase_c.tolist(), plan.phase_b.tolist())) for plan in plans
    ]
    c_rem = [0.0] * n
    b_rem = [0.0] * n
    slow = [1.0] * n
    alive = [True] * n
    done = [False] * n

    max_rates = np.array([p.traits.mem_rate_bytes_per_sec() for p in plans])
    pcie_mask = None
    if arch.pcie_bw_bytes_per_sec is not None:
        pcie_mask = np.array([p.kind is WorkerKind.HOT for p in plans], dtype=bool)
    base_bw = arch.mem_bw_bytes_per_sec
    allocators = {1.0: RateAllocator(max_rates, base_bw, pcie_mask,
                                     arch.pcie_bw_bytes_per_sec)}

    def _bw_factor(t_global: float) -> float:
        factor = 1.0
        for w in windows:
            if w.t_start_s <= t_global < w.t_end_s:
                factor *= w.factor
        return factor

    def _load_next(i: int) -> bool:
        queue = pending[i]
        while queue:
            c, b = queue.pop(0)
            if c > _EPS or b > _EPS:
                c_rem[i] = c
                b_rem[i] = b
                return True
        return False

    def _emit(name: str, t_global: float, **args: object) -> None:
        if tracer is not None:
            tracer.event(
                name, ts=t_global, process=SIM, track="faults", cat="fault", **args
            )

    def _apply_failure(event: WorkerFailure, t_global: float) -> None:
        i = index_of[f"{event.kind}-{event.index}"]
        if not alive[i]:
            return  # duplicate failure of a dead instance
        alive[i] = False
        state.failures += 1
        state.failed_labels.append(labels[i])
        _emit("fault.failure", t_global, instance=labels[i])
        leftovers: List[Tuple[float, float]] = []
        if not done[i] and (c_rem[i] > _EPS or b_rem[i] > _EPS):
            leftovers.append((c_rem[i], b_rem[i]))
        leftovers.extend(
            (c, b) for c, b in pending[i] if c > _EPS or b > _EPS
        )
        pending[i] = []
        c_rem[i] = 0.0
        b_rem[i] = 0.0
        if not done[i]:
            done[i] = True
            completions[i] = t_global - t_offset
        if not leftovers:
            return
        survivors = [
            j
            for j, plan in enumerate(plans)
            if alive[j] and plan.kind is plans[i].kind and j != i
        ]
        if not survivors:
            kind = "hot" if plans[i].kind is WorkerKind.HOT else "cold"
            raise SimFault(kind, t_global, labels[i])
        heir = min(
            survivors,
            key=lambda j: (b_rem[j] + sum(b for _, b in pending[j]), j),
        )
        pending[heir].extend(leftovers)
        state.reassigned += len(leftovers)
        _emit(
            "fault.recovery",
            t_global,
            dead=labels[i],
            heir=labels[heir],
            phases=len(leftovers),
        )
        if done[heir]:
            done[heir] = False
            if not _load_next(heir):  # pragma: no cover -- leftovers non-empty
                done[heir] = True

    def _apply_point_events(t_global: float) -> None:
        nonlocal next_event
        while next_event < len(point_events) and point_events[next_event].t_s <= t_global:
            event = point_events[next_event]
            next_event += 1
            if isinstance(event, WorkerSlowdown):
                i = index_of[f"{event.kind}-{event.index}"]
                if alive[i]:
                    slow[i] = event.factor
                    state.slowdowns += 1
                    _emit(
                        "fault.slowdown", t_global,
                        instance=labels[i], factor=event.factor,
                    )
            else:
                _apply_failure(event, t_global)

    for i in range(n):
        if not _load_next(i):
            done[i] = True

    next_event = 0
    t = 0.0
    profile: List[Tuple[float, float]] = []
    last_factor: Optional[float] = None
    total_phases = sum(len(q) for q in pending) + n
    max_iters = 4 * total_phases + 4 * n + 8 * (len(edge_times) + 1) + 32
    for _ in range(max_iters):
        _apply_point_events(t + t_offset)
        if all(done):
            break
        t_global = t + t_offset
        factor = _bw_factor(t_global)
        allocator = allocators.get(factor)
        if allocator is None:
            allocator = RateAllocator(
                max_rates, base_bw * factor, pcie_mask, arch.pcie_bw_bytes_per_sec
            )
            allocators[factor] = allocator
        if tracer is not None and factor != last_factor:
            _emit("fault.bandwidth", t_global, factor=factor)
        last_factor = factor

        demand_key = 0
        for i in range(n):
            if not done[i] and b_rem[i] > _EPS:
                demand_key |= 1 << i
        rates_arr, rates_sum = allocator.rates_for_key(demand_key)
        rates = rates_arr.tolist()

        dt = _INF
        for i in range(n):
            if done[i]:
                continue
            b = b_rem[i]
            if b > _EPS:
                r = rates[i]
                if r > 0.0:
                    t_mem = b / (r if r > _EPS else _EPS)
                    if t_mem < dt:
                        dt = t_mem
            c = c_rem[i]
            if c > _EPS:
                t_comp = c * slow[i]
                if t_comp < dt:
                    dt = t_comp
        # A fault edge (event time or window boundary) can pre-empt the
        # next sub-completion: reallocate there even with no completion.
        for edge in edge_times:
            if edge > t_global + _EPS:
                if edge - t_global < dt:
                    dt = edge - t_global
                break
        if dt == _INF:
            raise RuntimeError(
                "degraded fluid engine stalled: active work but no progress"
            )
        t += dt
        profile.append((t, rates_sum))
        for i in range(n):
            if done[i]:
                continue
            b = b_rem[i] - rates[i] * dt
            b_rem[i] = b if b > 0.0 else 0.0
            c = c_rem[i] - dt / slow[i]
            c_rem[i] = c if c > 0.0 else 0.0

        for i in range(n):
            if done[i] or b_rem[i] > _EPS or c_rem[i] > _EPS:
                continue
            if _load_next(i):
                continue
            done[i] = True
            completions[i] = t
    else:
        raise RuntimeError("degraded fluid engine exceeded its iteration budget")
    return t, completions, tuple(profile)


class _null_ctx:
    def __enter__(self) -> "_null_ctx":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None
