"""The fluid event-driven execution engine.

Workers execute their chunk phases sequentially; inside a phase, compute
progresses at wall-clock rate while memory traffic drains at the max-min
fair rate granted by :func:`repro.sim.memory.allocate_rates`.  The engine
advances the clock to the next sub-completion (a worker finishing its
phase's compute or its phase's bytes -- both change the demand picture),
reallocates, and repeats.  This is the standard fluid approximation of a
bandwidth-shared system at the granularity where the paper's claims live:
tiles, panels, and worker types.

Parallel mode runs both groups concurrently and appends the Merger pass
(three sweeps over the *Dout* footprint) when both groups wrote output and
the architecture lacks race-free atomics.  Serial mode runs the hot group
to completion, then the cold group, sharing one output buffer (no merge).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

__all__ = ["GroupStats", "SimResult", "simulate", "simulate_homogeneous"]

_EPS = 1e-18
_INF = float("inf")
_CACHE_LINE_BYTES = 64

#: Shared no-op tracer so the hot path stays branch-light when disabled.
_DISABLED = Tracer(enabled=False)


def _instance_labels(
    hot_plans: List[InstancePlan], cold_plans: List[InstancePlan]
) -> List[str]:
    """Stable virtual-track names: one per worker instance, per group."""
    return [f"hot-{i}" for i in range(len(hot_plans))] + [
        f"cold-{i}" for i in range(len(cold_plans))
    ]


@dataclass(frozen=True)
class GroupStats:
    """Per-worker-type statistics of one simulated execution."""

    instances: int
    nnz: int
    flops: float
    bytes: float
    busy_s: float  #: completion time of the group's slowest instance

    @property
    def busy_gflops(self) -> float:
        """GFLOP/s over the period the group is not idle (Table VII)."""
        return self.flops / self.busy_s / 1e9 if self.busy_s > 0 else 0.0


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated SpMM execution."""

    time_s: float  #: makespan including the merge pass
    merge_time_s: float
    mode: ExecutionMode
    hot: GroupStats
    cold: GroupStats
    #: piecewise-constant aggregate memory draw: (interval end time s,
    #: bytes/s during the interval), merge pass included.
    bandwidth_profile: Tuple[Tuple[float, float], ...] = ()
    #: fault-injection summary of a degraded-mode run (docs/faults.md);
    #: ``None`` for every fault-free execution, so clean results compare
    #: bit-identically to the frozen reference.
    faults: Optional[FaultSummary] = None

    @property
    def bytes_total(self) -> float:
        return self.hot.bytes + self.cold.bytes

    @property
    def bandwidth_utilization_bytes_per_sec(self) -> float:
        """Average achieved memory bandwidth over the run (Table VII)."""
        return self.bytes_total / self.time_s if self.time_s > 0 else 0.0

    def cache_lines_per_nnz(self, nnz: int) -> float:
        """Cache lines fetched from memory per nonzero (Table VII)."""
        return self.bytes_total / _CACHE_LINE_BYTES / nnz if nnz else 0.0


def simulate(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    mode: ExecutionMode = ExecutionMode.PARALLEL,
    *,
    faults: Optional[FaultSchedule] = None,
    split: Optional[TileSplit] = None,
) -> SimResult:
    """Simulate one execution of ``tiled`` under ``assignment``.

    ``assignment[i]`` True sends tile ``i`` to the hot workers.  In
    parallel mode both groups run concurrently and a merge pass is added
    when both produced output on a non-atomic architecture; in serial mode
    the groups run back to back with no merge.  ``split`` applies a
    block-level refinement (:class:`repro.core.partition.TileSplit`, from
    the partitioner's ``block-split`` candidate): the split tile's leading
    nonzeros run hot, the rest cold -- see
    :func:`repro.sim.worker_sim.build_plans`.

    A non-empty ``faults`` schedule is injected into the same event loop
    (docs/faults.md): slowdowns, failures with work reassignment, and
    bandwidth-degradation windows, summarized on ``SimResult.faults``.  An
    empty or ``None`` schedule injects nothing and leaves ``faults``
    ``None``, so results stay bit-identical to :mod:`repro.sim._reference`.
    """
    tally = None
    span_args = {}
    if faults is not None and not faults.empty:
        faults.validate_against(arch.hot.count, arch.cold.count)
        tally = _FaultTally(faults)
        span_args["faults"] = len(faults)
    tracer = get_tracer()
    tracer = tracer if tracer.enabled else None
    with (tracer if tracer is not None else _DISABLED).span(
        "sim.simulate", cat="sim", mode=mode.value, tiles=int(tiled.n_tiles),
        **span_args,
    ):
        hot_plans, cold_plans = build_plans(arch, tiled, assignment, split=split)
        if mode is ExecutionMode.PARALLEL:
            makespan, completions, profile = _run_fluid(
                arch,
                hot_plans + cold_plans,
                tracer=tracer,
                labels=_instance_labels(hot_plans, cold_plans),
                faults=tally,
            )
            hot_stats = _group_stats(hot_plans, completions[: len(hot_plans)])
            cold_stats = _group_stats(cold_plans, completions[len(hot_plans) :])
            merge = 0.0
            if hot_plans and cold_plans and not arch.atomic_updates:
                merge = arch.merge_time_s(tiled.matrix.n_rows)
                profile = profile + ((makespan + merge, arch.mem_bw_bytes_per_sec),)
                if tracer is not None:
                    tracer.complete(
                        "merge", ts=makespan, dur=merge, process=SIM,
                        track="merger", cat="sim", rows=int(tiled.matrix.n_rows),
                    )
            return SimResult(
                time_s=makespan + merge,
                merge_time_s=merge,
                mode=mode,
                hot=hot_stats,
                cold=cold_stats,
                bandwidth_profile=profile,
                faults=None if tally is None else tally.summary(),
            )
        hot_span, hot_completions, hot_profile = _run_fluid(
            arch, hot_plans, tracer, _instance_labels(hot_plans, []), faults=tally
        )
        cold_span, cold_completions, cold_profile = _run_fluid(
            arch, cold_plans, tracer, _instance_labels([], cold_plans), hot_span,
            faults=tally,
        )
        shifted = tuple((t + hot_span, bw) for t, bw in cold_profile)
        return SimResult(
            time_s=hot_span + cold_span,
            merge_time_s=0.0,
            mode=mode,
            hot=_group_stats(hot_plans, hot_completions),
            cold=_group_stats(cold_plans, cold_completions),
            bandwidth_profile=hot_profile + shifted,
            faults=None if tally is None else tally.summary(),
        )


def simulate_homogeneous(
    arch: Architecture, tiled: TiledMatrix, kind: WorkerKind
) -> SimResult:
    """HotOnly / ColdOnly execution: every tile on one worker type."""
    assignment = np.full(tiled.n_tiles, kind is WorkerKind.HOT, dtype=bool)
    return simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)


# ----------------------------------------------------------------------
def _group_stats(plans: List[InstancePlan], completions: np.ndarray) -> GroupStats:
    return GroupStats(
        instances=len(plans),
        nnz=int(sum(p.nnz_total for p in plans)),
        flops=float(sum(p.flops_total for p in plans)),
        bytes=float(sum(p.bytes_total for p in plans)),
        busy_s=float(completions.max()) if len(plans) else 0.0,
    )


class _FaultTally:
    """A fault schedule and what it did, summed over one ``simulate`` call
    (over both fluid runs in serial mode)."""

    __slots__ = ("schedule", "slowdowns", "failures", "reassigned", "failed")

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.slowdowns = 0
        self.failures = 0
        self.reassigned = 0
        self.failed: List[str] = []

    def summary(self) -> FaultSummary:
        return FaultSummary(
            slowdowns=self.slowdowns,
            failures=self.failures,
            bandwidth_windows=sum(
                isinstance(e, BandwidthWindow) for e in self.schedule.events
            ),
            reassigned_phases=self.reassigned,
            failed_instances=tuple(self.failed),
        )


def _run_fluid(
    arch: Architecture,
    plans: List[InstancePlan],
    tracer: Optional[Tracer] = None,
    labels: Optional[List[str]] = None,
    t_offset: float = 0.0,
    *,
    faults: Optional[_FaultTally] = None,
) -> Tuple[float, np.ndarray, Tuple[Tuple[float, float], ...]]:
    """Advance all instances to completion (the incremental event core).

    Returns ``(makespan, completions, bandwidth_profile)`` where the
    profile is a piecewise-constant series of (interval end, aggregate
    bytes/s) pairs -- the "bandwidth over time" view of the run.

    The loop is event-incremental: water-filling allocations are memoized
    on the demand bitmask (caps are the static per-trait ``max_rates``, so
    rates depend only on *which* instances are draining bytes), the
    bitmask is maintained by the state transitions themselves instead of
    being rescanned, and phases that retire without changing the demand
    set -- consecutive phases of the same instance, pure-compute phase
    boundaries -- reuse the standing allocation with no reallocation at
    all.  Each event scans only the unfinished instances, twice: once for
    the next interval, once to drain, re-derive and retire each instance
    in turn.  Every arithmetic step (rate grants, interval lengths,
    remaining work updates, clamps) is performed in the same order and
    with the same IEEE-754 operations as the pre-optimization loop
    preserved in :mod:`repro.sim._reference`, so results are bit-identical
    -- pinned by ``tests/sim/test_perf_differential.py``.

    ``faults`` applies a schedule's slowdowns, failures and bandwidth
    windows (docs/faults.md) at event edges: the next event time or window
    boundary caps every interval.  Event times are global and this run
    covers ``[t_offset, t_offset + makespan)``, so events due before
    ``t_offset`` apply at its first iteration; events aimed at instances
    outside ``labels`` are dropped.  A slowed instance keeps its nominal
    remaining compute in ``c_nom`` and the wall-clock time it still needs
    in ``c_rem``, so the interval scan stays as it is; the drain pass
    re-derives both for it after every interval.

    When ``tracer`` is an enabled :class:`~repro.obs.tracer.Tracer`, the
    run is narrated onto virtual-time tracks (one per instance, named by
    ``labels``, timestamps shifted by ``t_offset``): one span per chunk a
    worker executes, one ``rebalance`` event per fluid interval, and a
    ``bandwidth`` counter track sampling the aggregate grant.  Faults go
    on a ``faults`` track.  A chunk's span lies on the track that finishes
    it, so the dead instance's unfinished chunks appear on the heir's
    track as ``chunk<i> (<dead label>)``.  Tracing observes the existing
    state only -- it never feeds back into the arithmetic, which the
    differential tests pin down bit for bit."""
    n = len(plans)
    completions = np.zeros(n, dtype=np.float64)
    if n == 0:
        return 0.0, completions, ()
    if labels is None:
        labels = [f"instance-{i}" for i in range(n)]

    phase_lists = [
        list(zip(plan.phase_c.tolist(), plan.phase_b.tolist())) for plan in plans
    ]
    phase_idx = [0] * n
    c_rem = [0.0] * n
    b_rem = [0.0] * n
    done = [False] * n
    # Slowed instance -> its slowdown factor and nominal remaining compute.
    slow: Dict[int, float] = {}
    c_nom: Dict[int, float] = {}
    max_rates = np.array([p.traits.mem_rate_bytes_per_sec() for p in plans])
    pcie_mask = None
    if arch.pcie_bw_bytes_per_sec is not None:
        pcie_mask = np.array([p.kind is WorkerKind.HOT for p in plans], dtype=bool)
    allocator = RateAllocator(
        max_rates, arch.mem_bw_bytes_per_sec, pcie_mask, arch.pcie_bw_bytes_per_sec
    )
    #: instances whose cap is actually positive (tracer's "demanding" count).
    pos_rate_mask = 0
    for i in range(n):
        if max_rates[i] > 0.0:
            pos_rate_mask |= 1 << i

    if tracer is not None:
        # phase -> (owning instance, chunk index), per instance; inherited
        # phases keep pointing at the dead owner's chunk.
        chunk_of_phase = [
            [
                (i, ci)
                for ci in np.repeat(
                    np.arange(plan.chunk_nnz.shape[0]), np.diff(plan.chunk_phase_off)
                ).tolist()
            ]
            for i, plan in enumerate(plans)
        ]
        chunk_start = [t_offset] * n

    def _emit_chunk(i: int, key: Tuple[int, int], end: float) -> None:
        owner, ci = key
        plan = plans[owner]
        tracer.complete(
            f"chunk{ci}" if owner == i else f"chunk{ci} ({labels[owner]})",
            ts=chunk_start[i],
            dur=end - chunk_start[i],
            process=SIM,
            track=labels[i],
            cat="sim",
            panel=int(plan.chunk_panel[ci]),
            nnz=int(plan.chunk_nnz[ci]),
            bytes=float(plan.chunk_bytes[ci]),
        )
        chunk_start[i] = end

    def _load_next_phase(i: int) -> bool:
        """Load instance ``i``'s next non-empty phase; False when exhausted."""
        phases = phase_lists[i]
        pi = phase_idx[i]
        while pi < len(phases):
            c, b = phases[pi]
            pi += 1
            if c > _EPS or b > _EPS:
                phase_idx[i] = pi
                if i in slow:
                    c_nom[i] = c
                    c = c * slow[i] if c > _EPS else 0.0
                c_rem[i] = c
                b_rem[i] = b
                return True
        phase_idx[i] = pi
        return False

    active: List[int] = []  # unfinished instances, in index order
    demand_key = 0  # bitmask of instances with pending memory traffic
    for i in range(n):
        if _load_next_phase(i):
            active.append(i)
            if b_rem[i] > _EPS:
                demand_key |= 1 << i
        else:
            done[i] = True  # instance scheduled with no work

    t = 0.0
    profile: List[Tuple[float, float]] = []
    # The standing allocation; refreshed only when the demand set changes.
    rates: List[float] = []
    rates_sum = 0.0
    alloc_key = -1  # forces an initial allocation
    # Each iteration retires at least one sub-completion; bounded by the
    # total number of phases times two.
    max_iters = 4 * sum(len(pl) for pl in phase_lists) + 4 * n + 16

    if faults is not None:
        index_of = {label: i for i, label in enumerate(labels)}
        events = faults.schedule.events  # time-sorted
        points = deque(
            e for e in events
            if not isinstance(e, BandwidthWindow) and f"{e.kind}-{e.index}" in index_of
        )
        windows = [e for e in events if isinstance(e, BandwidthWindow)]
        edges = sorted(
            {e.t_s for e in points}
            | {w.t_start_s for w in windows}
            | {w.t_end_s for w in windows}
        )
        # Fault edges cut extra intervals; failures re-queue partial phases.
        max_iters += 4 * n + 8 * len(edges) + 24
        alive = [True] * n
        bw_factor = None  # the DRAM bandwidth factor now in force

        def _fault_event(name: str, t_global: float, **args: object) -> None:
            if tracer is not None:
                tracer.event(
                    name, ts=t_global, process=SIM, track="faults", cat="fault",
                    **args,
                )

        def _fail(i: int, t_global: float) -> None:
            alive[i] = False
            faults.failures += 1
            faults.failed.append(labels[i])
            _fault_event("fault.failure", t_global, instance=labels[i])
            phases = phase_lists[i]
            if not done[i]:  # its partial current phase moves too
                phase_idx[i] -= 1
                phases[phase_idx[i]] = (c_nom[i] if i in slow else c_rem[i], b_rem[i])
                done[i] = True
                completions[i] = t_global - t_offset
            slow.pop(i, None)
            moved = [
                k for k in range(phase_idx[i], len(phases))
                if phases[k][0] > _EPS or phases[k][1] > _EPS
            ]
            phase_idx[i] = len(phases)
            if not moved:
                return
            survivors = [
                j for j in range(n) if alive[j] and plans[j].kind is plans[i].kind
            ]
            if not survivors:
                raise SimFault(plans[i].kind.value, t_global, labels[i])
            heir = min(
                survivors,
                key=lambda j: (
                    b_rem[j] + sum(b for _, b in phase_lists[j][phase_idx[j]:]), j
                ),
            )
            phase_lists[heir].extend(phases[k] for k in moved)
            faults.reassigned += len(moved)
            _fault_event(
                "fault.recovery", t_global,
                dead=labels[i], heir=labels[heir], phases=len(moved),
            )
            if tracer is not None:
                chunk_of_phase[heir].extend(chunk_of_phase[i][k] for k in moved)
            if done[heir]:
                done[heir] = False
                _load_next_phase(heir)
                if tracer is not None:
                    chunk_start[heir] = t_global

        def _apply_point_events(t_global: float) -> None:
            while points and points[0].t_s <= t_global:
                event = points.popleft()
                i = index_of[f"{event.kind}-{event.index}"]
                if not alive[i]:
                    continue
                if isinstance(event, WorkerFailure):
                    _fail(i, t_global)
                    continue
                c = c_nom[i] if i in slow else c_rem[i]
                slow[i] = event.factor
                c_nom[i] = c
                c_rem[i] = c * event.factor if c > _EPS else 0.0
                faults.slowdowns += 1
                _fault_event(
                    "fault.slowdown", t_global,
                    instance=labels[i], factor=event.factor,
                )

    dt_edge = _INF  # time to the next fault edge, which caps every interval
    for _ in range(max_iters):
        if faults is not None:
            t_global = t + t_offset
            if points and points[0].t_s <= t_global:
                _apply_point_events(t_global)
                active = [i for i in range(n) if not done[i]]
                demand_key = sum(1 << i for i in active if b_rem[i] > _EPS)
            if active:  # (otherwise the run ends just below)
                factor = 1.0
                for w in windows:
                    if w.t_start_s <= t_global < w.t_end_s:
                        factor *= w.factor
                if factor != bw_factor:
                    bw_factor = factor
                    allocator = RateAllocator(
                        max_rates, arch.mem_bw_bytes_per_sec * factor,
                        pcie_mask, arch.pcie_bw_bytes_per_sec,
                    )
                    alloc_key = -1
                    _fault_event("fault.bandwidth", t_global, factor=factor)
                k = bisect_right(edges, t_global + _EPS)
                dt_edge = edges[k] - t_global if k < len(edges) else _INF
        if not active:
            break
        if demand_key != alloc_key:
            rates_arr, rates_sum = allocator.rates_for_key(demand_key)
            rates = rates_arr.tolist()
            alloc_key = demand_key
        if tracer is not None:
            tracer.event(
                "rebalance",
                ts=t + t_offset,
                process=SIM,
                track="memory",
                cat="sim",
                active=len(active),
                demanding=(demand_key & pos_rate_mask).bit_count(),
                granted_bytes_per_s=rates_sum,
            )
            tracer.counter(
                "bandwidth", rates_sum, ts=t + t_offset,
                process=SIM, track="memory",
            )

        # Next sub-completion: a demanding instance draining its bytes or
        # a computing instance finishing its compute.
        dt = dt_edge
        for i in active:
            b = b_rem[i]
            if b > _EPS:
                r = rates[i]
                if r > 0.0:
                    t_mem = b / (r if r > _EPS else _EPS)
                    if t_mem < dt:
                        dt = t_mem
            c = c_rem[i]
            if c > _EPS and c < dt:
                dt = c
        if dt == _INF:
            raise RuntimeError("fluid engine stalled: active work but no progress")
        t += dt
        profile.append((t, rates_sum))
        # One pass per instance: drain, re-derive slowed compute, retire.
        # Instances only share the standing rates, so this runs each
        # instance's arithmetic in the order of separate passes.
        retired = False
        for i in active:
            b = b_rem[i] - rates[i] * dt
            if b > _EPS:
                b_rem[i] = b
            else:
                # Mirrors the reference loop exactly: the clamp keeps any
                # residual in (0, eps] but the demand set drops the user.
                b_rem[i] = b if b > 0.0 else 0.0
                demand_key &= ~(1 << i)
            if slow and i in slow:
                s = slow[i]
                c = c_nom[i] - dt / s
                c = c if c > 0.0 else 0.0
                c_nom[i] = c
                c = c * s if c > _EPS else 0.0
            else:
                c = c_rem[i] - dt
                c = c if c > 0.0 else 0.0
            c_rem[i] = c
            if b > _EPS or c > _EPS:
                continue
            if tracer is not None:
                prev_chunk = chunk_of_phase[i][phase_idx[i] - 1]
            if _load_next_phase(i):
                if b_rem[i] > _EPS:
                    demand_key |= 1 << i
                if tracer is not None:
                    next_chunk = chunk_of_phase[i][phase_idx[i] - 1]
                    if next_chunk != prev_chunk:
                        _emit_chunk(i, prev_chunk, t + t_offset)
                continue
            done[i] = True
            completions[i] = t
            retired = True
            if tracer is not None:
                _emit_chunk(i, prev_chunk, t + t_offset)
        if retired:
            active = [i for i in active if not done[i]]
    else:
        raise RuntimeError("fluid engine exceeded its iteration budget")
    if tracer is not None:
        tracer.counter(
            "bandwidth", 0.0, ts=t + t_offset, process=SIM, track="memory"
        )
    return t, completions, tuple(profile)
