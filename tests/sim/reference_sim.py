"""Frozen pre-optimization simulator core (PR 4 snapshot).

This module is a verbatim snapshot of the plan builder and fluid event
loop as they stood *before* the incremental event core and the vectorized
plan builder landed.  It exists for differential testing:
``test_perf_differential.py`` replays every conftest matrix and
architecture through both implementations and requires the optimized
path to reproduce these results bit for bit (``SimResult`` fields,
per-instance completions, and the full bandwidth profile), and
``test_worker_sim_differential.py`` runs its fluid loop on the plans of
``reference_worker_sim.py``.  Imported only by tests.

Do not "fix" or optimize this module: it is the oracle.  Deliberate
semantic changes to the simulator must update both sides and the
differential tests together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.partition import ExecutionMode
from repro.core.problem import Kernel, ProblemSpec
from repro.core.reuse import (
    effective_tile_heights,
    effective_tile_widths,
    sparse_bytes_accessed,
)
from repro.core.traits import ReuseType, Task, Traversal, WorkerKind, WorkerTraits
from repro.sim.memory import allocate_rates
from repro.core.contention import UNTILED_BLOCK_DIVISOR as DEFAULT_UNTILED_BLOCK_DIVISOR
from repro.sparse.tiling import TiledMatrix

__all__ = ["build_plans_reference", "simulate_reference"]

_EPS = 1e-18


@dataclass
class Chunk:
    """One instance's contiguous work unit (a panel or a row block)."""

    panel: int
    phases: List[Tuple[float, float]]  #: (compute seconds, memory bytes)
    nnz: int
    bytes_total: float


@dataclass
class InstancePlan:
    """Everything one worker instance will execute."""

    kind: WorkerKind
    traits: WorkerTraits
    chunks: List[Chunk]
    nnz_total: int
    flops_total: float
    bytes_total: float


@dataclass
class _WorkUnit:
    """Scheduling unit before costing: a set of nonzeros with geometry."""

    panel: int
    nnz_idx: np.ndarray  #: indices into the tile-permuted nnz arrays
    height_rows: int  #: row extent (CSR offsets, Dout streaming)
    tile_idx: Optional[np.ndarray]  #: tiles covered (tiled workers only)


def windowed_lru_misses(ids: np.ndarray, capacity_rows: int) -> np.ndarray:
    """Frozen pre-optimization windowed LRU (stable argsort + gathers)."""
    ids = np.asarray(ids)
    n = ids.shape[0]
    misses = np.ones(n, dtype=bool)
    if n == 0 or capacity_rows <= 0:
        return misses
    order = np.argsort(ids, kind="stable")  # stable keeps position order per id
    sorted_ids = ids[order]
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = sorted_ids[1:] == sorted_ids[:-1]
    gaps = np.empty(n, dtype=np.int64)
    gaps[0] = np.iinfo(np.int64).max
    gaps[1:] = order[1:] - order[:-1]
    hit_sorted = same_as_prev & (gaps <= capacity_rows)
    misses[order] = ~hit_sorted
    return misses


def build_plans_reference(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    untiled_block_rows: Optional[int] = None,
) -> Tuple[List[InstancePlan], List[InstancePlan]]:
    """The pre-vectorization ``build_plans`` (per-tile Python loops)."""
    assignment = np.asarray(assignment, dtype=bool)
    if assignment.shape != (tiled.n_tiles,):
        raise ValueError(f"assignment must have shape ({tiled.n_tiles},)")
    if assignment.any() and arch.hot.count == 0:
        raise ValueError("tiles assigned to hot workers but architecture has none")
    if (~assignment).any() and arch.cold.count == 0 and tiled.n_tiles > 0:
        raise ValueError("tiles assigned to cold workers but architecture has none")

    plans = []
    for group, mask in ((arch.hot, assignment), (arch.cold, ~assignment)):
        units = _work_units(tiled, mask, group.traits, untiled_block_rows)
        schedules = _balance(units, group.count)
        plans.append(
            [
                _plan_instance(arch, tiled, group.traits, group.traits.kind, sched)
                for sched in schedules
                if sched
            ]
        )
    return plans[0], plans[1]


def _work_units(
    tiled: TiledMatrix,
    mask: np.ndarray,
    traits: WorkerTraits,
    untiled_block_rows: Optional[int],
) -> List[_WorkUnit]:
    if not mask.any():
        return []
    heights = effective_tile_heights(tiled)
    if traits.traversal is Traversal.TILED_ROW_ORDERED or traits.din_reuse in (
        ReuseType.INTRA_TILE_STREAM,
        ReuseType.INTRA_TILE_DEMAND,
    ):
        units = []
        for panel, tile_idx in tiled.iter_panels():
            chosen = tile_idx[mask[tile_idx]]
            if chosen.size == 0:
                continue
            pieces = [
                np.arange(tiled.tile_offsets[i], tiled.tile_offsets[i + 1])
                for i in chosen
            ]
            units.append(
                _WorkUnit(
                    panel=panel,
                    nnz_idx=np.concatenate(pieces),
                    height_rows=int(heights[chosen].max()),
                    tile_idx=chosen,
                )
            )
        return units

    block_rows = untiled_block_rows or max(
        1, tiled.tile_height // DEFAULT_UNTILED_BLOCK_DIVISOR
    )
    tile_ids = np.flatnonzero(mask)
    pieces = [
        np.arange(tiled.tile_offsets[i], tiled.tile_offsets[i + 1]) for i in tile_ids
    ]
    nnz_idx = np.concatenate(pieces)
    rows = tiled.rows[nnz_idx]
    order = np.argsort(
        rows * np.int64(max(tiled.matrix.n_cols, 1)) + tiled.cols[nnz_idx],
        kind="stable",
    )
    nnz_idx = nnz_idx[order]
    blocks = tiled.rows[nnz_idx] // block_rows
    boundaries = np.flatnonzero(np.diff(blocks)) + 1
    units = []
    for segment in np.split(nnz_idx, boundaries):
        block = int(tiled.rows[segment[0]] // block_rows)
        first_row = block * block_rows
        height = min(block_rows, tiled.matrix.n_rows - first_row)
        units.append(
            _WorkUnit(
                panel=int(first_row // tiled.tile_height),
                nnz_idx=segment,
                height_rows=int(height),
                tile_idx=None,
            )
        )
    return units


def _balance(units: List[_WorkUnit], n_instances: int) -> List[List[_WorkUnit]]:
    if n_instances == 0 or not units:
        return [[] for _ in range(n_instances)]
    loads = np.zeros(n_instances, dtype=np.int64)
    schedules: List[List[_WorkUnit]] = [[] for _ in range(n_instances)]
    for unit in units:
        instance = int(np.argmin(loads))
        schedules[instance].append(unit)
        loads[instance] += unit.nnz_idx.size
    return schedules


def _plan_instance(
    arch: Architecture,
    tiled: TiledMatrix,
    traits: WorkerTraits,
    kind: WorkerKind,
    schedule: List[_WorkUnit],
) -> InstancePlan:
    problem = arch.problem
    row_bytes = float(problem.dense_row_bytes)

    din_bytes = _din_bytes_per_unit(tiled, traits, problem, schedule, row_bytes)
    dout_read, dout_write = _dout_bytes_per_unit(
        tiled, traits, problem, schedule, row_bytes
    )

    cycles = traits.cycles_per_nonzero(problem.k, problem.ops_per_nnz)
    freq = traits.frequency_ghz * 1e9

    chunks: List[Chunk] = []
    nnz_total = 0
    bytes_total = 0.0
    for ui, unit in enumerate(schedule):
        chunk_nnz = int(unit.nnz_idx.size)
        task_bytes = {
            Task.SPARSE_READ: _sparse_bytes(tiled, traits, problem, unit),
            Task.DIN_READ: din_bytes[ui],
            Task.DOUT_READ: dout_read[ui],
            Task.DOUT_WRITE: dout_write[ui],
        }
        compute_s = chunk_nnz * cycles / freq
        phases: List[Tuple[float, float]] = []
        for group in traits.overlap_groups:
            c = compute_s if Task.COMPUTE in group else 0.0
            b = sum(task_bytes.get(t, 0.0) for t in group)
            if c > 0.0 or b > 0.0:
                phases.append((c, b))
        chunk_bytes = sum(task_bytes.values())
        chunks.append(
            Chunk(panel=unit.panel, phases=phases, nnz=chunk_nnz, bytes_total=chunk_bytes)
        )
        nnz_total += chunk_nnz
        bytes_total += chunk_bytes

    return InstancePlan(
        kind=kind,
        traits=traits,
        chunks=chunks,
        nnz_total=nnz_total,
        flops_total=nnz_total * problem.flops_per_nnz,
        bytes_total=bytes_total,
    )


def _sparse_bytes(
    tiled: TiledMatrix, traits: WorkerTraits, problem: ProblemSpec, unit: _WorkUnit
) -> float:
    if unit.tile_idx is not None:
        heights = effective_tile_heights(tiled)
        return float(
            sparse_bytes_accessed(
                traits.sparse_format,
                tiled.stats.nnz[unit.tile_idx],
                heights[unit.tile_idx],
                problem.value_bytes,
                problem.index_bytes,
            ).sum()
        )
    return float(
        sparse_bytes_accessed(
            traits.sparse_format,
            np.array([unit.nnz_idx.size]),
            np.array([unit.height_rows], dtype=np.float64),
            problem.value_bytes,
            problem.index_bytes,
        )[0]
    )


def _din_bytes_per_unit(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedule: List[_WorkUnit],
    row_bytes: float,
) -> List[float]:
    reuse = traits.din_reuse
    stats = tiled.stats
    if reuse is ReuseType.INTRA_TILE_STREAM:
        widths = effective_tile_widths(tiled)
        return [float(widths[u.tile_idx].sum()) * row_bytes for u in schedule]
    if reuse is ReuseType.INTRA_TILE_DEMAND:
        return [float(stats.uniq_cids[u.tile_idx].sum()) * row_bytes for u in schedule]
    if reuse is ReuseType.NONE:
        capacity_rows = (
            int(traits.cache_bytes // row_bytes) if traits.cache_bytes > 0 else 0
        )
        if capacity_rows <= 0:
            return [float(u.nnz_idx.size) * row_bytes for u in schedule]
        seq = (
            np.concatenate([u.nnz_idx for u in schedule])
            if schedule
            else np.zeros(0, dtype=np.int64)
        )
        misses = windowed_lru_misses(tiled.cols[seq], capacity_rows)
        out: List[float] = []
        pos = 0
        for u in schedule:
            out.append(float(misses[pos : pos + u.nnz_idx.size].sum()) * row_bytes)
            pos += u.nnz_idx.size
        return out
    if reuse is ReuseType.INTER_TILE:
        widths = effective_tile_widths(tiled)
        return [
            float(widths[u.tile_idx].max() if u.tile_idx is not None else u.nnz_idx.size)
            * row_bytes
            for u in schedule
        ]
    raise ValueError(f"unknown reuse type {reuse!r}")


def _dout_bytes_per_unit(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedule: List[_WorkUnit],
    row_bytes: float,
) -> Tuple[List[float], List[float]]:
    stats = tiled.stats
    reuse = traits.dout_reuse
    reads: List[float] = []
    writes: List[float] = []
    sddmm = problem.kernel is Kernel.SDDMM
    for unit in schedule:
        if reuse is ReuseType.INTER_TILE:
            first = traits.effective_first_reuse("dout")
            if first is ReuseType.INTRA_TILE_STREAM:
                rows = float(unit.height_rows)
            else:
                rows = float(np.unique(tiled.rows[unit.nnz_idx]).size)
        elif reuse is ReuseType.INTRA_TILE_DEMAND:
            if unit.tile_idx is not None:
                rows = float(stats.uniq_rids[unit.tile_idx].sum())
            else:
                rows = float(np.unique(tiled.rows[unit.nnz_idx]).size)
        elif reuse is ReuseType.INTRA_TILE_STREAM:
            if unit.tile_idx is not None:
                heights = effective_tile_heights(tiled)
                rows = float(heights[unit.tile_idx].sum())
            else:
                rows = float(unit.height_rows)
        elif reuse is ReuseType.NONE:
            rows = float(unit.nnz_idx.size)
        else:
            raise ValueError(f"unknown reuse type {reuse!r}")
        reads.append(rows * row_bytes)
        if sddmm:
            writes.append(float(unit.nnz_idx.size) * problem.value_bytes)
        else:
            writes.append(rows * row_bytes)
    return reads, writes


# ----------------------------------------------------------------------
# Fluid event loop (pre-incremental snapshot, untraced)
# ----------------------------------------------------------------------
def simulate_reference(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    mode: ExecutionMode = ExecutionMode.PARALLEL,
    untiled_block_rows: Optional[int] = None,
):
    """The pre-optimization ``simulate`` (full recompute at every event).

    Returns the same :class:`repro.sim.engine.SimResult` the live engine
    returns; tracing hooks are omitted (the live engine's tracing is
    proven side-effect-free by ``tests/sim/test_trace_differential.py``).
    """
    from repro.sim.engine import SimResult, _group_stats

    hot_plans, cold_plans = build_plans_reference(
        arch, tiled, assignment, untiled_block_rows
    )
    if mode is ExecutionMode.PARALLEL:
        makespan, completions, profile = _run_fluid_reference(arch, hot_plans + cold_plans)
        hot_stats = _group_stats(hot_plans, completions[: len(hot_plans)])
        cold_stats = _group_stats(cold_plans, completions[len(hot_plans) :])
        merge = 0.0
        if hot_plans and cold_plans and not arch.atomic_updates:
            merge = arch.merge_time_s(tiled.matrix.n_rows)
            profile = profile + ((makespan + merge, arch.mem_bw_bytes_per_sec),)
        return SimResult(
            time_s=makespan + merge,
            merge_time_s=merge,
            mode=mode,
            hot=hot_stats,
            cold=cold_stats,
            bandwidth_profile=profile,
        )
    hot_span, hot_completions, hot_profile = _run_fluid_reference(arch, hot_plans)
    cold_span, cold_completions, cold_profile = _run_fluid_reference(arch, cold_plans)
    shifted = tuple((t + hot_span, bw) for t, bw in cold_profile)
    return SimResult(
        time_s=hot_span + cold_span,
        merge_time_s=0.0,
        mode=mode,
        hot=_group_stats(hot_plans, hot_completions),
        cold=_group_stats(cold_plans, cold_completions),
        bandwidth_profile=hot_profile + shifted,
    )


def run_fluid_reference(
    arch: Architecture, plans: List[InstancePlan]
) -> Tuple[float, np.ndarray, Tuple[Tuple[float, float], ...]]:
    """Public handle on the frozen event loop, for differential tests."""
    return _run_fluid_reference(arch, plans)


def _run_fluid_reference(
    arch: Architecture, plans: List[InstancePlan]
) -> Tuple[float, np.ndarray, Tuple[Tuple[float, float], ...]]:
    n = len(plans)
    completions = np.zeros(n, dtype=np.float64)
    if n == 0:
        return 0.0, completions, ()

    phase_lists = [[p for c in plan.chunks for p in c.phases] for plan in plans]
    phase_idx = np.zeros(n, dtype=np.int64)
    c_rem = np.zeros(n, dtype=np.float64)
    b_rem = np.zeros(n, dtype=np.float64)
    done = np.zeros(n, dtype=bool)
    max_rates = np.array([p.traits.mem_rate_bytes_per_sec() for p in plans])
    pcie_mask = None
    if arch.pcie_bw_bytes_per_sec is not None:
        pcie_mask = np.array([p.kind is WorkerKind.HOT for p in plans], dtype=bool)

    for i in range(n):
        if not _load_next_phase(phase_lists, phase_idx, c_rem, b_rem, i):
            done[i] = True

    t = 0.0
    profile: List[Tuple[float, float]] = []
    bw = arch.mem_bw_bytes_per_sec
    max_iters = 4 * sum(len(pl) for pl in phase_lists) + 4 * n + 16
    for _ in range(max_iters):
        if done.all():
            break
        caps = np.where(~done & (b_rem > _EPS), max_rates, 0.0)
        rates = allocate_rates(caps, bw, pcie_mask, arch.pcie_bw_bytes_per_sec)

        with np.errstate(divide="ignore", invalid="ignore"):
            t_mem = np.where(rates > 0, b_rem / np.maximum(rates, _EPS), np.inf)
        t_mem = np.where(~done & (b_rem > _EPS), t_mem, np.inf)
        t_comp = np.where(~done & (c_rem > _EPS), c_rem, np.inf)
        dt = float(min(t_mem.min(), t_comp.min()))
        if not np.isfinite(dt):
            raise RuntimeError("fluid engine stalled: active work but no progress")
        t += dt
        profile.append((t, float(rates.sum())))
        active = ~done
        b_rem[active] = np.maximum(b_rem[active] - rates[active] * dt, 0.0)
        c_rem[active] = np.maximum(c_rem[active] - dt, 0.0)

        finished = active & (b_rem <= _EPS) & (c_rem <= _EPS)
        for i in np.flatnonzero(finished):
            i = int(i)
            if _load_next_phase(phase_lists, phase_idx, c_rem, b_rem, i):
                continue
            done[i] = True
            completions[i] = t
    else:
        raise RuntimeError("fluid engine exceeded its iteration budget")
    return t, completions, tuple(profile)


def _load_next_phase(
    phase_lists: List[List[Tuple[float, float]]],
    phase_idx: np.ndarray,
    c_rem: np.ndarray,
    b_rem: np.ndarray,
    i: int,
) -> bool:
    phases = phase_lists[i]
    while phase_idx[i] < len(phases):
        c, b = phases[phase_idx[i]]
        phase_idx[i] += 1
        if c > _EPS or b > _EPS:
            c_rem[i] = c
            b_rem[i] = b
            return True
    return False
