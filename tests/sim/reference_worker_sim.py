"""Frozen object-per-chunk plan builder: the oracle for the array plans.

Kept verbatim (only this docstring is new) so
``test_worker_sim_differential.py`` can require every array of
``repro.sim.worker_sim.build_plans`` -- phases, chunk panels, nonzeros and
bytes, instance totals -- to equal the ``Chunk`` lists this builder made
before plans became structs of arrays, and the simulated results of the
two to be equal.  It owns ``Chunk``, ``_WorkUnit`` and its own copy of
block-split support.  Imported only by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.contention import UNTILED_BLOCK_DIVISOR
from repro.core.partition import TileSplit
from repro.core.problem import Kernel, ProblemSpec
from repro.core.reuse import effective_tile_heights, effective_tile_widths, sparse_bytes_accessed
from repro.core.traits import ReuseType, Task, Traversal, WorkerKind, WorkerTraits
from repro.sim.cache import windowed_lru_misses
from repro.sparse.tiling import TiledMatrix, TileStats, concat_ranges

__all__ = ["Chunk", "InstancePlan", "build_plans", "DEFAULT_UNTILED_BLOCK_DIVISOR"]

#: Untiled workers are scheduled in row blocks of
#: ``tile_height // DEFAULT_UNTILED_BLOCK_DIVISOR`` rows (the paper's
#: 64-row SPADE chunks are 1/128 of its 8192-row panels; we use a coarser
#: 1/8 to keep simulator event counts manageable).  Defined in
#: :mod:`repro.core.contention` so the analytical granularity floors and
#: the scheduler can never disagree about the block size.
DEFAULT_UNTILED_BLOCK_DIVISOR = UNTILED_BLOCK_DIVISOR


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


def build_plans(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    untiled_block_rows: Optional[int] = None,
    split: Optional[TileSplit] = None,
) -> Tuple[List[InstancePlan], List[InstancePlan]]:
    """Schedule tiles onto instances and cost them.

    Returns ``(hot_plans, cold_plans)``; a group with zero workers (or no
    assigned tiles) yields an empty list.  ``untiled_block_rows`` overrides
    the row-block granularity for untiled-traversal workers.

    ``split`` applies a :class:`~repro.core.partition.TileSplit`: the split
    tile's leading ``hot_nnz`` nonzeros run on the hot group, the rest on
    the cold group.  Internally the split tiling is just the original
    tiling with one extra cut in ``tile_offsets`` (within a tile the
    nonzeros are row-major, so a row-aligned split is a prefix/suffix
    partition), and every scheduling and costing path below works on it
    unchanged with honest per-part statistics.
    """
    assignment = np.asarray(assignment, dtype=bool)
    if assignment.shape != (tiled.n_tiles,):
        raise ValueError(f"assignment must have shape ({tiled.n_tiles},)")
    if split is not None:
        tiled, assignment = _apply_split(tiled, assignment, split)
    if assignment.any() and arch.hot.count == 0:
        raise ValueError("tiles assigned to hot workers but architecture has none")
    if (~assignment).any() and arch.cold.count == 0 and tiled.n_tiles > 0:
        raise ValueError("tiles assigned to cold workers but architecture has none")

    plans = []
    row_bytes = float(arch.problem.dense_row_bytes)
    for group, mask in ((arch.hot, assignment), (arch.cold, ~assignment)):
        units = _work_units(tiled, mask, group.traits, untiled_block_rows)
        schedules = [s for s in _balance(units, group.count) if s]
        din_lists = _din_bytes_per_schedule(
            tiled, group.traits, arch.problem, schedules, row_bytes
        )
        plans.append(
            [
                _plan_instance(arch, tiled, group.traits, group.traits.kind, sched, din)
                for sched, din in zip(schedules, din_lists)
            ]
        )
    return plans[0], plans[1]


class _SplitTiling:
    """Tiling view with one tile subdivided at a row boundary.

    A :class:`TiledMatrix` stores nonzeros tile-major with row-major order
    inside each tile, so subdividing tile ``j`` at nonzero prefix ``h`` is
    exactly one extra cut in ``tile_offsets`` -- the permuted ``rows`` /
    ``cols`` / ``perm`` arrays are untouched and every segment-based
    consumer sees a legitimate ``(n_tiles + 1)``-tile tiling.  The two
    parts share a panel, so their effective heights are row-range extents
    carried in ``tile_eff_heights`` (honored by
    :func:`repro.core.reuse.effective_tile_heights`).
    """

    __slots__ = (
        "rows", "cols", "perm", "matrix", "tile_height", "tile_width",
        "n_panel_cols", "n_tiles", "tile_offsets", "stats",
        "tile_eff_heights", "_base",
    )

    def __init__(self, tiled: TiledMatrix, split: TileSplit) -> None:
        j = split.tile
        lo = int(tiled.tile_offsets[j])
        hi = int(tiled.tile_offsets[j + 1])
        cut = lo + split.hot_nnz
        self._base = tiled
        self.rows = tiled.rows
        self.cols = tiled.cols
        self.perm = tiled.perm
        self.matrix = tiled.matrix
        self.tile_height = tiled.tile_height
        self.tile_width = tiled.tile_width
        self.n_panel_cols = tiled.n_panel_cols
        self.n_tiles = tiled.n_tiles + 1
        self.tile_offsets = np.insert(tiled.tile_offsets, j + 1, cut)
        s = tiled.stats

        def dup(arr: np.ndarray, pair) -> np.ndarray:
            return np.concatenate(
                [arr[:j], np.asarray(pair, dtype=arr.dtype), arr[j + 1 :]]
            )

        self.stats = TileStats(
            tile_row=dup(s.tile_row, [s.tile_row[j]] * 2),
            tile_col=dup(s.tile_col, [s.tile_col[j]] * 2),
            nnz=dup(s.nnz, [split.hot_nnz, split.cold_nnz]),
            uniq_rids=dup(
                s.uniq_rids,
                [np.unique(tiled.rows[lo:cut]).size, np.unique(tiled.rows[cut:hi]).size],
            ),
            uniq_cids=dup(
                s.uniq_cids,
                [np.unique(tiled.cols[lo:cut]).size, np.unique(tiled.cols[cut:hi]).size],
            ),
        )
        panel_start = int(s.tile_row[j]) * tiled.tile_height
        eff = min(tiled.tile_height, tiled.matrix.n_rows - panel_start)
        self.tile_eff_heights = dup(
            effective_tile_heights(tiled),
            [split.row_cut - panel_start, panel_start + eff - split.row_cut],
        )

    def inverse_perm(self) -> np.ndarray:
        return self._base.inverse_perm()


def _apply_split(
    tiled: TiledMatrix, assignment: np.ndarray, split: TileSplit
) -> Tuple["_SplitTiling", np.ndarray]:
    """Validate a split and expand (tiling, assignment) to n_tiles + 1."""
    j = split.tile
    if not 0 <= j < tiled.n_tiles:
        raise ValueError(f"split tile {j} out of range for {tiled.n_tiles} tiles")
    lo = int(tiled.tile_offsets[j])
    hi = int(tiled.tile_offsets[j + 1])
    if split.hot_nnz <= 0 or split.cold_nnz <= 0 or split.hot_nnz + split.cold_nnz != hi - lo:
        raise ValueError(
            f"split sizes ({split.hot_nnz}, {split.cold_nnz}) must be positive "
            f"and sum to tile nnz {hi - lo}"
        )
    cut = lo + split.hot_nnz
    if tiled.rows[cut - 1] >= tiled.rows[cut]:
        raise ValueError("split cut does not fall on a row boundary")
    if int(tiled.rows[cut]) != split.row_cut:
        raise ValueError(
            f"split row_cut {split.row_cut} disagrees with tile data "
            f"(first cold row is {int(tiled.rows[cut])})"
        )
    if not assignment[j]:
        raise ValueError("split tile must be assigned hot (prefix-hot convention)")
    expanded = np.concatenate([assignment[:j], [True, False], assignment[j + 1 :]])
    return _SplitTiling(tiled, split), expanded


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def _work_units(
    tiled: TiledMatrix,
    mask: np.ndarray,
    traits: WorkerTraits,
    untiled_block_rows: Optional[int],
) -> List[_WorkUnit]:
    """Cut this worker type's tiles into schedulable units.

    Fully vectorized: all chosen tiles' nonzero indices are gathered with
    one :func:`concat_ranges` call and unit boundaries come from segment
    reductions, instead of a per-tile ``np.arange``/``np.concatenate``
    Python loop.
    """
    if not mask.any():
        return []
    heights = effective_tile_heights(tiled)
    offsets = tiled.tile_offsets
    if traits.traversal is Traversal.TILED_ROW_ORDERED or traits.din_reuse in (
        ReuseType.INTRA_TILE_STREAM,
        ReuseType.INTRA_TILE_DEMAND,
    ):
        # Panel-affine units: scratchpad state is per-panel.  Tiles are
        # stored panel-major, so the chosen tiles of one panel are a
        # contiguous run of ``chosen``.
        chosen = np.flatnonzero(mask)
        lengths = offsets[chosen + 1] - offsets[chosen]
        all_idx = concat_ranges(offsets[chosen], lengths)
        seg_ends = np.cumsum(lengths)
        panels = tiled.stats.tile_row[chosen]
        unit_start = np.flatnonzero(
            np.concatenate(([True], panels[1:] != panels[:-1]))
        )
        unit_end = np.append(unit_start[1:], chosen.size)
        unit_heights = np.maximum.reduceat(heights[chosen], unit_start).astype(np.int64)
        unit_panels = panels[unit_start]
        unit_lo = seg_ends[unit_start] - lengths[unit_start]
        unit_hi = seg_ends[unit_end - 1]
        return [
            _WorkUnit(
                panel=panel,
                nnz_idx=all_idx[lo:hi],
                height_rows=height,
                tile_idx=chosen[s:e],
            )
            for panel, lo, hi, height, s, e in zip(
                unit_panels.tolist(),
                unit_lo.tolist(),
                unit_hi.tolist(),
                unit_heights.tolist(),
                unit_start.tolist(),
                unit_end.tolist(),
            )
        ]

    # Untiled traversal: row-block units (the paper's contiguous-row
    # chunks).  Gather the masked nonzeros, order row-major, and split by
    # row block.
    block_rows = untiled_block_rows or max(
        1, tiled.tile_height // DEFAULT_UNTILED_BLOCK_DIVISOR
    )
    tile_ids = np.flatnonzero(mask)
    # Order the chosen nonzeros row-major.  Canonical SparseMatrix storage
    # is already (row, col)-sorted with unique coordinates, so sorting by
    # original position gives the same order -- a boolean scatter plus
    # flatnonzero instead of an argsort.
    if tile_ids.size == tiled.n_tiles:
        nnz_idx = tiled.inverse_perm()
    else:
        sel_perm = concat_ranges(
            offsets[tile_ids], offsets[tile_ids + 1] - offsets[tile_ids]
        )
        sel = np.zeros(tiled.rows.shape[0], dtype=bool)
        sel[tiled.perm[sel_perm]] = True
        nnz_idx = tiled.inverse_perm()[np.flatnonzero(sel)]
    n = nnz_idx.shape[0]
    blocks = tiled.rows[nnz_idx] // block_rows
    boundaries = np.flatnonzero(np.diff(blocks)) + 1
    starts = np.concatenate(([0], boundaries))
    first_rows = blocks[starts] * block_rows
    unit_heights = np.minimum(block_rows, tiled.matrix.n_rows - first_rows)
    unit_panels = first_rows // tiled.tile_height
    ends = np.append(boundaries, n)
    return [
        _WorkUnit(
            panel=panel,
            nnz_idx=nnz_idx[lo:hi],
            height_rows=height,
            tile_idx=None,
        )
        for panel, lo, hi, height in zip(
            unit_panels.tolist(), starts.tolist(), ends.tolist(), unit_heights.tolist()
        )
    ]


def _balance(units: List[_WorkUnit], n_instances: int) -> List[List[_WorkUnit]]:
    """Greedy least-loaded assignment of units to instances, in order."""
    if n_instances == 0 or not units:
        return [[] for _ in range(n_instances)]
    # Plain-list argmin: ties resolve to the lowest instance index, exactly
    # like np.argmin, without a numpy reduction per unit.
    loads = [0] * n_instances
    schedules: List[List[_WorkUnit]] = [[] for _ in range(n_instances)]
    for unit in units:
        instance = min(range(n_instances), key=loads.__getitem__)
        schedules[instance].append(unit)
        loads[instance] += int(unit.nnz_idx.size)
    return schedules


# ----------------------------------------------------------------------
# Costing
# ----------------------------------------------------------------------
def _plan_instance(
    arch: Architecture,
    tiled: TiledMatrix,
    traits: WorkerTraits,
    kind: WorkerKind,
    schedule: List[_WorkUnit],
    din_bytes: Optional[List[float]] = None,
) -> InstancePlan:
    problem = arch.problem
    row_bytes = float(problem.dense_row_bytes)

    sparse_bytes = _sparse_bytes_per_unit(tiled, traits, problem, schedule)
    if din_bytes is None:
        din_bytes = _din_bytes_per_unit(tiled, traits, problem, schedule, row_bytes)
    dout_read, dout_write = _dout_bytes_per_unit(
        tiled, traits, problem, schedule, row_bytes
    )

    cycles = traits.cycles_per_nonzero(problem.k, problem.ops_per_nnz)
    freq = traits.frequency_ghz * 1e9

    n_units = len(schedule)
    sizes = _unit_sizes(schedule)
    task_arrays = {
        Task.SPARSE_READ: np.asarray(sparse_bytes, dtype=np.float64),
        Task.DIN_READ: np.asarray(din_bytes, dtype=np.float64),
        Task.DOUT_READ: np.asarray(dout_read, dtype=np.float64),
        Task.DOUT_WRITE: np.asarray(dout_write, dtype=np.float64),
    }
    compute = (sizes * cycles / freq).tolist()
    # Per overlap group, sum the member tasks' bytes across all units at
    # once.  The additions run in the same left-to-right task order as a
    # sequential per-unit sum, and adding 0.0 for absent tasks is exact
    # for the non-negative totals here, so the values match the scalar
    # loop bit for bit.
    group_bytes = []
    group_compute = []
    for group in traits.overlap_groups:
        b = np.zeros(n_units, dtype=np.float64)
        for t in group:
            arr = task_arrays.get(t)
            if arr is not None:
                b = b + arr
        group_bytes.append(b.tolist())
        group_compute.append(Task.COMPUTE in group)
    cb = task_arrays[Task.SPARSE_READ] + task_arrays[Task.DIN_READ]
    cb = cb + task_arrays[Task.DOUT_READ]
    cb = cb + task_arrays[Task.DOUT_WRITE]
    chunk_bytes_all = cb.tolist()
    sizes_list = sizes.tolist()

    chunks: List[Chunk] = []
    nnz_total = 0
    bytes_total = 0.0
    n_groups = len(group_bytes)
    for ui, unit in enumerate(schedule):
        chunk_nnz = sizes_list[ui]
        compute_s = compute[ui]
        phases: List[Tuple[float, float]] = []
        for gi in range(n_groups):
            c = compute_s if group_compute[gi] else 0.0
            b = group_bytes[gi][ui]
            if c > 0.0 or b > 0.0:
                phases.append((c, b))
        chunk_bytes = chunk_bytes_all[ui]
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


def _unit_sizes(schedule: List[_WorkUnit]) -> np.ndarray:
    """Nonzero count of each unit, as one int64 array."""
    return np.fromiter(
        (u.nnz_idx.size for u in schedule), dtype=np.int64, count=len(schedule)
    )


def _cat_tile_segments(schedule: List[_WorkUnit]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated tile indices of a tiled schedule plus segment starts.

    Feeds ``np.add.reduceat``-style segment reductions: element ``i`` of
    ``reduceat(values[cat], starts)`` is the reduction over unit ``i``'s
    tiles.  Every unit of a tiled schedule has at least one tile, so the
    segments are non-empty as ``reduceat`` requires.
    """
    lengths = np.fromiter(
        (u.tile_idx.size for u in schedule), dtype=np.int64, count=len(schedule)
    )
    cat = np.concatenate([u.tile_idx for u in schedule])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return cat, starts


def _distinct_rows_per_unit(tiled: TiledMatrix, schedule: List[_WorkUnit]) -> np.ndarray:
    """Distinct matrix rows touched by each unit.

    Equivalent to ``np.unique(tiled.rows[u.nnz_idx]).size`` per unit.
    Row-block units keep their nonzeros row-major, so distinct rows are a
    boundary count with no sort at all; tiled units (rows repeat across a
    panel's tiles) fall back to a single keyed unique over ``(unit, row)``
    pairs instead of one ``np.unique`` per unit.
    """
    sizes = _unit_sizes(schedule)
    cat = np.concatenate([u.nnz_idx for u in schedule])
    rows_cat = tiled.rows[cat]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    if schedule[0].tile_idx is None:
        new_row = np.empty(rows_cat.shape[0], dtype=bool)
        new_row[0] = True
        np.not_equal(rows_cat[1:], rows_cat[:-1], out=new_row[1:])
        new_row[starts] = True
        return np.add.reduceat(new_row.astype(np.int64), starts)
    unit_id = np.repeat(np.arange(len(schedule), dtype=np.int64), sizes)
    span = np.int64(max(tiled.matrix.n_rows, 1))
    uniq = np.unique(unit_id * span + rows_cat)
    return np.bincount(uniq // span, minlength=len(schedule)).astype(np.int64)


def _sparse_bytes_per_unit(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedule: List[_WorkUnit],
) -> List[float]:
    if not schedule:
        return []
    if schedule[0].tile_idx is not None:
        heights = effective_tile_heights(tiled)
        cat, starts = _cat_tile_segments(schedule)
        per_tile = sparse_bytes_accessed(
            traits.sparse_format,
            tiled.stats.nnz[cat],
            heights[cat],
            problem.value_bytes,
            problem.index_bytes,
        )
        return np.add.reduceat(per_tile, starts).tolist()
    return sparse_bytes_accessed(
        traits.sparse_format,
        _unit_sizes(schedule),
        np.fromiter(
            (u.height_rows for u in schedule), dtype=np.float64, count=len(schedule)
        ),
        problem.value_bytes,
        problem.index_bytes,
    ).tolist()


def _din_bytes_per_schedule(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedules: List[List[_WorkUnit]],
    row_bytes: float,
) -> List[List[float]]:
    """Per-unit *Din* bytes for every instance schedule of one group.

    Most reuse types delegate to :func:`_din_bytes_per_unit` per schedule.
    The demand-cache case (``NONE`` with a positive cache size) instead
    runs ONE windowed-LRU pass over every instance's access sequence:
    column ids are keyed by instance, and because each instance's segment
    is contiguous in the concatenation, window gaps inside an instance are
    unchanged while cross-instance accesses can never match keys -- the
    per-instance miss masks come out identical to separate calls.
    """
    if not schedules:
        return []
    capacity_rows = (
        int(traits.cache_bytes // row_bytes) if traits.cache_bytes > 0 else 0
    )
    if traits.din_reuse is not ReuseType.NONE or capacity_rows <= 0:
        return [
            _din_bytes_per_unit(tiled, traits, problem, s, row_bytes)
            for s in schedules
        ]
    seqs = [np.concatenate([u.nnz_idx for u in s]) for s in schedules]
    lens = np.fromiter((q.size for q in seqs), dtype=np.int64, count=len(seqs))
    cat = np.concatenate(seqs)
    inst = np.repeat(np.arange(len(seqs), dtype=np.int64), lens)
    span = np.int64(max(tiled.matrix.n_cols, 1))
    misses = windowed_lru_misses(inst * span + tiled.cols[cat], capacity_rows)
    misses = misses.astype(np.int64)
    out: List[List[float]] = []
    base = 0
    for s in schedules:
        sizes = _unit_sizes(s)
        total = int(sizes.sum())
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        per_unit = np.add.reduceat(misses[base : base + total], starts)
        out.append((per_unit.astype(np.float64) * row_bytes).tolist())
        base += total
    return out


def _din_bytes_per_unit(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedule: List[_WorkUnit],
    row_bytes: float,
) -> List[float]:
    if not schedule:
        return []
    reuse = traits.din_reuse
    stats = tiled.stats
    if reuse is ReuseType.INTRA_TILE_STREAM:
        widths = effective_tile_widths(tiled)
        cat, starts = _cat_tile_segments(schedule)
        return (np.add.reduceat(widths[cat], starts) * row_bytes).tolist()
    if reuse is ReuseType.INTRA_TILE_DEMAND:
        cat, starts = _cat_tile_segments(schedule)
        per_unit = np.add.reduceat(stats.uniq_cids[cat], starts)
        return (per_unit.astype(np.float64) * row_bytes).tolist()
    if reuse is ReuseType.NONE:
        capacity_rows = (
            int(traits.cache_bytes // row_bytes) if traits.cache_bytes > 0 else 0
        )
        sizes = _unit_sizes(schedule)
        if capacity_rows <= 0:
            return (sizes.astype(np.float64) * row_bytes).tolist()
        # The demand cache lives across the instance's whole run: feed the
        # full access sequence through the windowed LRU, then segment-sum
        # the misses back into units.  (Cast before reduceat: np.add on a
        # bool array would reduce with logical-or.)
        seq = np.concatenate([u.nnz_idx for u in schedule])
        misses = windowed_lru_misses(tiled.cols[seq], capacity_rows)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        per_unit = np.add.reduceat(misses.astype(np.int64), starts)
        return (per_unit.astype(np.float64) * row_bytes).tolist()
    if reuse is ReuseType.INTER_TILE:
        # No evaluated worker reuses Din across tiles, but support it for
        # completeness: one streamed panel-width load per unit.
        if schedule[0].tile_idx is not None:
            widths = effective_tile_widths(tiled)
            cat, starts = _cat_tile_segments(schedule)
            per_unit = np.maximum.reduceat(widths[cat], starts)
        else:
            per_unit = _unit_sizes(schedule).astype(np.float64)
        return (per_unit * row_bytes).tolist()
    raise ValueError(f"unknown reuse type {reuse!r}")


def _dout_bytes_per_unit(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    schedule: List[_WorkUnit],
    row_bytes: float,
) -> Tuple[List[float], List[float]]:
    if not schedule:
        return [], []
    stats = tiled.stats
    reuse = traits.dout_reuse
    tiled_units = schedule[0].tile_idx is not None
    if reuse is ReuseType.INTER_TILE:
        first = traits.effective_first_reuse("dout")
        if first is ReuseType.INTRA_TILE_STREAM:
            rows = np.fromiter(
                (u.height_rows for u in schedule), dtype=np.float64, count=len(schedule)
            )
        else:  # demand: distinct row ids the instance touches in the unit
            rows = _distinct_rows_per_unit(tiled, schedule).astype(np.float64)
    elif reuse is ReuseType.INTRA_TILE_DEMAND:
        if tiled_units:
            cat, starts = _cat_tile_segments(schedule)
            rows = np.add.reduceat(stats.uniq_rids[cat], starts).astype(np.float64)
        else:
            rows = _distinct_rows_per_unit(tiled, schedule).astype(np.float64)
    elif reuse is ReuseType.INTRA_TILE_STREAM:
        if tiled_units:
            heights = effective_tile_heights(tiled)
            cat, starts = _cat_tile_segments(schedule)
            rows = np.add.reduceat(heights[cat], starts)
        else:
            rows = np.fromiter(
                (u.height_rows for u in schedule), dtype=np.float64, count=len(schedule)
            )
    elif reuse is ReuseType.NONE:
        rows = _unit_sizes(schedule).astype(np.float64)
    else:
        raise ValueError(f"unknown reuse type {reuse!r}")
    reads = (rows * row_bytes).tolist()
    if problem.kernel is Kernel.SDDMM:
        writes = (
            _unit_sizes(schedule).astype(np.float64) * problem.value_bytes
        ).tolist()
    else:
        writes = list(reads)
    return reads, writes
