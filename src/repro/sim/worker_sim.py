"""Builds per-worker-instance workloads for the fluid engine.

Responsibilities:

1. *Scheduling*.  Panel-affine workers (``WorkerTraits.panel_affine``:
   scratchpad streamers) receive whole-panel chunks: all of a panel's
   tiles of one type land on one instance, the paper's SPADE-inherited
   rule that keeps same-type instances off each other's *Dout* rows.
   Other workers (SPADE PEs, PIUMA MTPs) instead receive *row blocks* of
   :func:`~repro.core.contention.block_rows` rows inside a panel,
   mirroring the paper's "chunk of 64 continuous sparse matrix rows" per
   SPADE PE (Sec. VII-A).  Row blocks partition the rows, so they are
   race-free at finer granularity and avoid serializing a whole heavy
   panel on one instance.  Both schedules balance greedily by nonzero
   count.

2. *Actual cost computation*: for every chunk compute the true compute
   seconds and the true main memory traffic.  Unlike the analytical model
   this honors

   - demand-reuse caches (windowed LRU, :mod:`repro.sim.cache`),
   - exact inter-tile reuse (the union of distinct row ids a worker
     touches in its chunk, not the model's first-tile approximation),
   - the worker's real traversal order (untiled workers sweep row-major
     across tiles; tiled workers go tile by tile).

3. *Phase shaping*: each chunk becomes a run of (compute seconds, bytes)
   phases according to the worker's overlap groups; the fluid engine
   overlaps compute and memory inside a phase and runs phases in order.

Everything is array-valued.  A worker group's units are flat arrays with
unit boundaries, every per-unit cost is a segment reduction over them
(Liu & Vinter's segmented sums), each group is costed once, and an
:class:`InstancePlan` is a struct of arrays -- no Python object per unit
or chunk between here and the fluid loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.contention import block_rows
from repro.core.partition import TileSplit
from repro.core.problem import Kernel, ProblemSpec
from repro.core.reuse import effective_tile_heights, effective_tile_widths, sparse_bytes_accessed
from repro.core.traits import ReuseType, Task, WorkerKind, WorkerTraits
from repro.sim.cache import windowed_lru_misses
from repro.sparse.tiling import TiledMatrix, TileStats, concat_ranges

__all__ = ["InstancePlan", "build_plans"]

#: Accesses one demand-cache pass (:func:`windowed_lru_misses`) may take:
#: :func:`_din_bytes` runs one pass per run of whole instances holding at
#: most this many, so the pass's sort temporaries stay bounded.
DEMAND_RUN_ACCESSES = 1 << 18


@dataclass(eq=False)
class InstancePlan:
    """Everything one worker instance will execute, as flat arrays.

    Chunk ``k`` (a panel or row-block work unit) runs the phases
    ``chunk_phase_off[k]:chunk_phase_off[k + 1]`` of ``phase_c`` (compute
    seconds) and ``phase_b`` (memory bytes) in order.
    """

    kind: WorkerKind
    traits: WorkerTraits
    phase_c: np.ndarray  #: float64 compute seconds per phase
    phase_b: np.ndarray  #: float64 memory bytes per phase
    chunk_phase_off: np.ndarray  #: int64, one more entry than chunks
    chunk_panel: np.ndarray
    chunk_nnz: np.ndarray
    chunk_bytes: np.ndarray
    nnz_total: int
    flops_total: float
    bytes_total: float


class _Units(NamedTuple):
    """One worker group's schedulable units, as flat arrays in unit order.

    Unit ``u`` runs the nonzeros ``nnz_idx[start[u]:end[u]]`` of panel
    ``panel[u]`` and spans ``height[u]`` rows; ``nnz_idx`` holds positions
    in ``rows`` and ``cols``.  Row-block units read the matrix's canonical
    (row-major) arrays; panel-affine units read the tile-permuted ones, and
    build ``nnz_idx`` only when a cost reads single nonzeros
    (:func:`_reads_nonzeros`; ``None`` otherwise).  Panel-affine units also
    cover a run of tiles: ``tiles`` from ``tile_start[u]`` up to the next
    unit's start (the segments ``np.ufunc.reduceat`` takes); row-block
    units have no tiles (``None``).
    """

    nnz_idx: Optional[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    start: np.ndarray
    end: np.ndarray
    panel: np.ndarray
    height: np.ndarray
    tiles: Optional[np.ndarray]
    tile_start: Optional[np.ndarray]

    @property
    def sizes(self) -> np.ndarray:
        """Nonzeros per unit."""
        return self.end - self.start


def build_plans(
    arch: Architecture,
    tiled: TiledMatrix,
    assignment: np.ndarray,
    *,
    split: Optional[TileSplit] = None,
) -> Tuple[List[InstancePlan], List[InstancePlan]]:
    """Schedule tiles onto instances and cost them.

    Returns ``(hot_plans, cold_plans)``; a group with zero workers (or no
    assigned tiles) yields an empty list, and instances the scheduler
    leaves idle get no plan.

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
    for group, mask in ((arch.hot, assignment), (arch.cold, ~assignment)):
        units = _work_units(tiled, mask, group.traits)
        plans.append(
            [] if units is None else _plan_group(arch, tiled, group.traits, units, group.count)
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
        "n_panel_cols", "n_tiles", "tile_offsets", "stats", "tile_eff_heights",
    )

    def __init__(self, tiled: TiledMatrix, split: TileSplit) -> None:
        j = split.tile
        lo = int(tiled.tile_offsets[j])
        hi = int(tiled.tile_offsets[j + 1])
        cut = lo + split.hot_nnz
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
) -> Optional[_Units]:
    """Cut this worker type's tiles into schedulable units (``None``: no tiles).

    Panel-affine units gather their tiles' nonzero indices with one
    :func:`concat_ranges` call, when a cost reads them; row-block units
    select theirs with one boolean scatter.  Unit boundaries come from
    where the panel or row block changes.
    """
    if not mask.any():
        return None
    offsets = tiled.tile_offsets
    if traits.panel_affine:
        # Panel-affine units: scratchpad state is per-panel.  Tiles are
        # stored panel-major, so the chosen tiles of one panel are a
        # contiguous run of ``chosen``.
        chosen = np.flatnonzero(mask)
        lengths = offsets[chosen + 1] - offsets[chosen]
        seg_ends = np.cumsum(lengths)
        panels = tiled.stats.tile_row[chosen]
        tile_start = np.flatnonzero(np.concatenate(([True], panels[1:] != panels[:-1])))
        heights = effective_tile_heights(tiled)[chosen]
        return _Units(
            nnz_idx=(
                concat_ranges(offsets[chosen], lengths) if _reads_nonzeros(traits) else None
            ),
            rows=tiled.rows,
            cols=tiled.cols,
            start=seg_ends[tile_start] - lengths[tile_start],
            end=seg_ends[np.append(tile_start[1:], chosen.size) - 1],
            panel=panels[tile_start],
            height=np.maximum.reduceat(heights, tile_start).astype(np.int64),
            tiles=chosen,
            tile_start=tile_start,
        )

    # Other workers: row-block units (the paper's contiguous-row chunks),
    # cut from the chosen nonzeros in the matrix's canonical row-major
    # order.  Scattering the per-nonzero tile mask back through ``perm``
    # selects them in that order without a sort (as ``build_format`` does).
    rows_per_block = block_rows(tiled.tile_height)
    matrix = tiled.matrix
    if mask.all():
        nnz_idx = np.arange(matrix.nnz, dtype=np.int64)
    else:
        sel = np.empty(matrix.nnz, dtype=bool)
        sel[tiled.perm] = np.repeat(mask, np.diff(offsets))
        nnz_idx = np.flatnonzero(sel)
    blocks = matrix.rows[nnz_idx] // rows_per_block
    boundaries = np.flatnonzero(np.diff(blocks)) + 1
    start = np.concatenate(([0], boundaries))
    first_rows = blocks[start] * rows_per_block
    return _Units(
        nnz_idx=nnz_idx,
        rows=matrix.rows,
        cols=matrix.cols,
        start=start,
        end=np.append(boundaries, nnz_idx.shape[0]),
        panel=first_rows // tiled.tile_height,
        height=np.minimum(rows_per_block, matrix.n_rows - first_rows),
        tiles=None,
        tile_start=None,
    )


def _reads_nonzeros(traits: WorkerTraits) -> bool:
    """Whether a panel-affine group's costs read its nonzeros one by one.

    Two do: a *Din* demand cache (:func:`_din_bytes`) and distinct *Dout*
    rows across a panel's tiles (:func:`_dout_bytes`).  Every other cost
    of a panel-affine unit comes from per-tile statistics, so Sextans and
    the PIUMA STP never gather their nonzeros.
    """
    demand_din = traits.din_reuse is ReuseType.NONE and traits.cache_bytes > 0
    demand_dout = (
        traits.dout_reuse is ReuseType.INTER_TILE
        and traits.effective_first_reuse("dout") is not ReuseType.INTRA_TILE_STREAM
    )
    return demand_din or demand_dout


def _balance(sizes: np.ndarray, n_instances: int) -> np.ndarray:
    """Greedy least-loaded instance of every unit, taken in unit order.

    A heap of ``(load, instance)`` pairs: among equal loads the lowest
    instance index wins.
    """
    heap = [(0, i) for i in range(n_instances)]
    owner = []
    for size in sizes.tolist():
        load, i = heap[0]
        owner.append(i)
        heapreplace(heap, (load + size, i))
    return np.array(owner, dtype=np.int64)


# ----------------------------------------------------------------------
# Costing
# ----------------------------------------------------------------------
def _plan_group(
    arch: Architecture,
    tiled: TiledMatrix,
    traits: WorkerTraits,
    units: _Units,
    n_instances: int,
) -> List[InstancePlan]:
    """Schedule and cost one worker group's units; one plan per busy instance.

    Per-unit costs come out in unit order (only the demand cache needs
    instance order, see :func:`_din_bytes`) and are then permuted once
    into instance-major order, where each instance's chunks and phases
    are contiguous slices of the group's arrays.
    """
    problem = arch.problem
    row_bytes = float(problem.dense_row_bytes)
    owner = _balance(units.sizes, n_instances)
    order = np.argsort(owner, kind="stable")

    dout_read, dout_write = _dout_bytes(tiled, traits, problem, units, row_bytes)
    task_arrays = {
        Task.SPARSE_READ: _sparse_bytes(tiled, traits, problem, units),
        Task.DIN_READ: _din_bytes(tiled, traits, units, owner, order, row_bytes),
        Task.DOUT_READ: dout_read,
        Task.DOUT_WRITE: dout_write,
    }
    task_arrays = {t: a[order] for t, a in task_arrays.items()}
    sizes = units.sizes[order]
    cycles = traits.cycles_per_nonzero(problem.k, problem.ops_per_nnz)
    compute = sizes * cycles / (traits.frequency_ghz * 1e9)

    # Phase (unit, group): the group's member tasks' bytes, added left to
    # right as a per-unit scalar sum adds them, and the unit's compute if
    # the group overlaps it.  Empty phases are dropped.
    groups = traits.overlap_groups
    phase_c = np.zeros((sizes.shape[0], len(groups)))
    phase_b = np.zeros((sizes.shape[0], len(groups)))
    for g, group in enumerate(groups):
        if Task.COMPUTE in group:
            phase_c[:, g] = compute
        b = np.zeros(sizes.shape[0])
        for t in group:
            arr = task_arrays.get(t)
            if arr is not None:
                b = b + arr
        phase_b[:, g] = b
    keep = (phase_c > 0.0) | (phase_b > 0.0)
    phase_c = phase_c[keep]
    phase_b = phase_b[keep]
    phase_off = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    chunk_bytes = task_arrays[Task.SPARSE_READ] + task_arrays[Task.DIN_READ]
    chunk_bytes = chunk_bytes + task_arrays[Task.DOUT_READ]
    chunk_bytes = chunk_bytes + task_arrays[Task.DOUT_WRITE]
    panels = units.panel[order]

    plans = []
    lo = 0
    for count in np.bincount(owner, minlength=n_instances).tolist():
        if count == 0:
            continue
        hi = lo + count
        p_lo, p_hi = int(phase_off[lo]), int(phase_off[hi])
        nnz_total = int(sizes[lo:hi].sum())
        plans.append(
            InstancePlan(
                kind=traits.kind,
                traits=traits,
                phase_c=phase_c[p_lo:p_hi],
                phase_b=phase_b[p_lo:p_hi],
                chunk_phase_off=phase_off[lo : hi + 1] - p_lo,
                chunk_panel=panels[lo:hi],
                chunk_nnz=sizes[lo:hi],
                chunk_bytes=chunk_bytes[lo:hi],
                nnz_total=nnz_total,
                flops_total=nnz_total * problem.flops_per_nnz,
                # A left-to-right running sum, as a scalar loop would add.
                bytes_total=float(np.cumsum(chunk_bytes[lo:hi])[-1]),
            )
        )
        lo = hi
    return plans


def _distinct_rows(tiled: TiledMatrix, units: _Units) -> np.ndarray:
    """Distinct matrix rows touched by each unit.

    Equivalent to ``np.unique(units.rows[nnz_idx[start:end]]).size`` per
    unit.  Row-block units keep their nonzeros row-major, so distinct rows
    are a boundary count with no sort at all; panel-affine units (rows
    repeat across a panel's tiles) take one keyed unique over
    ``(unit, row)`` pairs instead of one ``np.unique`` per unit.
    """
    rows = units.rows[units.nnz_idx]
    if units.tiles is None:
        new_row = np.empty(rows.shape[0], dtype=bool)
        new_row[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
        new_row[units.start] = True
        return np.add.reduceat(new_row, units.start, dtype=np.int64)
    sizes = units.sizes
    unit_id = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    span = np.int64(max(tiled.matrix.n_rows, 1))
    uniq = np.unique(unit_id * span + rows)
    return np.bincount(uniq // span, minlength=sizes.shape[0]).astype(np.int64)


def _sparse_bytes(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    units: _Units,
) -> np.ndarray:
    if units.tiles is not None:
        per_tile = sparse_bytes_accessed(
            traits.sparse_format,
            tiled.stats.nnz[units.tiles],
            effective_tile_heights(tiled)[units.tiles],
            problem.value_bytes,
            problem.index_bytes,
        )
        return np.add.reduceat(per_tile, units.tile_start)
    return sparse_bytes_accessed(
        traits.sparse_format,
        units.sizes,
        units.height.astype(np.float64),
        problem.value_bytes,
        problem.index_bytes,
    )


def _din_bytes(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    units: _Units,
    owner: np.ndarray,
    order: np.ndarray,
    row_bytes: float,
) -> np.ndarray:
    """Per-unit *Din* bytes, in unit order.

    The demand cache (``NONE`` reuse with a positive cache size) lives
    across an instance's whole run, so it sees the instance-major access
    sequence.  A windowed-LRU pass runs over each run of consecutive
    whole instances holding at most :data:`DEMAND_RUN_ACCESSES` accesses
    (an instance above that is a run of its own), with column ids keyed
    by instance.  Each instance's accesses are contiguous, so window gaps
    inside an instance are those of a separate per-instance pass, and
    accesses of different instances can never match keys: the misses are
    those of one pass over the whole sequence.
    """
    reuse = traits.din_reuse
    sizes = units.sizes
    if reuse is ReuseType.INTRA_TILE_STREAM:
        widths = effective_tile_widths(tiled)[units.tiles]
        return np.add.reduceat(widths, units.tile_start) * row_bytes
    if reuse is ReuseType.INTRA_TILE_DEMAND:
        per_unit = np.add.reduceat(tiled.stats.uniq_cids[units.tiles], units.tile_start)
        return per_unit.astype(np.float64) * row_bytes
    if reuse is ReuseType.NONE:
        capacity_rows = (
            int(traits.cache_bytes // row_bytes) if traits.cache_bytes > 0 else 0
        )
        if capacity_rows <= 0:
            return sizes.astype(np.float64) * row_bytes
        span = np.int64(max(tiled.matrix.n_cols, 1))
        owners, unit_sizes = owner[order], sizes[order]
        per_unit = np.empty(sizes.shape[0], dtype=np.int64)
        for run in _instance_runs(owners, unit_sizes):
            idx = order[run]
            run_sizes = unit_sizes[run]
            seq = units.nnz_idx[concat_ranges(units.start[idx], run_sizes)]
            keys = np.repeat(owners[run], run_sizes) * span + units.cols[seq]
            misses = windowed_lru_misses(keys, capacity_rows)
            run_starts = np.concatenate(([0], np.cumsum(run_sizes)[:-1]))
            # Sum the bool misses in int64 explicitly rather than rely on
            # NumPy's default result type: a bool-typed sum is a logical-or.
            per_unit[idx] = np.add.reduceat(misses, run_starts, dtype=np.int64)
        return per_unit.astype(np.float64) * row_bytes
    if reuse is ReuseType.INTER_TILE:
        # No evaluated worker reuses Din across tiles, but support it for
        # completeness: one streamed panel-width load per unit.
        if units.tiles is not None:
            widths = effective_tile_widths(tiled)[units.tiles]
            per_unit = np.maximum.reduceat(widths, units.tile_start)
        else:
            per_unit = sizes.astype(np.float64)
        return per_unit * row_bytes
    raise ValueError(f"unknown reuse type {reuse!r}")


def _instance_runs(owners: np.ndarray, sizes: np.ndarray) -> List[slice]:
    """Cut instance-major units into runs of whole instances.

    ``owners`` (non-decreasing) and ``sizes`` are the units' instances
    and access counts in instance-major order.  Each run holds at most
    :data:`DEMAND_RUN_ACCESSES` accesses, except a run of one instance
    above it, which is never split.
    """
    ends = np.append(np.flatnonzero(np.diff(owners)) + 1, owners.shape[0]).tolist()
    acc = np.concatenate(([0], np.cumsum(sizes))).tolist()
    runs = []
    lo = prev = 0
    for hi in ends:
        if acc[hi] - acc[lo] > DEMAND_RUN_ACCESSES and prev > lo:
            runs.append(slice(lo, prev))
            lo = prev
        prev = hi
    runs.append(slice(lo, prev))
    return runs


def _dout_bytes(
    tiled: TiledMatrix,
    traits: WorkerTraits,
    problem: ProblemSpec,
    units: _Units,
    row_bytes: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-unit *Dout* (read, write) bytes, in unit order."""
    reuse = traits.dout_reuse
    tiled_units = units.tiles is not None
    if reuse is ReuseType.INTER_TILE:
        if traits.effective_first_reuse("dout") is ReuseType.INTRA_TILE_STREAM:
            rows = units.height.astype(np.float64)
        else:  # demand: distinct row ids the instance touches in the unit
            rows = _distinct_rows(tiled, units).astype(np.float64)
    elif reuse is ReuseType.INTRA_TILE_DEMAND:
        if tiled_units:
            rows = np.add.reduceat(
                tiled.stats.uniq_rids[units.tiles], units.tile_start
            ).astype(np.float64)
        else:
            rows = _distinct_rows(tiled, units).astype(np.float64)
    elif reuse is ReuseType.INTRA_TILE_STREAM:
        if tiled_units:
            heights = effective_tile_heights(tiled)[units.tiles]
            rows = np.add.reduceat(heights, units.tile_start)
        else:
            rows = units.height.astype(np.float64)
    elif reuse is ReuseType.NONE:
        rows = units.sizes.astype(np.float64)
    else:
        raise ValueError(f"unknown reuse type {reuse!r}")
    reads = rows * row_bytes
    if problem.kernel is Kernel.SDDMM:
        return reads, units.sizes.astype(np.float64) * problem.value_bytes
    return reads, reads
