"""IMH-aware partitioning (paper Sec. V).

Optimal hot/cold tile assignment needs an exhaustive search over
``2**n_tiles`` combinations, so HotTiles decomposes the problem into four
``N log N`` subproblems (Fig. 8):

================  ========================================================
Heuristic         Optimization subproblem objective
================  ========================================================
MinTime Parallel  minimize max(sum_hot th_i / N_hw, sum_cold tc_i / N_cw)
MinTime Serial    minimize sum_hot th_i / N_hw + sum_cold tc_i / N_cw
MinByte Parallel  minimize b_total
MinByte Serial    minimize b_total
================  ========================================================

Each subproblem sorts the tiles (by increasing hot - cold execution-time
difference for MinTime, hot - cold traffic difference for MinByte) and
sweeps a *cutoff index* rightward from the start of the sorted array: every
move turns one more tile hot, the objective is re-evaluated, and the sweep
rolls back and stops at the first non-improving move.  The four candidate
partitionings are then scored with the *final predicted runtime* formulas
(Fig. 8, last column) -- which re-add the maximum-reuse first-tile charges,
the shared-bandwidth term, and the merge cost -- and the best one wins.

The model is strictly per tile, and an assignment changes a tile's cost
only through one flag: whether the tile is the first of its type in its
row panel (Sec. IV-C).  So the search models every tile twice per worker
type -- maximum reuse, and first-of-type readjusted -- into one cost
table (:func:`_cost_table`), and scores each candidate by picking, tile
by tile, the variant its first-of-type mask selects.
:meth:`HotTilesPartitioner.partition`, :func:`repair_plan` and
:func:`exhaustive_partition` all search over that table.

On architectures with race-free atomic updates (PIUMA) there are no output
buffers, ``t_merge`` is zero, and only the Parallel heuristics are used.

On machines with a PCIe link in front of the hot group the final-runtime
formulas are, by default, the contention-aware evaluator of
:mod:`repro.core.contention` instead of the plain Fig. 8 forms -- the
naive formulas over-credit the PCIe-capped hot side (they treat the link
as a free-standing ``max`` term while the simulator water-fills it in
series with DRAM and the instances' own ports).  The
``contention_aware`` flag on :class:`HotTilesPartitioner` selects the
scorer; without a PCIe link both scorers are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core import contention
from repro.core.model import AnalyticalModel, TileCosts
from repro.core.traits import WorkerKind
from repro.sparse.tiling import TiledMatrix, TileStats

__all__ = [
    "Heuristic",
    "ExecutionMode",
    "PredictedTotals",
    "TileSplit",
    "PartitionResult",
    "HotTilesResult",
    "HotTilesPartitioner",
    "first_of_type_masks",
    "exhaustive_partition",
    "PartitionCache",
    "RepairStats",
    "RepairOutcome",
    "plan_cache_from",
    "repair_plan",
]


class Heuristic(enum.Enum):
    """The four HotTiles heuristics (Table II) plus block-level splitting.

    ``BLOCK_SPLIT`` refines the best whole-tile candidate by splitting
    the dominating tile at a row boundary across the two worker groups
    (see :func:`_block_split_candidate`); it is scored with the same
    final-runtime formulas, so it competes fairly and by construction
    never scores worse than the candidate it refines.
    """

    MIN_TIME_PARALLEL = "min-time-parallel"
    MIN_TIME_SERIAL = "min-time-serial"
    MIN_BYTE_PARALLEL = "min-byte-parallel"
    MIN_BYTE_SERIAL = "min-byte-serial"
    BLOCK_SPLIT = "block-split"


class ExecutionMode(enum.Enum):
    """Whether the two worker types run concurrently or back-to-back."""

    PARALLEL = "parallel"
    SERIAL = "serial"


_HEURISTIC_MODE = {
    Heuristic.MIN_TIME_PARALLEL: ExecutionMode.PARALLEL,
    Heuristic.MIN_TIME_SERIAL: ExecutionMode.SERIAL,
    Heuristic.MIN_BYTE_PARALLEL: ExecutionMode.PARALLEL,
    Heuristic.MIN_BYTE_SERIAL: ExecutionMode.SERIAL,
}

#: The keys of the eight per-tile cost arrays (hot/cold x base/first x
#: time/bytes) that :func:`_cost_table` produces.
_TABLE_NAMES = (
    "hot_base_time", "hot_first_time", "hot_base_bytes", "hot_first_bytes",
    "cold_base_time", "cold_first_time", "cold_base_bytes", "cold_first_bytes",
)


@dataclass(frozen=True)
class PredictedTotals:
    """Readjusted totals entering the final predicted-runtime formulas."""

    th_total: float  #: hot-group time: sum of hot-tile times / N_hw
    tc_total: float  #: cold-group time: sum of cold-tile times / N_cw
    bh_total: float  #: bytes moved for hot tiles
    bc_total: float  #: bytes moved for cold tiles
    t_merge: float  #: output-buffer merge cost (0 when serial or atomic)

    @property
    def b_total(self) -> float:
        return self.bh_total + self.bc_total


@dataclass(frozen=True)
class TileSplit:
    """Row-aligned subdivision of one tile across the two worker groups.

    The tile's nonzeros are stored row-major within the tile permutation,
    so a split is fully described by a prefix length: the first
    ``hot_nnz`` nonzeros (rows below ``row_cut``) execute on the hot
    group, the remaining ``cold_nnz`` (rows from ``row_cut`` up) on the
    cold group.  The cut always falls on a row boundary, keeping the two
    sides race-free at row granularity like ordinary same-panel hot/cold
    tiles.
    """

    tile: int  #: index of the split tile in the tiling
    hot_nnz: int  #: leading row-major nonzeros sent to the hot group
    cold_nnz: int  #: trailing nonzeros sent to the cold group
    row_cut: int  #: first absolute matrix row of the cold-side block


@dataclass(frozen=True)
class PartitionResult:
    """One candidate partitioning with its final predicted runtime."""

    label: str
    assignment: np.ndarray  #: per-tile, True = hot worker
    mode: ExecutionMode
    predicted_time_s: float
    totals: PredictedTotals
    #: block-level refinement: when set, ``assignment[split.tile]`` is
    #: True and the tile's trailing ``split.cold_nnz`` nonzeros go to the
    #: cold group instead (``repro.sim.worker_sim.build_plans`` honors
    #: this via ``split=``).
    split: Optional[TileSplit] = None
    #: the plain Fig. 8 prediction for this candidate; equals
    #: ``predicted_time_s`` when the naive scorer selected the plan.
    naive_time_s: Optional[float] = None
    #: which evaluator produced ``predicted_time_s``: ``"naive"`` or
    #: ``"contention"`` (:mod:`repro.core.contention`).
    scorer: str = "naive"

    @property
    def hot_tile_count(self) -> int:
        return int(self.assignment.sum())

    def hot_nnz_fraction(self, tiled: TiledMatrix) -> float:
        """Fraction of nonzeros assigned to hot workers (Fig. 5 / Fig. 14)."""
        total = tiled.stats.nnz.sum()
        if total == 0:
            return 0.0
        hot = int(tiled.stats.nnz[self.assignment].sum())
        if self.split is not None:
            hot -= self.split.cold_nnz
        return float(hot / total)


@dataclass(frozen=True)
class HotTilesResult:
    """The chosen partitioning plus every heuristic candidate."""

    chosen: PartitionResult
    candidates: Dict[Heuristic, PartitionResult]


def first_of_type_masks(
    tiled: TiledMatrix, assignment: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Mark the first hot and first cold tile of each row panel.

    Tiles in :class:`TiledMatrix` are sorted panel-major, so the first tile
    of a type in a panel is that type's minimum tile index within the
    panel.  These masks drive the Sec. IV-C readjustment of the
    maximum-reuse assumption.
    """
    assignment = np.asarray(assignment, dtype=bool)
    n = tiled.n_tiles
    if assignment.shape != (n,):
        raise ValueError(f"assignment must have shape ({n},)")
    return _first_masks(tiled.stats.tile_row, assignment)


def _first_masks(
    panels: np.ndarray, assignment: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`first_of_type_masks` over an explicit panel-id array.

    ``panels`` must be non-decreasing, as ``TiledMatrix.stats.tile_row``
    is and as a split candidate's expanded panels are (the split tile's
    two parts repeat its panel id in place).  The panel ids of one type's
    tiles are then non-decreasing too, so its first tile in each panel is
    simply where that id changes: a segment boundary, found without a sort.
    """
    n = panels.shape[0]
    hot_first = np.zeros(n, dtype=bool)
    cold_first = np.zeros(n, dtype=bool)
    for mask, out in ((assignment, hot_first), (~assignment, cold_first)):
        idx = np.flatnonzero(mask)
        if idx.size:
            ids = panels[idx]
            starts = np.empty(idx.size, dtype=bool)
            starts[0] = True
            np.not_equal(ids[1:], ids[:-1], out=starts[1:])
            out[idx[starts]] = True
    return hot_first, cold_first


class HotTilesPartitioner:
    """Runs the HotTiles modeling + partitioning pipeline for one machine.

    ``contention_aware`` selects the :mod:`repro.core.contention`
    evaluator for the final runtime formulas (default); it only changes
    scores on architectures with a PCIe link -- without one it is
    bit-identical to the naive Fig. 8 forms, which remain available with
    ``contention_aware=False``.
    """

    def __init__(self, arch: Architecture, contention_aware: bool = True) -> None:
        self.arch = arch
        self.model = AnalyticalModel(arch.problem)
        self.contention_aware = bool(contention_aware)

    def _contended(self) -> bool:
        """Whether the contention evaluator actually differs from naive."""
        return self.contention_aware and self.arch.pcie_bw_bytes_per_sec is not None

    @property
    def scorer(self) -> str:
        """Label of the evaluator selecting plans: 'naive' or 'contention'."""
        return "contention" if self._contended() else "naive"

    # ------------------------------------------------------------------
    def tile_costs(self, tiled: TiledMatrix) -> Tuple[TileCosts, TileCosts]:
        """Maximum-reuse per-tile costs ``(hot, cold)``, task breakdown included.

        The sweep input: the same numbers as the ``*_base_*`` columns of
        the cost table the search reads (:func:`_cost_table`).
        """
        hot = self.model.tile_costs(tiled, self.arch.hot.traits)
        cold = self.model.tile_costs(tiled, self.arch.cold.traits)
        return hot, cold

    def partition(self, tiled: TiledMatrix) -> HotTilesResult:
        """Run all applicable heuristics and keep the best candidate.

        With zero workers of one type the partitioning degenerates to the
        corresponding homogeneous assignment.
        """
        return _search(self, tiled, _cost_table(self, tiled, tiled.n_tiles))

    # ------------------------------------------------------------------
    def predicted_runtime(
        self,
        tiled: TiledMatrix,
        assignment: np.ndarray,
        mode: ExecutionMode,
    ) -> Tuple[float, PredictedTotals]:
        """Final predicted runtime for an assignment (Fig. 8, last column).

        Re-estimates tile costs with the first-tile-of-type readjustment,
        then applies the parallel formula
        ``max(max(th, tc), b_total / BW) + t_merge`` or the serial formula
        ``max(th, bh / BW) + max(tc, bc / BW)``.  A PCIe link in front of
        the hot group adds a ``bh / BW_pcie`` term to the hot side --
        and, under the default contention-aware scorer, the full
        :func:`repro.core.contention.contended_runtime` refinement.

        One assignment needs only its own masks, so this models them
        directly (two model calls) instead of building the four-variant
        table; the sums and the scorer are the search's own
        (:func:`_score_modes`).
        """
        assignment = np.asarray(assignment, dtype=bool)
        hot_first, cold_first = first_of_type_masks(tiled, assignment)
        hot = self.model.tile_costs(tiled, self.arch.hot.traits, first_mask=hot_first)
        cold = self.model.tile_costs(tiled, self.arch.cold.traits, first_mask=cold_first)
        [(time_s, _naive, totals)] = _score_modes(
            self, assignment, (hot.time_s, hot.bytes, cold.time_s, cold.bytes),
            _capacities(self, tiled.stats.uniq_rids), tiled.stats.tile_row,
            tiled.matrix.n_rows, [mode],
        )
        return time_s, totals

    def predict_homogeneous(self, tiled: TiledMatrix, kind: WorkerKind) -> float:
        """Predicted runtime of a homogeneous execution (Fig. 17 baselines)."""
        assignment = np.full(tiled.n_tiles, kind is WorkerKind.HOT, dtype=bool)
        time_s, _ = self.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        return time_s


def _search(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
) -> HotTilesResult:
    """The whole heuristic search over one cost table of ``tiled``.

    Sweeps every applicable heuristic over the table's maximum-reuse
    columns, scores each candidate from the table, refines the best with
    a block split, and keeps the minimum.  The result depends only on the
    table's values, so a table composed from a repair cache gives exactly
    the plan a freshly modeled one does.

    Each sort key is sorted once: the two MinTime sweeps share one order
    and its prefix and suffix sums.  The two MinByte heuristics share the
    order and the objective, hence the cutoff, so their one assignment is
    scored once in both modes.
    """
    arch = partitioner.arch
    n = tiled.n_tiles
    capacity = _capacities(partitioner, tiled.stats.uniq_rids)
    if arch.hot.count == 0 or arch.cold.count == 0:
        assignment = np.full(n, arch.cold.count == 0, dtype=bool)
        [chosen] = _score_table(
            partitioner, tiled, table, capacity, assignment,
            [("homogeneous", ExecutionMode.PARALLEL)],
        )
        return HotTilesResult(chosen=chosen, candidates={})

    n_hw, n_cw = arch.hot.count, arch.cold.count
    h_time, c_time = table["hot_base_time"], table["cold_base_time"]
    h_bytes, c_bytes = table["hot_base_bytes"], table["cold_base_bytes"]
    time_order = np.argsort(h_time - c_time, kind="stable")
    prefix_hot = _prefix(h_time[time_order] / n_hw)
    suffix_cold = _suffix(c_time[time_order] / n_cw)
    byte_order = np.argsort(h_bytes - c_bytes, kind="stable")
    byte_objective = _prefix(h_bytes[byte_order]) + _suffix(c_bytes[byte_order])
    sweeps = [
        ([Heuristic.MIN_TIME_PARALLEL], time_order, np.maximum(prefix_hot, suffix_cold)),
        ([Heuristic.MIN_TIME_SERIAL], time_order, prefix_hot + suffix_cold),
        ([Heuristic.MIN_BYTE_PARALLEL, Heuristic.MIN_BYTE_SERIAL], byte_order, byte_objective),
    ]
    candidates: Dict[Heuristic, PartitionResult] = {}
    for group, order, objective in sweeps:
        if arch.atomic_updates:
            # No output buffers to merge: serial operation can never win
            # under the model (Sec. V-B), so only Parallel heuristics run.
            group = [h for h in group if _HEURISTIC_MODE[h] is ExecutionMode.PARALLEL]
        if not group:
            continue
        assignment = np.zeros(n, dtype=bool)
        assignment[order[: _cutoff_sweep(objective)]] = True
        results = _score_table(
            partitioner, tiled, table, capacity, assignment,
            [(h.value, _HEURISTIC_MODE[h]) for h in group],
        )
        candidates.update(zip(group, results))
    base = min(candidates.values(), key=lambda r: r.predicted_time_s)
    candidates[Heuristic.BLOCK_SPLIT] = _block_split_candidate(
        partitioner, tiled, table, base
    )
    # min keeps the first of tied values, and the whole-tile heuristics
    # precede BLOCK_SPLIT: the split is chosen only when strictly better.
    chosen = min(candidates.values(), key=lambda r: r.predicted_time_s)
    return HotTilesResult(chosen=chosen, candidates=candidates)


def exhaustive_partition(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    max_tiles: int = 16,
) -> PartitionResult:
    """Oracle partitioning by exhaustive search (Sec. V-A).

    Enumerates all ``2**n_tiles`` assignments and both execution modes,
    scoring each with the final predicted-runtime formulas.  Exponential --
    guarded by ``max_tiles`` -- and used by the tests to bound how far the
    heuristics stray from the model-optimal partitioning.
    """
    n = tiled.n_tiles
    if n > max_tiles:
        raise ValueError(f"exhaustive search limited to {max_tiles} tiles, got {n}")
    arch = partitioner.arch
    modes = [ExecutionMode.PARALLEL]
    if not arch.atomic_updates:
        modes.append(ExecutionMode.SERIAL)

    # Bit-unpack every assignment at once: row ``b`` of ``A`` is the
    # assignment for bitmask ``b`` (bit i = tile i hot), in the same
    # ascending enumeration order as the scalar loop this replaces.
    n_assign = 1 << n
    A = (
        (np.arange(n_assign, dtype=np.int64)[:, None] >> np.arange(n, dtype=np.int64))
        & 1
    ).astype(bool)
    any_hot = A.any(axis=1)
    any_cold = (~A).any(axis=1)
    valid = np.ones(n_assign, dtype=bool)
    if arch.hot.count == 0:
        valid &= ~any_hot
    if arch.cold.count == 0:
        valid &= ~any_cold

    # Per-tile costs only depend on whether a tile is the first of its
    # type in its panel, so the cost table's two variants per worker type
    # cover every assignment.
    table = _cost_table(partitioner, tiled, n)

    # First-of-type masks for every assignment: tiles are panel-major, so
    # each panel is a contiguous column range and its first hot (cold)
    # tile is the range's first True (False) column.
    hot_first = np.zeros((n_assign, n), dtype=bool)
    cold_first = np.zeros((n_assign, n), dtype=bool)
    panels = tiled.stats.tile_row
    panel_starts = (
        np.flatnonzero(np.concatenate(([True], panels[1:] != panels[:-1])))
        if n
        else np.zeros(0, dtype=np.int64)
    )
    panel_ends = np.append(panel_starts[1:], n)
    rows_idx = np.arange(n_assign)
    for s, e in zip(panel_starts.tolist(), panel_ends.tolist()):
        sub = A[:, s:e]
        has = sub.any(axis=1)
        hot_first[rows_idx[has], s + sub.argmax(axis=1)[has]] = True
        sub = ~sub
        has = sub.any(axis=1)
        cold_first[rows_idx[has], s + sub.argmax(axis=1)[has]] = True

    def group_totals(first, chosen, side, count, active):
        time_tile, byte_tile = (
            np.where(first, table[f"{side}_first_{x}"], table[f"{side}_base_{x}"])
            for x in ("time", "bytes")
        )
        t = (time_tile * chosen).sum(axis=1) / max(count, 1)
        b = (byte_tile * chosen).sum(axis=1)
        return np.where(active, t, 0.0), np.where(active, b, 0.0), time_tile

    th_total, bh_total, hot_time_tile = group_totals(
        hot_first, A, "hot", arch.hot.count, any_hot
    )
    tc_total, bc_total, cold_time_tile = group_totals(
        cold_first, ~A, "cold", arch.cold.count, any_cold
    )

    # Scheduling-granularity floors for the contention-aware scorer;
    # None (unused) when the naive formulas apply.
    hot_floor = cold_floor = None
    if partitioner._contended():
        hot_floor = contention.granularity_floor_batch(
            hot_time_tile, A, tiled.stats.uniq_rids, panel_starts,
            traits=arch.hot.traits, n_instances=arch.hot.count,
            tile_height=arch.tile_height,
        )
        cold_floor = contention.granularity_floor_batch(
            cold_time_tile, ~A, tiled.stats.uniq_rids, panel_starts,
            traits=arch.cold.traits, n_instances=arch.cold.count,
            tile_height=arch.tile_height,
        )

    def batch_score(serial: bool, t_merge: np.ndarray) -> np.ndarray:
        if partitioner._contended():
            return contention.contended_runtime_batch(
                arch, th_total, tc_total, bh_total, bc_total, t_merge,
                serial, hot_floor=hot_floor, cold_floor=cold_floor,
            )
        return contention.naive_runtime_batch(
            arch, th_total, tc_total, bh_total, bc_total, t_merge, serial
        )

    scores = []
    for mode in modes:
        if mode is ExecutionMode.PARALLEL:
            t_merge = np.where(
                any_hot & any_cold, arch.merge_time_s(tiled.matrix.n_rows), 0.0
            )
            scores.append(batch_score(False, t_merge))
        else:
            scores.append(batch_score(True, np.zeros(n_assign)))
    # Flatten bit-major, mode-minor -- the scalar loop's evaluation order
    # -- so argmin's first-minimum rule reproduces its strict-< tie-break.
    score = np.stack(scores, axis=1)
    score[~valid, :] = np.inf
    flat = score.reshape(-1)
    k = int(np.argmin(flat))
    assert np.isfinite(flat[k])  # some assignment is always admissible
    assignment = A[k // len(modes)].copy()
    mode = modes[k % len(modes)]
    # Re-score the winner through the single-candidate path so the
    # returned time and totals are exactly what predicted_runtime reports.
    [result] = _score_table(
        partitioner, tiled, table, _capacities(partitioner, tiled.stats.uniq_rids),
        assignment, [("exhaustive", mode)],
    )
    return result


# ----------------------------------------------------------------------
# Incremental plan repair (streaming deltas)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCache:
    """A tiling's per-tile cost table, memoized across delta repairs.

    The analytical model is strictly per-tile: a tile's cost depends only
    on its own statistics, the matrix shape, and the worker traits, plus a
    binary "first of its type in the panel" flag.  The two variants
    (``base`` = maximum-reuse, ``first`` = first-of-type readjusted) for
    both worker types therefore capture *every* number the search can
    ever ask about a tile -- in the dirty-bitmask idiom of
    ``RateAllocator`` in :mod:`repro.sim.memory`.

    ``table`` holds the eight arrays of :func:`_cost_table`, keyed by
    ``_TABLE_NAMES``; ``tile_keys`` (sorted ``tile_row * n_panel_cols +
    tile_col``) aligns their rows with a tiling.  No plan is cached: a
    repair re-runs the whole search over the composed table.
    """

    tile_keys: np.ndarray
    table: Dict[str, np.ndarray]

    @property
    def n_tiles(self) -> int:
        return int(self.tile_keys.shape[0])


@dataclass(frozen=True)
class RepairStats:
    """How much of a repair was incremental."""

    n_tiles: int  #: tiles in the post-delta tiling
    tiles_repaired: int  #: tiles whose model costs were recomputed
    tiles_pinned: int  #: clean tiles served from the cached cost table
    new_tiles: int  #: tiles absent from the previous tiling
    dropped_tiles: int  #: previous tiles no longer present

    @property
    def repaired_fraction(self) -> float:
        return self.tiles_repaired / self.n_tiles if self.n_tiles else 0.0


@dataclass(frozen=True)
class RepairOutcome:
    """Everything a repair produces: plan, accounting, and the next cache."""

    result: HotTilesResult
    stats: RepairStats
    cache: PartitionCache


class _TileSubset:
    """Duck-typed tiling view over a subset of tiles.

    :meth:`AnalyticalModel.tile_costs` only touches ``stats``,
    ``tile_height`` / ``tile_width`` and ``matrix`` (shape), so a sliced
    stats block is enough to cost just the dirty tiles.
    """

    __slots__ = ("stats", "tile_height", "tile_width", "matrix")

    def __init__(self, tiled: TiledMatrix, idx: np.ndarray) -> None:
        s = tiled.stats
        self.stats = TileStats(
            tile_row=s.tile_row[idx],
            tile_col=s.tile_col[idx],
            nnz=s.nnz[idx],
            uniq_rids=s.uniq_rids[idx],
            uniq_cids=s.uniq_cids[idx],
        )
        self.tile_height = tiled.tile_height
        self.tile_width = tiled.tile_width
        self.matrix = tiled.matrix


def _cost_table(
    partitioner: HotTilesPartitioner, tiled_like, n: int
) -> Dict[str, np.ndarray]:
    """The eight per-tile cost arrays, keyed by ``_TABLE_NAMES``.

    Hot and cold, each modeled under maximum reuse (``base``) and as if
    every tile were the first of its type in its panel (``first``), time
    and bytes: four model calls over the ``n`` tiles of ``tiled_like``.
    This is the search's only model call site.
    """
    model, arch = partitioner.model, partitioner.arch
    all_first = np.ones(n, dtype=bool)
    table: Dict[str, np.ndarray] = {}
    for side, traits in (("hot", arch.hot.traits), ("cold", arch.cold.traits)):
        base = model.tile_costs(tiled_like, traits)
        first = model.tile_costs(tiled_like, traits, first_mask=all_first)
        table[f"{side}_base_time"] = base.time_s
        table[f"{side}_first_time"] = first.time_s
        table[f"{side}_base_bytes"] = base.bytes
        table[f"{side}_first_bytes"] = first.bytes
    return table


def _tile_keys(tiled: TiledMatrix) -> np.ndarray:
    """Sorted ``tile_row * n_panel_cols + tile_col`` of every tile."""
    npc = np.int64(max(tiled.n_panel_cols, 1))
    return (tiled.stats.tile_row * npc + tiled.stats.tile_col).astype(np.int64)


def plan_cache_from(
    partitioner: HotTilesPartitioner, tiled: TiledMatrix
) -> PartitionCache:
    """Seed a :class:`PartitionCache` for ``tiled``: four model calls, no search."""
    table = _cost_table(partitioner, tiled, tiled.n_tiles)
    return PartitionCache(_tile_keys(tiled), table)


def repair_plan(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    cache: PartitionCache,
    dirty_keys: np.ndarray,
) -> RepairOutcome:
    """Re-partition after a delta, re-running the model only on dirty tiles.

    ``tiled`` is the post-delta tiling and ``dirty_keys`` the sorted tile
    keys reported structurally dirty by
    :func:`repro.streaming.apply.apply_delta_tiled`.  The per-tile model
    evaluations are memoized: clean tiles are served from the cached cost
    table, only dirty tiles hit :class:`AnalyticalModel` again.  The
    composed table then goes through the same :func:`_search` as
    :meth:`HotTilesPartitioner.partition` -- so the repaired plan is
    bit-equal to from-scratch partitioning of the post-delta matrix
    (cached per-tile costs are bit-identical to recomputing them), while
    ``RepairStats.tiles_repaired`` counts only the model re-evaluations.
    The search, not the model, dominates: a full cost table is about a
    tenth of a from-scratch partition (docs/streaming.md).
    """
    n = tiled.n_tiles
    keys = _tile_keys(tiled)
    dirty_keys = np.asarray(dirty_keys, dtype=np.int64)

    pos = np.searchsorted(cache.tile_keys, keys)
    in_range = pos < cache.n_tiles
    known = np.zeros(n, dtype=bool)
    known[in_range] = cache.tile_keys[pos[in_range]] == keys[in_range]
    dirty = ~known | np.isin(keys, dirty_keys, assume_unique=True)

    clean_idx = np.flatnonzero(~dirty)
    dirty_idx = np.flatnonzero(dirty)

    # Compose the full cost table: cached rows for clean tiles, fresh model
    # evaluations for dirty ones only.
    table = {}
    for name in _TABLE_NAMES:
        table[name] = np.empty(n, dtype=np.float64)
        table[name][clean_idx] = cache.table[name][pos[clean_idx]]
    if dirty_idx.size:
        fresh = _cost_table(partitioner, _TileSubset(tiled, dirty_idx), dirty_idx.size)
        for name in _TABLE_NAMES:
            table[name][dirty_idx] = fresh[name]

    stats = RepairStats(
        n_tiles=n,
        tiles_repaired=int(dirty_idx.size),
        tiles_pinned=int(clean_idx.size),
        new_tiles=int((~known).sum()),
        dropped_tiles=int(cache.n_tiles - known.sum()),
    )
    return RepairOutcome(
        result=_search(partitioner, tiled, table),
        stats=stats,
        cache=PartitionCache(keys, table),
    )


#: One assignment's first-of-type readjusted per-tile arrays: hot time,
#: hot bytes, cold time, cold bytes.
_PerTile = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _compose(
    table: Dict[str, np.ndarray], hot_first: np.ndarray, cold_first: np.ndarray
) -> _PerTile:
    """Pick each tile's ``first`` or ``base`` variant by its first-of-type flag.

    The model works per tile, element by element, so this reproduces
    exactly what it returns for the same first-of-type masks.
    """
    return (
        np.where(hot_first, table["hot_first_time"], table["hot_base_time"]),
        np.where(hot_first, table["hot_first_bytes"], table["hot_base_bytes"]),
        np.where(cold_first, table["cold_first_time"], table["cold_base_time"]),
        np.where(cold_first, table["cold_first_bytes"], table["cold_base_bytes"]),
    )


def _capacities(
    partitioner: HotTilesPartitioner, uniq_rids: np.ndarray
) -> contention.UnitCapacities:
    """The tiles' :func:`~repro.core.contention.unit_capacities`; none
    when the naive scorer, which has no floors, applies."""
    if not partitioner._contended():
        return None, None
    return contention.unit_capacities(partitioner.arch, uniq_rids)


def _score_modes(
    partitioner: HotTilesPartitioner,
    assignment: np.ndarray,
    per_tile: _PerTile,
    capacity: contention.UnitCapacities,
    panels: np.ndarray,
    n_rows: int,
    modes: Sequence[ExecutionMode],
) -> List[Tuple[float, float, PredictedTotals]]:
    """``(scorer time, naive time, totals)`` of one assignment in each mode.

    The one scorer of every candidate.  Only ``t_merge`` and the serial
    flag depend on the mode, so the four group sums and the contention
    scorer's granularity floors are computed once for all ``modes``.
    ``capacity`` is :func:`_capacities` of the scored tiling, computed
    once per cost table by the caller.  Works on arrays alone, so split
    candidates -- whose expanded tilings exist only as arrays -- score
    through the same arithmetic.
    """
    arch = partitioner.arch
    ht, hb, ct, cb = per_tile
    cold = ~assignment
    any_hot = bool(assignment.any())
    any_cold = bool(cold.any())
    th_total = float(ht[assignment].sum()) / arch.hot.count if any_hot else 0.0
    tc_total = float(ct[cold].sum()) / arch.cold.count if any_cold else 0.0
    bh_total = float(hb[assignment].sum()) if any_hot else 0.0
    bc_total = float(cb[cold].sum()) if any_cold else 0.0
    floors = None
    if partitioner._contended():
        floors = contention.group_floors(arch, ht, ct, capacity, panels, assignment)
    scores = []
    for mode in modes:
        serial = mode is ExecutionMode.SERIAL
        t_merge = 0.0
        if not serial and any_hot and any_cold:
            t_merge = arch.merge_time_s(n_rows)
        totals = PredictedTotals(th_total, tc_total, bh_total, bc_total, t_merge)
        naive_s = contention.naive_runtime(arch, totals, serial)
        time_s = naive_s
        if floors is not None:
            time_s = contention.contended_runtime(
                arch, totals, serial, hot_floor=floors[0], cold_floor=floors[1]
            )
        scores.append((time_s, naive_s, totals))
    return scores


def _score_table(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
    capacity: contention.UnitCapacities,
    assignment: np.ndarray,
    labeled_modes: Sequence[Tuple[str, ExecutionMode]],
) -> List[PartitionResult]:
    """One candidate per ``(label, mode)`` for one assignment of ``tiled``.

    Bit-equal to :meth:`HotTilesPartitioner.predicted_runtime` in each
    mode: the table's variants, picked by the assignment's first-of-type
    masks, are exactly what the model returns for those masks.
    """
    panels = tiled.stats.tile_row
    per_tile = _compose(table, *_first_masks(panels, assignment))
    scores = _score_modes(
        partitioner, assignment, per_tile, capacity, panels,
        tiled.matrix.n_rows, [mode for _, mode in labeled_modes],
    )
    return [
        PartitionResult(
            label=label,
            assignment=assignment,
            mode=mode,
            predicted_time_s=time_s,
            totals=totals,
            naive_time_s=naive_s,
            scorer=partitioner.scorer,
        )
        for (label, mode), (time_s, naive_s, totals) in zip(labeled_modes, scores)
    ]


class _SplitPartsView:
    """Model view of the two row-blocks of one tile, for each of some cuts.

    ``cuts`` are hot prefix lengths; cut ``k``'s hot and cold row-blocks
    are view rows ``2k`` and ``2k + 1``, so one model call covers every
    cut.
    :meth:`AnalyticalModel.tile_costs` touches ``stats``, the tile
    dimensions, ``matrix`` (shape), and the effective heights -- which for
    sub-tiles are row-range extents carried in ``tile_eff_heights`` (see
    :func:`repro.core.reuse.effective_tile_heights`).  Unique id counts
    are computed from the tile's actual nonzeros, so the parts' costs are
    as honest as any whole tile's.
    """

    __slots__ = ("stats", "tile_height", "tile_width", "matrix", "tile_eff_heights")

    def __init__(self, tiled: TiledMatrix, tile: int, cuts: Sequence[int]) -> None:
        s = tiled.stats
        lo = int(tiled.tile_offsets[tile])
        hi = int(tiled.tile_offsets[tile + 1])
        rows, cols = tiled.rows[lo:hi], tiled.cols[lo:hi]
        panel = int(s.tile_row[tile])
        panel_start = panel * tiled.tile_height
        eff = min(tiled.tile_height, tiled.matrix.n_rows - panel_start)
        nnz, uniq_rids, uniq_cids, heights = [], [], [], []
        for hot_nnz in cuts:
            # Degenerate cuts must be rejected here, not just downstream:
            # with hot_nnz == 0 or == the tile's nnz, ``rows[hot_nnz]``
            # would read the *next* tile's first row -- or past the array
            # on the last tile -- and silently produce garbage part heights.
            if not 0 < hot_nnz < hi - lo:
                raise ValueError(
                    f"degenerate split of tile {tile}: hot_nnz must be in "
                    f"(0, {hi - lo}), got {hot_nnz}"
                )
            row_cut = int(rows[hot_nnz])
            nnz += [hot_nnz, hi - lo - hot_nnz]
            uniq_rids += [np.unique(rows[:hot_nnz]).size, np.unique(rows[hot_nnz:]).size]
            uniq_cids += [np.unique(cols[:hot_nnz]).size, np.unique(cols[hot_nnz:]).size]
            heights += [row_cut - panel_start, panel_start + eff - row_cut]
        self.stats = TileStats(
            tile_row=np.full(len(nnz), panel, dtype=s.tile_row.dtype),
            tile_col=np.full(len(nnz), s.tile_col[tile], dtype=s.tile_col.dtype),
            nnz=np.array(nnz, dtype=s.nnz.dtype),
            uniq_rids=np.array(uniq_rids, dtype=s.uniq_rids.dtype),
            uniq_cids=np.array(uniq_cids, dtype=s.uniq_cids.dtype),
        )
        self.tile_height = tiled.tile_height
        self.tile_width = tiled.tile_width
        self.matrix = tiled.matrix
        self.tile_eff_heights = np.array(heights, dtype=np.float64)


def _score_splits(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
    assignment: np.ndarray,
    tile: int,
    cuts: Sequence[int],
) -> List[PartitionResult]:
    """Exactly score splitting tile ``tile`` at each of ``cuts``.

    A split tiling is the original tiling with tile ``tile`` replaced by
    its two row-blocks: the hot prefix at ``tile``, the cold suffix at
    ``tile + 1``.  Every cut shares that expanded tiling's panels,
    assignment and first-of-type masks, and every composed row except the
    two parts', so those are built once.  One cost table models all cuts'
    parts; each cut patches its two rows and is scored in both execution
    modes (parallel only on atomic machines), keeping the better.
    """
    arch = partitioner.arch
    view = _SplitPartsView(tiled, tile, cuts)  # rejects degenerate cuts
    parts = _cost_table(partitioner, view, view.stats.n_tiles)
    s = tiled.stats
    ext_panels = np.insert(s.tile_row, tile, s.tile_row[tile])
    ext_capacity = _capacities(partitioner, np.insert(s.uniq_rids, tile, s.uniq_rids[tile]))
    part_capacity = _capacities(partitioner, view.stats.uniq_rids)
    ext_assignment = np.concatenate(
        [assignment[:tile], [True, False], assignment[tile + 1 :]]
    )
    hot_first, cold_first = _first_masks(ext_panels, ext_assignment)
    ext_table = {name: np.insert(col, tile, col[tile]) for name, col in table.items()}
    per_tile = _compose(ext_table, hot_first, cold_first)
    pair = slice(tile, tile + 2)
    modes = [ExecutionMode.PARALLEL]
    if not arch.atomic_updates:
        modes.append(ExecutionMode.SERIAL)
    lo = int(tiled.tile_offsets[tile])
    nnz_j = int(tiled.tile_offsets[tile + 1]) - lo
    final_assignment = assignment.copy()
    final_assignment[tile] = True
    results = []
    for k, hot_nnz in enumerate(cuts):
        rows = slice(2 * k, 2 * k + 2)
        part_table = {name: col[rows] for name, col in parts.items()}
        for arr, part in zip(per_tile, _compose(part_table, hot_first[pair], cold_first[pair])):
            arr[pair] = part
        for ext, part in zip(ext_capacity, part_capacity):
            if ext is not None:
                ext[pair] = part[rows]
        scores = _score_modes(
            partitioner, ext_assignment, per_tile, ext_capacity, ext_panels,
            tiled.matrix.n_rows, modes,
        )
        # min keeps the first of tied times: parallel unless serial is
        # strictly faster.
        best = min(range(len(modes)), key=lambda i: scores[i][0])
        time_s, naive_s, totals = scores[best]
        results.append(PartitionResult(
            label=Heuristic.BLOCK_SPLIT.value,
            assignment=final_assignment,
            mode=modes[best],
            predicted_time_s=time_s,
            totals=totals,
            naive_time_s=naive_s,
            scorer=partitioner.scorer,
            split=TileSplit(
                tile=tile,
                hot_nnz=hot_nnz,
                cold_nnz=nnz_j - hot_nnz,
                row_cut=int(tiled.rows[lo + hot_nnz]),
            ),
        ))
    return results


def _block_split_candidate(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
    base: PartitionResult,
) -> PartitionResult:
    """The fifth candidate: refine ``base`` by splitting its dominating tile.

    When one worker group's time term dominates the predicted makespan,
    the whole-tile heuristics have hit their granularity floor: no whole
    tile can move without overshooting.  This refinement picks the
    dominating group's most expensive tile, solves the continuous
    load-balance relaxation for how many of its nonzeros to hand to the
    other group, quantizes to the nearest row boundaries (plus quartile
    fallbacks -- the balance point may lie outside the tile), and scores
    each row-aligned cut exactly.  The best strictly-improving cut wins;
    otherwise ``base`` is returned relabeled, so this candidate never
    scores worse than the best whole-tile heuristic.
    """
    fallback = PartitionResult(
        label=Heuristic.BLOCK_SPLIT.value,
        assignment=base.assignment,
        mode=base.mode,
        predicted_time_s=base.predicted_time_s,
        totals=base.totals,
        split=None,
        naive_time_s=base.naive_time_s,
        scorer=base.scorer,
    )
    assignment = np.asarray(base.assignment, dtype=bool)
    totals = base.totals
    donor_is_hot = totals.th_total >= totals.tc_total
    donor_idx = np.flatnonzero(assignment if donor_is_hot else ~assignment)
    if donor_idx.size == 0:
        return fallback
    donor_time = table["hot_base_time" if donor_is_hot else "cold_base_time"]
    tile = int(donor_idx[np.argmax(donor_time[donor_idx])])
    lo = int(tiled.tile_offsets[tile])
    hi = int(tiled.tile_offsets[tile + 1])
    nnz_j = hi - lo
    if nnz_j < 2:
        return fallback
    tile_rows = tiled.rows[lo:hi]
    # Row-aligned cut positions: prefix lengths ending exactly on a row
    # boundary (nonzeros are row-major within a tile).
    bounds = np.flatnonzero(np.diff(tile_rows)) + 1
    if bounds.size == 0:
        return fallback  # single-row tile: nothing row-aligned to cut

    # Continuous relaxation: moving k nonzeros from the donor group to the
    # recipient shrinks the donor's time term at the tile's donor-side
    # per-nnz rate and grows the recipient's at its own rate; balance at
    # th(k) == tc(k).
    n_hw, n_cw = partitioner.arch.hot.count, partitioner.arch.cold.count
    hot_rate = float(table["hot_base_time"][tile]) / nnz_j / n_hw
    cold_rate = float(table["cold_base_time"][tile]) / nnz_j / n_cw
    denom = hot_rate + cold_rate
    k_star = abs(totals.th_total - totals.tc_total) / denom if denom > 0.0 else 0.0
    moved = min(max(k_star, 1.0), float(nnz_j - 1))
    target = (nnz_j - moved) if donor_is_hot else moved  # prefix (hot) size

    probes = set()
    pos = int(np.searchsorted(bounds, target))
    for p in (pos - 1, pos):
        if 0 <= p < bounds.size:
            probes.add(int(bounds[p]))
    for q in (0.25, 0.5, 0.75):
        probes.add(int(bounds[min(bounds.size - 1, int(q * bounds.size))]))
    # Row-boundary probes are interior by construction; reject degenerate
    # cuts explicitly anyway so no probe can ever read past the tile.
    probes = {cut for cut in probes if 0 < cut < nnz_j}

    best: Optional[PartitionResult] = None
    for result in _score_splits(partitioner, tiled, table, assignment, tile, sorted(probes)):
        if best is None or result.predicted_time_s < best.predicted_time_s:
            best = result
    # The comparison runs under the partitioner's active scorer (both
    # sides were scored by it), so a split must strictly improve the
    # contention-aware prediction -- not the naive one -- to be chosen.
    if best is not None and best.predicted_time_s < base.predicted_time_s:
        return best
    return fallback


def _prefix(values: np.ndarray) -> np.ndarray:
    """``out[k]`` = sum of the first ``k`` values, for k = 0..n."""
    out = np.zeros(values.shape[0] + 1, dtype=np.float64)
    np.cumsum(values, out=out[1:])
    return out


def _suffix(values: np.ndarray) -> np.ndarray:
    """``out[k]`` = sum of values from index ``k`` on, for k = 0..n."""
    total = values.sum()
    return total - _prefix(values)


def _cutoff_sweep(objective: np.ndarray) -> int:
    """The paper's cutoff-index placement: a hill-climb (Sec. V-B).

    ``objective[k]`` is the subproblem objective with the first ``k``
    sorted tiles hot.  Starting from 0, the cutoff moves right as long as
    the objective strictly decreases and rolls back on the first
    non-improving move.  The first local minimum is the global one (over
    cutoffs) when the objective falls, then rises: for MinTime Parallel
    (a rising hot prefix against a falling cold suffix) and for both
    MinByte objectives (whose increments ``bh_i - bc_i`` are the sort
    key).  MinTime Serial's increments are ``th_i / N_hw - tc_i / N_cw``
    while its sort key is ``th_i - tc_i``, so with ``N_hw != N_cw`` it can
    stop early: two tiles with ``th = (100, 120)``, ``tc = (20, 40)``,
    ``N_hw = 4`` and ``N_cw = 1`` give ``[60, 65, 55]``, and the sweep
    stays at 0.  Plans follow the paper's rule, so the sort key stays.
    """
    cutoff = 0
    for k in range(1, objective.shape[0]):
        if objective[k] < objective[cutoff]:
            cutoff = k
        else:
            break
    return cutoff
