"""Frozen pre-refactor partitioner: the oracle for ``repro.core.partition``.

Kept verbatim (only this docstring is new, and its two
``contention.group_floors`` calls pass ``unit_capacities(arch,
uniq_rids)`` where they passed ``uniq_rids``) so
``test_partition_differential.py`` can require the one-search
partitioner -- ``partition``, ``repair_plan`` and ``exhaustive_partition``
over one per-tile cost table -- to return exactly what this version
returned, where ``partition`` re-ran the model with each candidate's
first-of-type masks and ``repair_plan`` kept its own copy of the sweeps.
Imported only by tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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

#: The four cutoff-sweep heuristics; ``BLOCK_SPLIT`` has no fixed mode --
#: it refines whichever whole-tile candidate scored best.
_SWEEP_HEURISTICS = [h for h in Heuristic if h in _HEURISTIC_MODE]

#: The eight per-tile cost arrays (hot/cold x base/first x time/bytes) in
#: the order :func:`_cost_table` produces them.
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

    Used directly when scoring split candidates, whose expanded tilings
    exist only as arrays (the split tile contributes two entries sharing
    one panel id).
    """
    n = panels.shape[0]
    hot_first = np.zeros(n, dtype=bool)
    cold_first = np.zeros(n, dtype=bool)
    for mask, out in ((assignment, hot_first), (~assignment, cold_first)):
        idx = np.flatnonzero(mask)
        if idx.size:
            _, first = np.unique(panels[idx], return_index=True)
            out[idx[first]] = True
    return hot_first, cold_first


class HotTilesPartitioner:
    """Runs the HotTiles modeling + partitioning pipeline for one machine.

    ``cache_aware`` enables the Sec. X model extension (see
    :class:`~repro.core.model.AnalyticalModel`).  ``contention_aware``
    selects the :mod:`repro.core.contention` evaluator for the final
    runtime formulas (default); it only changes scores on architectures
    with a PCIe link -- without one it is bit-identical to the naive
    Fig. 8 forms, which remain available with ``contention_aware=False``.
    """

    def __init__(
        self,
        arch: Architecture,
        cache_aware: bool = False,
        contention_aware: bool = True,
    ) -> None:
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
        """Maximum-reuse per-tile costs ``(hot, cold)`` (partitioning input)."""
        hot = self.model.tile_costs(tiled, self.arch.hot.traits)
        cold = self.model.tile_costs(tiled, self.arch.cold.traits)
        return hot, cold

    def partition(self, tiled: TiledMatrix) -> HotTilesResult:
        """Run all applicable heuristics and keep the best candidate.

        With zero workers of one type the partitioning degenerates to the
        corresponding homogeneous assignment.
        """
        n = tiled.n_tiles
        if self.arch.hot.count == 0 or self.arch.cold.count == 0:
            all_hot = self.arch.cold.count == 0
            assignment = np.full(n, all_hot, dtype=bool)
            result = self._score(tiled, assignment, ExecutionMode.PARALLEL, "homogeneous")
            return HotTilesResult(chosen=result, candidates={})

        hot_costs, cold_costs = self.tile_costs(tiled)
        heuristics = _SWEEP_HEURISTICS
        if self.arch.atomic_updates:
            # No output buffers to merge: serial operation can never win
            # under the model (Sec. V-B), so only Parallel heuristics run.
            heuristics = [Heuristic.MIN_TIME_PARALLEL, Heuristic.MIN_BYTE_PARALLEL]

        candidates: Dict[Heuristic, PartitionResult] = {}
        for heuristic in heuristics:
            assignment = self._heuristic_assignment(heuristic, hot_costs, cold_costs)
            candidates[heuristic] = self._score(
                tiled, assignment, _HEURISTIC_MODE[heuristic], heuristic.value
            )
        base = min(candidates.values(), key=lambda r: r.predicted_time_s)
        table = dict(
            zip(_TABLE_NAMES, _cost_table(self, tiled, n, base=(hot_costs, cold_costs)))
        )
        candidates[Heuristic.BLOCK_SPLIT] = _block_split_candidate(
            self, tiled, table, base
        )
        # min keeps the first of tied values, and the whole-tile heuristics
        # precede BLOCK_SPLIT: the split is chosen only when strictly better.
        chosen = min(candidates.values(), key=lambda r: r.predicted_time_s)
        return HotTilesResult(chosen=chosen, candidates=candidates)

    # ------------------------------------------------------------------
    def _heuristic_assignment(
        self, heuristic: Heuristic, hot_costs: TileCosts, cold_costs: TileCosts
    ) -> np.ndarray:
        n_hw, n_cw = self.arch.hot.count, self.arch.cold.count
        if heuristic in (Heuristic.MIN_TIME_PARALLEL, Heuristic.MIN_TIME_SERIAL):
            order = np.argsort(hot_costs.time_s - cold_costs.time_s, kind="stable")
            prefix_hot = _prefix(hot_costs.time_s[order] / n_hw)
            suffix_cold = _suffix(cold_costs.time_s[order] / n_cw)
            if heuristic is Heuristic.MIN_TIME_PARALLEL:
                objective = np.maximum(prefix_hot, suffix_cold)
            else:
                objective = prefix_hot + suffix_cold
        else:
            order = np.argsort(hot_costs.bytes - cold_costs.bytes, kind="stable")
            objective = _prefix(hot_costs.bytes[order]) + _suffix(cold_costs.bytes[order])
        cutoff = _cutoff_sweep(objective)
        assignment = np.zeros(hot_costs.n_tiles, dtype=bool)
        assignment[order[:cutoff]] = True
        return assignment

    def _score(
        self,
        tiled: TiledMatrix,
        assignment: np.ndarray,
        mode: ExecutionMode,
        label: str,
    ) -> PartitionResult:
        time_s, naive_s, totals = self._predicted(tiled, assignment, mode)
        return PartitionResult(
            label=label,
            assignment=assignment,
            mode=mode,
            predicted_time_s=time_s,
            totals=totals,
            naive_time_s=naive_s,
            scorer=self.scorer,
        )

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
        """
        time_s, _naive, totals = self._predicted(tiled, assignment, mode)
        return time_s, totals

    def _predicted(
        self,
        tiled: TiledMatrix,
        assignment: np.ndarray,
        mode: ExecutionMode,
    ) -> Tuple[float, float, PredictedTotals]:
        """``(scorer time, naive time, totals)`` for one assignment."""
        assignment = np.asarray(assignment, dtype=bool)
        totals, hot_times, cold_times = self._totals_with_times(
            tiled, assignment, mode
        )
        naive_s = contention.naive_runtime(
            self.arch, totals, mode is ExecutionMode.SERIAL
        )
        if not self._contended():
            return naive_s, naive_s, totals
        hot_floor, cold_floor = contention.group_floors(
            self.arch, hot_times, cold_times,
            contention.unit_capacities(self.arch, tiled.stats.uniq_rids),
            tiled.stats.tile_row, assignment,
        )
        time_s = contention.contended_runtime(
            self.arch, totals, mode is ExecutionMode.SERIAL,
            hot_floor=hot_floor, cold_floor=cold_floor,
        )
        return time_s, naive_s, totals

    def predict_homogeneous(self, tiled: TiledMatrix, kind: WorkerKind) -> float:
        """Predicted runtime of a homogeneous execution (Fig. 17 baselines)."""
        assignment = np.full(tiled.n_tiles, kind is WorkerKind.HOT, dtype=bool)
        time_s, _ = self.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        return time_s

    def _totals(
        self, tiled: TiledMatrix, assignment: np.ndarray, mode: ExecutionMode
    ) -> PredictedTotals:
        totals, _, _ = self._totals_with_times(tiled, assignment, mode)
        return totals

    def _totals_with_times(
        self, tiled: TiledMatrix, assignment: np.ndarray, mode: ExecutionMode
    ) -> Tuple[PredictedTotals, np.ndarray, np.ndarray]:
        """Totals plus the per-tile readjusted time arrays behind them."""
        hot_first, cold_first = first_of_type_masks(tiled, assignment)
        hot_adj = self.model.tile_costs(tiled, self.arch.hot.traits, first_mask=hot_first)
        cold_adj = self.model.tile_costs(tiled, self.arch.cold.traits, first_mask=cold_first)
        any_hot = bool(assignment.any())
        any_cold = bool((~assignment).any())
        th_total = hot_adj.total_time(assignment) / self.arch.hot.count if any_hot else 0.0
        tc_total = cold_adj.total_time(~assignment) / self.arch.cold.count if any_cold else 0.0
        bh_total = hot_adj.total_bytes(assignment) if any_hot else 0.0
        bc_total = cold_adj.total_bytes(~assignment) if any_cold else 0.0
        t_merge = 0.0
        if mode is ExecutionMode.PARALLEL and any_hot and any_cold:
            t_merge = self.arch.merge_time_s(tiled.matrix.n_rows)
        totals = PredictedTotals(
            th_total=th_total,
            tc_total=tc_total,
            bh_total=bh_total,
            bc_total=bc_total,
            t_merge=t_merge,
        )
        return totals, hot_adj.time_s, cold_adj.time_s


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
    # type in its panel, so two model evaluations per worker type (first
    # vs not-first) cover every assignment.
    model = partitioner.model
    all_first = np.ones(n, dtype=bool)
    h_base = model.tile_costs(tiled, arch.hot.traits)
    h_full = model.tile_costs(tiled, arch.hot.traits, first_mask=all_first)
    c_base = model.tile_costs(tiled, arch.cold.traits)
    c_full = model.tile_costs(tiled, arch.cold.traits, first_mask=all_first)

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

    def group_totals(first, chosen, base, full, count, active):
        time_tile = np.where(first, full.time_s[None, :], base.time_s[None, :])
        byte_tile = np.where(first, full.bytes[None, :], base.bytes[None, :])
        t = (time_tile * chosen).sum(axis=1) / max(count, 1)
        b = (byte_tile * chosen).sum(axis=1)
        return np.where(active, t, 0.0), np.where(active, b, 0.0), time_tile

    th_total, bh_total, hot_time_tile = group_totals(
        hot_first, A, h_base, h_full, arch.hot.count, any_hot
    )
    tc_total, bc_total, cold_time_tile = group_totals(
        cold_first, ~A, c_base, c_full, arch.cold.count, any_cold
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
    # Re-score the winner through the scalar path so the returned time and
    # totals are exactly what predicted_runtime reports for it.
    time_s, naive_s, totals = partitioner._predicted(tiled, assignment, mode)
    return PartitionResult(
        label="exhaustive",
        assignment=assignment,
        mode=mode,
        predicted_time_s=time_s,
        totals=totals,
        naive_time_s=naive_s,
        scorer=partitioner.scorer,
    )


def _runtime_from_totals(
    arch: Architecture, totals: PredictedTotals, mode: ExecutionMode
) -> float:
    """The naive Fig. 8 final-runtime formulas over readjusted totals.

    Kept as the documented fallback scorer; the contention-aware default
    lives in :func:`repro.core.contention.contended_runtime`.
    """
    return contention.naive_runtime(arch, totals, mode is ExecutionMode.SERIAL)


# ----------------------------------------------------------------------
# Incremental plan repair (streaming deltas)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCache:
    """Per-tile model evaluations memoized across delta repairs.

    The analytical model is strictly per-tile: a tile's cost depends only
    on its own statistics, the matrix shape, and the worker traits, plus a
    binary "first of its type in the panel" flag.  Caching the two variants
    (``base`` = maximum-reuse, ``first`` = first-of-type readjusted) for
    both worker types therefore captures *every* number the partitioner can
    ever ask about a tile -- the same trick ``exhaustive_partition`` uses,
    and the dirty-bitmask idiom of ``RateAllocator`` in
    :mod:`repro.sim.memory`.

    ``tile_keys`` (sorted ``tile_row * n_panel_cols + tile_col``) aligns
    the arrays with a tiling; ``assignment`` records the hot/cold split
    chosen for those keys, for downstream consumers that want the previous
    plan without re-deriving it.
    """

    tile_keys: np.ndarray
    hot_base_time: np.ndarray
    hot_first_time: np.ndarray
    hot_base_bytes: np.ndarray
    hot_first_bytes: np.ndarray
    cold_base_time: np.ndarray
    cold_first_time: np.ndarray
    cold_base_bytes: np.ndarray
    cold_first_bytes: np.ndarray
    assignment: np.ndarray

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
    partitioner: HotTilesPartitioner,
    tiled_like,
    n: int,
    base: Optional[Tuple[TileCosts, TileCosts]] = None,
) -> Tuple[np.ndarray, ...]:
    """The eight per-tile cost arrays (hot/cold x base/first x time/bytes).

    ``base`` passes in already-computed maximum-reuse ``(hot, cold)``
    costs (the sweep input) so callers that have them pay only the two
    first-of-type model evaluations.
    """
    model, arch = partitioner.model, partitioner.arch
    all_first = np.ones(n, dtype=bool)
    if base is None:
        hb = model.tile_costs(tiled_like, arch.hot.traits)
        cb = model.tile_costs(tiled_like, arch.cold.traits)
    else:
        hb, cb = base
    hf = model.tile_costs(tiled_like, arch.hot.traits, first_mask=all_first)
    cf = model.tile_costs(tiled_like, arch.cold.traits, first_mask=all_first)
    return (
        hb.time_s, hf.time_s, hb.bytes, hf.bytes,
        cb.time_s, cf.time_s, cb.bytes, cf.bytes,
    )


def plan_cache_from(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    result: Optional[HotTilesResult] = None,
) -> PartitionCache:
    """Seed a :class:`PartitionCache` from a full partitioning.

    Runs :meth:`HotTilesPartitioner.partition` when ``result`` is omitted.
    """
    if result is None:
        result = partitioner.partition(tiled)
    npc = np.int64(max(tiled.n_panel_cols, 1))
    keys = (tiled.stats.tile_row * npc + tiled.stats.tile_col).astype(np.int64)
    table = _cost_table(partitioner, tiled, tiled.n_tiles)
    return PartitionCache(
        keys,
        *table,
        assignment=np.asarray(result.chosen.assignment, dtype=bool).copy(),
    )


def repair_plan(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    cache: PartitionCache,
    dirty_keys: np.ndarray,
) -> RepairOutcome:
    """Re-partition after a delta, re-running the model only on dirty tiles.

    ``tiled`` is the post-delta tiling and ``dirty_keys`` the sorted tile
    keys reported structurally dirty by
    :func:`repro.streaming.apply.apply_delta_tiled`.  The expensive step
    of planning is the per-tile model evaluation, and that is what gets
    memoized: clean tiles are served from the cached base/first cost
    variants, only dirty tiles hit :class:`AnalyticalModel` again.  The
    cheap ``N log N`` cutoff sweep then runs globally over the composed
    cost table, and candidates are scored with the exact final-runtime
    formulas -- so the repaired plan is bit-equal to from-scratch
    :meth:`HotTilesPartitioner.partition` on the post-delta matrix (cached
    per-tile costs are bit-identical to recomputing them), while
    ``RepairStats.tiles_repaired`` counts only the model re-evaluations.
    """
    arch = partitioner.arch
    n = tiled.n_tiles
    npc = np.int64(max(tiled.n_panel_cols, 1))
    keys = (tiled.stats.tile_row * npc + tiled.stats.tile_col).astype(np.int64)
    dirty_keys = np.asarray(dirty_keys, dtype=np.int64)

    pos = np.searchsorted(cache.tile_keys, keys)
    in_range = pos < cache.n_tiles
    known = np.zeros(n, dtype=bool)
    known[in_range] = cache.tile_keys[pos[in_range]] == keys[in_range]
    dirty = ~known | np.isin(keys, dirty_keys, assume_unique=True)

    clean_idx = np.flatnonzero(~dirty)
    dirty_idx = np.flatnonzero(dirty)
    src = pos[clean_idx]

    # Compose the full cost table: cached rows for clean tiles, fresh model
    # evaluations for dirty ones only.
    names = _TABLE_NAMES
    table = {name: np.empty(n, dtype=np.float64) for name in names}
    for name in names:
        table[name][clean_idx] = getattr(cache, name)[src]
    if dirty_idx.size:
        fresh = _cost_table(partitioner, _TileSubset(tiled, dirty_idx), dirty_idx.size)
        for name, arr in zip(names, fresh):
            table[name][dirty_idx] = arr

    stats = RepairStats(
        n_tiles=n,
        tiles_repaired=int(dirty_idx.size),
        tiles_pinned=int(clean_idx.size),
        new_tiles=int((~known).sum()),
        dropped_tiles=int(cache.n_tiles - known.sum()),
    )

    def _finish(result: HotTilesResult) -> RepairOutcome:
        new_cache = PartitionCache(
            keys,
            *(table[name] for name in names),
            assignment=result.chosen.assignment.copy(),
        )
        return RepairOutcome(result=result, stats=stats, cache=new_cache)

    if arch.hot.count == 0 or arch.cold.count == 0:
        assignment = np.full(n, arch.cold.count == 0, dtype=bool)
        chosen = _score_from_table(
            partitioner, tiled, table, assignment, ExecutionMode.PARALLEL, "homogeneous"
        )
        return _finish(HotTilesResult(chosen=chosen, candidates={}))

    n_hw, n_cw = arch.hot.count, arch.cold.count
    heuristics = _SWEEP_HEURISTICS
    if arch.atomic_updates:
        heuristics = [Heuristic.MIN_TIME_PARALLEL, Heuristic.MIN_BYTE_PARALLEL]

    h_time = table["hot_base_time"]
    c_time = table["cold_base_time"]
    h_bytes = table["hot_base_bytes"]
    c_bytes = table["cold_base_bytes"]

    # Mirror _heuristic_assignment over the composed table: the sweep is
    # O(n log n) in plain numpy and does not touch the model, so running
    # it globally keeps the repair exact at negligible cost.
    candidates: Dict[Heuristic, PartitionResult] = {}
    for heuristic in heuristics:
        if heuristic in (Heuristic.MIN_TIME_PARALLEL, Heuristic.MIN_TIME_SERIAL):
            order = np.argsort(h_time - c_time, kind="stable")
            prefix_hot = _prefix(h_time[order] / n_hw)
            suffix_cold = _suffix(c_time[order] / n_cw)
            if heuristic is Heuristic.MIN_TIME_PARALLEL:
                objective = np.maximum(prefix_hot, suffix_cold)
            else:
                objective = prefix_hot + suffix_cold
        else:
            order = np.argsort(h_bytes - c_bytes, kind="stable")
            objective = _prefix(h_bytes[order]) + _suffix(c_bytes[order])
        cutoff = _cutoff_sweep(objective)
        assignment = np.zeros(n, dtype=bool)
        assignment[order[:cutoff]] = True
        candidates[heuristic] = _score_from_table(
            partitioner, tiled, table, assignment,
            _HEURISTIC_MODE[heuristic], heuristic.value,
        )
    base = min(candidates.values(), key=lambda r: r.predicted_time_s)
    # Same split refinement as partition(), over the same table values
    # (cached rows are bit-identical to fresh ones), so the repaired
    # result stays bit-equal to a from-scratch partition.
    candidates[Heuristic.BLOCK_SPLIT] = _block_split_candidate(
        partitioner, tiled, table, base
    )
    chosen = min(candidates.values(), key=lambda r: r.predicted_time_s)
    return _finish(HotTilesResult(chosen=chosen, candidates=candidates))


def _score_from_table(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
    assignment: np.ndarray,
    mode: ExecutionMode,
    label: str,
) -> PartitionResult:
    """Score an assignment from the cached cost table.

    Bit-equal to :meth:`HotTilesPartitioner._score`: composing the cached
    ``base``/``first`` variants per tile reproduces exactly what the model
    returns for the assignment-derived first-of-type mask.
    """
    arch = partitioner.arch
    totals, hot_times, cold_times = _table_totals_with_times(
        arch, table, tiled.stats.tile_row, assignment, mode, tiled.matrix.n_rows
    )
    time_s, naive_s = _evaluate_totals(
        partitioner, totals, mode, hot_times, cold_times,
        tiled.stats.uniq_rids, tiled.stats.tile_row, assignment,
    )
    return PartitionResult(
        label=label,
        assignment=assignment,
        mode=mode,
        predicted_time_s=time_s,
        totals=totals,
        naive_time_s=naive_s,
        scorer=partitioner.scorer,
    )


def _evaluate_totals(
    partitioner: HotTilesPartitioner,
    totals: PredictedTotals,
    mode: ExecutionMode,
    hot_times: np.ndarray,
    cold_times: np.ndarray,
    uniq_rids: np.ndarray,
    panels: np.ndarray,
    assignment: np.ndarray,
) -> Tuple[float, float]:
    """``(scorer time, naive time)`` for totals backed by per-tile arrays."""
    arch = partitioner.arch
    serial = mode is ExecutionMode.SERIAL
    naive_s = contention.naive_runtime(arch, totals, serial)
    if not partitioner._contended():
        return naive_s, naive_s
    hot_floor, cold_floor = contention.group_floors(
        arch, hot_times, cold_times, contention.unit_capacities(arch, uniq_rids),
        panels, assignment,
    )
    time_s = contention.contended_runtime(
        arch, totals, serial, hot_floor=hot_floor, cold_floor=cold_floor
    )
    return time_s, naive_s


def _table_totals(
    arch: Architecture,
    table: Dict[str, np.ndarray],
    panels: np.ndarray,
    assignment: np.ndarray,
    mode: ExecutionMode,
    n_rows: int,
) -> PredictedTotals:
    totals, _, _ = _table_totals_with_times(
        arch, table, panels, assignment, mode, n_rows
    )
    return totals


def _table_totals_with_times(
    arch: Architecture,
    table: Dict[str, np.ndarray],
    panels: np.ndarray,
    assignment: np.ndarray,
    mode: ExecutionMode,
    n_rows: int,
) -> Tuple[PredictedTotals, np.ndarray, np.ndarray]:
    """Readjusted totals for an assignment over an explicit cost table.

    Works on arrays alone (no tiling object) so split candidates -- whose
    expanded tilings exist only as arrays -- score through the exact same
    arithmetic as whole-tile candidates.  Also returns the composed
    per-tile hot/cold time arrays, which the contention scorer's
    granularity floors consume.
    """
    hot_first, cold_first = _first_masks(panels, assignment)
    ht = np.where(hot_first, table["hot_first_time"], table["hot_base_time"])
    hb = np.where(hot_first, table["hot_first_bytes"], table["hot_base_bytes"])
    ct = np.where(cold_first, table["cold_first_time"], table["cold_base_time"])
    cb = np.where(cold_first, table["cold_first_bytes"], table["cold_base_bytes"])
    any_hot = bool(assignment.any())
    any_cold = bool((~assignment).any())
    th_total = float(ht[assignment].sum()) / arch.hot.count if any_hot else 0.0
    tc_total = float(ct[~assignment].sum()) / arch.cold.count if any_cold else 0.0
    bh_total = float(hb[assignment].sum()) if any_hot else 0.0
    bc_total = float(cb[~assignment].sum()) if any_cold else 0.0
    t_merge = 0.0
    if mode is ExecutionMode.PARALLEL and any_hot and any_cold:
        t_merge = arch.merge_time_s(n_rows)
    totals = PredictedTotals(
        th_total=th_total,
        tc_total=tc_total,
        bh_total=bh_total,
        bc_total=bc_total,
        t_merge=t_merge,
    )
    return totals, ht, ct


class _SplitPartsView:
    """Model view of the two row-blocks of one split tile.

    :meth:`AnalyticalModel.tile_costs` touches ``stats``, the tile
    dimensions, ``matrix`` (shape), and the effective heights -- which for
    sub-tiles are row-range extents carried in ``tile_eff_heights`` (see
    :func:`repro.core.reuse.effective_tile_heights`).  Unique id counts
    are computed from the tile's actual nonzeros, so the parts' costs are
    as honest as any whole tile's.
    """

    __slots__ = ("stats", "tile_height", "tile_width", "matrix", "tile_eff_heights")

    def __init__(self, tiled: TiledMatrix, tile: int, hot_nnz: int) -> None:
        s = tiled.stats
        lo = int(tiled.tile_offsets[tile])
        hi = int(tiled.tile_offsets[tile + 1])
        # Degenerate cuts must be rejected here, not just downstream:
        # with hot_nnz == 0 or == the tile's nnz, ``tiled.rows[lo + hot_nnz]``
        # would read the *next* tile's first row -- or past the array on
        # the last tile -- and silently produce garbage part heights.
        if not 0 < hot_nnz < hi - lo:
            raise ValueError(
                f"degenerate split of tile {tile}: hot_nnz must be in "
                f"(0, {hi - lo}), got {hot_nnz}"
            )
        cut = lo + hot_nnz
        rows_a, rows_b = tiled.rows[lo:cut], tiled.rows[cut:hi]
        cols_a, cols_b = tiled.cols[lo:cut], tiled.cols[cut:hi]
        panel = int(s.tile_row[tile])
        self.stats = TileStats(
            tile_row=np.array([panel, panel], dtype=s.tile_row.dtype),
            tile_col=np.array([s.tile_col[tile]] * 2, dtype=s.tile_col.dtype),
            nnz=np.array([hot_nnz, hi - lo - hot_nnz], dtype=s.nnz.dtype),
            uniq_rids=np.array(
                [np.unique(rows_a).size, np.unique(rows_b).size], dtype=s.uniq_rids.dtype
            ),
            uniq_cids=np.array(
                [np.unique(cols_a).size, np.unique(cols_b).size], dtype=s.uniq_cids.dtype
            ),
        )
        self.tile_height = tiled.tile_height
        self.tile_width = tiled.tile_width
        self.matrix = tiled.matrix
        panel_start = panel * tiled.tile_height
        eff = min(tiled.tile_height, tiled.matrix.n_rows - panel_start)
        row_cut = int(tiled.rows[cut])
        self.tile_eff_heights = np.array(
            [row_cut - panel_start, panel_start + eff - row_cut], dtype=np.float64
        )


def _score_split(
    partitioner: HotTilesPartitioner,
    tiled: TiledMatrix,
    table: Dict[str, np.ndarray],
    assignment: np.ndarray,
    tile: int,
    hot_nnz: int,
) -> PartitionResult:
    """Exactly score one split candidate with the final-runtime formulas.

    The split tiling is the original tiling with tile ``tile`` replaced by
    its two row-blocks (prefix hot, suffix cold); its cost table is the
    whole-tile table with that row replaced by two freshly modeled rows.
    Both execution modes are scored (parallel only on atomic machines) and
    the better one kept.
    """
    arch = partitioner.arch
    lo = int(tiled.tile_offsets[tile])
    hi = int(tiled.tile_offsets[tile + 1])
    view = _SplitPartsView(tiled, tile, hot_nnz)  # rejects degenerate cuts
    fresh = _cost_table(partitioner, view, 2)
    ext = {
        name: np.concatenate([table[name][:tile], pair, table[name][tile + 1 :]])
        for name, pair in zip(_TABLE_NAMES, fresh)
    }
    s = tiled.stats
    panels = s.tile_row
    ext_panels = np.concatenate(
        [panels[:tile], panels[tile : tile + 1], panels[tile:]]
    )
    ext_uniq = np.concatenate(
        [s.uniq_rids[:tile], view.stats.uniq_rids, s.uniq_rids[tile + 1 :]]
    )
    ext_assignment = np.concatenate(
        [assignment[:tile], [True, False], assignment[tile + 1 :]]
    )
    modes = [ExecutionMode.PARALLEL]
    if not arch.atomic_updates:
        modes.append(ExecutionMode.SERIAL)
    best: Optional[Tuple[float, float, PredictedTotals, ExecutionMode]] = None
    for mode in modes:
        totals, hot_times, cold_times = _table_totals_with_times(
            arch, ext, ext_panels, ext_assignment, mode, tiled.matrix.n_rows
        )
        time_s, naive_s = _evaluate_totals(
            partitioner, totals, mode, hot_times, cold_times,
            ext_uniq, ext_panels, ext_assignment,
        )
        if best is None or time_s < best[0]:
            best = (time_s, naive_s, totals, mode)
    final_assignment = assignment.copy()
    final_assignment[tile] = True
    return PartitionResult(
        label=Heuristic.BLOCK_SPLIT.value,
        assignment=final_assignment,
        mode=best[3],
        predicted_time_s=best[0],
        totals=best[2],
        naive_time_s=best[1],
        scorer=partitioner.scorer,
        split=TileSplit(
            tile=tile,
            hot_nnz=hot_nnz,
            cold_nnz=(hi - lo) - hot_nnz,
            row_cut=int(tiled.rows[lo + hot_nnz]),
        ),
    )


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
    for cut in sorted(probes):
        result = _score_split(partitioner, tiled, table, assignment, tile, cut)
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
    """The paper's cutoff-index placement: advance while improving.

    ``objective[k]`` is the subproblem objective with the first ``k``
    sorted tiles hot.  Starting from 0, the cutoff moves right as long as
    the objective strictly decreases and rolls back on the first
    non-improving move (Sec. V-B).  All four objectives are unimodal in
    ``k`` (the sort makes their increments monotone), so this first local
    minimum is also the global one.
    """
    cutoff = 0
    for k in range(1, objective.shape[0]):
        if objective[k] < objective[cutoff]:
            cutoff = k
        else:
            break
    return cutoff
