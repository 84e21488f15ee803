"""Incremental application of a :class:`DeltaBatch`.

Re-canonicalizing a mutated matrix from scratch costs a global
``O(nnz log nnz)`` sort twice over (once for the COO canonical order,
once for the tile-major permutation).  A delta batch touches a vanishing
fraction of the nonzeros, so both sorted orders can instead be *repaired*
by merging the (already sorted) batch into the (already sorted) arrays
with ``searchsorted`` + ``np.insert`` -- ``O(nnz + |delta| log nnz)`` and
no global sort.

The contract is exact, not approximate: the matrix produced by
:func:`apply_delta_matrix` and the tiling produced by
:func:`apply_delta_tiled` are **bit-identical** -- every array, dtype and
digest -- to constructing ``SparseMatrix`` / ``TiledMatrix`` from scratch
on the mutated coordinates.  The differential tests in
``tests/test_streaming.py`` and the ``delta-replay`` experiment enforce
this.

Alongside the repaired tiling, :func:`apply_delta_tiled` reports which
tiles went *structurally dirty* (nonzero added or removed; value-only
overwrites keep a tile clean).  That dirty set is what
:func:`repro.core.partition.repair_plan` uses to skip re-costing clean
tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix, TileStats, _distinct_per_tile, concat_ranges
from repro.streaming.delta import DeltaBatch

__all__ = ["DeltaApplyReport", "apply_delta_matrix", "apply_delta_tiled"]

# Composite merge keys are ``tile_rank * nnz + position``; fall back to a
# full rebuild rather than risk int64 overflow on absurdly large inputs.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class _MergeInfo:
    """How a delta mapped onto the canonical nonzero order.

    Internal to the streaming package: :func:`apply_delta_tiled` uses it to
    repair the tile-major permutation without re-sorting.
    """

    #: per-old-nonzero survival mask (False = deleted by the batch)
    keep: np.ndarray
    #: new canonical position of each surviving old nonzero (len = keep.sum())
    new_pos_of_kept: np.ndarray
    #: new canonical positions of brand-new nonzeros, ascending
    ins_pos: np.ndarray
    #: coordinates of the brand-new nonzeros (sorted by canonical key)
    ins_rows: np.ndarray
    ins_cols: np.ndarray
    #: coordinates of the nonzeros actually removed (delete hits only)
    del_rows: np.ndarray
    del_cols: np.ndarray
    #: number of in-place value overwrites (structurally clean)
    n_overwrites: int


@dataclass(frozen=True)
class DeltaApplyReport:
    """What one batch did to a tiling, for lineage counters and repair."""

    n_inserted: int  #: brand-new nonzeros added
    n_overwritten: int  #: existing nonzeros whose value changed
    n_deleted: int  #: nonzeros removed (delete misses excluded)
    #: sorted tile keys (``tile_row * n_panel_cols + tile_col``) of tiles
    #: whose *structure* changed; value-only overwrites stay clean
    dirty_tile_keys: np.ndarray
    tiles_before: int
    tiles_after: int
    #: True when the incremental merge bailed into a full rebuild
    rebuilt: bool

    @property
    def n_dirty_tiles(self) -> int:
        return int(self.dirty_tile_keys.shape[0])


def _empty_info(matrix: SparseMatrix) -> _MergeInfo:
    z = np.zeros(0, dtype=np.int64)
    return _MergeInfo(
        keep=np.ones(matrix.nnz, dtype=bool),
        new_pos_of_kept=np.arange(matrix.nnz, dtype=np.int64),
        ins_pos=z, ins_rows=z, ins_cols=z, del_rows=z, del_cols=z,
        n_overwrites=0,
    )


def apply_delta_matrix(
    matrix: SparseMatrix, delta: DeltaBatch
) -> Tuple[SparseMatrix, _MergeInfo]:
    """Apply ``delta`` to ``matrix``; return the new matrix and merge map.

    Deletes apply first (absent cells are silent no-ops), then inserts
    (upsert: overwrite if the cell survived, new nonzero otherwise).  The
    result is built through :meth:`SparseMatrix._from_canonical` with an
    incrementally patched CSR ``indptr``; an empty batch returns ``matrix``
    itself, digest unchanged.
    """
    delta.validate_against(matrix.n_rows, matrix.n_cols)
    if delta.is_empty:
        return matrix, _empty_info(matrix)

    n_cols = np.int64(max(matrix.n_cols, 1))
    old_keys = matrix.rows * n_cols + matrix.cols  # strictly increasing

    # --- deletes: mark hits among the existing nonzeros ----------------
    keep = np.ones(matrix.nnz, dtype=bool)
    if delta.n_deletes:
        del_keys = delta.delete_rows * n_cols + delta.delete_cols
        pos = np.searchsorted(old_keys, del_keys)
        in_range = pos < matrix.nnz
        hit = np.zeros(delta.n_deletes, dtype=bool)
        hit[in_range] = old_keys[pos[in_range]] == del_keys[in_range]
        keep[pos[hit]] = False
        del_rows = delta.delete_rows[hit]
        del_cols = delta.delete_cols[hit]
    else:
        del_rows = del_cols = np.zeros(0, dtype=np.int64)

    kept_keys = old_keys[keep]
    kept_rows = matrix.rows[keep]
    kept_cols = matrix.cols[keep]
    kept_vals = matrix.vals[keep]  # fancy indexing already copies

    # --- inserts: split into overwrites and brand-new nonzeros ---------
    if delta.n_inserts:
        ins_keys = delta.insert_rows * n_cols + delta.insert_cols
        pos_k = np.searchsorted(kept_keys, ins_keys)
        in_range = pos_k < kept_keys.shape[0]
        over = np.zeros(delta.n_inserts, dtype=bool)
        over[in_range] = kept_keys[pos_k[in_range]] == ins_keys[in_range]
        kept_vals[pos_k[over]] = delta.insert_vals[over]  # casts to dtype
        new = ~over
        ins_rows = delta.insert_rows[new]
        ins_cols = delta.insert_cols[new]
        ins_vals = delta.insert_vals[new].astype(matrix.dtype)
        insert_at = pos_k[new]  # non-decreasing: keys are sorted
        n_overwrites = int(over.sum())
    else:
        ins_rows = ins_cols = np.zeros(0, dtype=np.int64)
        ins_vals = np.zeros(0, dtype=matrix.dtype)
        insert_at = np.zeros(0, dtype=np.int64)
        n_overwrites = 0

    new_rows = np.insert(kept_rows, insert_at, ins_rows)
    new_cols = np.insert(kept_cols, insert_at, ins_cols)
    new_vals = np.insert(kept_vals, insert_at, ins_vals)

    # Canonical positions on both sides of the merge.
    n_new = ins_rows.shape[0]
    ins_pos = insert_at + np.arange(n_new, dtype=np.int64)
    if n_new:
        ins_keys_new = ins_rows * n_cols + ins_cols
        new_pos_of_kept = (
            np.arange(kept_keys.shape[0], dtype=np.int64)
            + np.searchsorted(ins_keys_new, kept_keys)
        )
    else:
        new_pos_of_kept = np.arange(kept_keys.shape[0], dtype=np.int64)

    # CSR indptr patched by per-row net change instead of a fresh bincount
    # over all nonzeros.
    row_delta = np.bincount(ins_rows, minlength=matrix.n_rows).astype(np.int64)
    row_delta -= np.bincount(del_rows, minlength=matrix.n_rows).astype(np.int64)
    new_indptr = matrix.indptr() + np.concatenate(
        ([0], np.cumsum(row_delta))
    ).astype(np.int64)

    result = SparseMatrix._from_canonical(
        matrix.n_rows, matrix.n_cols, new_rows, new_cols, new_vals, indptr=new_indptr
    )
    info = _MergeInfo(
        keep=keep,
        new_pos_of_kept=new_pos_of_kept,
        ins_pos=ins_pos,
        ins_rows=ins_rows,
        ins_cols=ins_cols,
        del_rows=del_rows,
        del_cols=del_cols,
        n_overwrites=n_overwrites,
    )
    return result, info


def apply_delta_tiled(
    tiled: TiledMatrix, delta: DeltaBatch
) -> Tuple[TiledMatrix, DeltaApplyReport]:
    """Apply ``delta`` to a tiling; return the repaired tiling and report.

    The tile-major permutation, tile offsets, per-tile stats and panel
    stats are merged/patched rather than rebuilt; distinct-index counts are
    recomputed only for structurally dirty tiles, the rest copy over.  An
    empty batch returns ``tiled`` itself.
    """
    if delta.is_empty:
        return tiled, DeltaApplyReport(
            n_inserted=0, n_overwritten=0, n_deleted=0,
            dirty_tile_keys=np.zeros(0, dtype=np.int64),
            tiles_before=tiled.n_tiles, tiles_after=tiled.n_tiles,
            rebuilt=False,
        )

    new_matrix, info = apply_delta_matrix(tiled.matrix, delta)
    th, tw = tiled.tile_height, tiled.tile_width
    npc = np.int64(max(tiled.n_panel_cols, 1))

    # Structurally dirty tiles: any actual delete or brand-new insert.
    dirty_keys = np.union1d(
        (info.del_rows // th) * npc + info.del_cols // tw,
        (info.ins_rows // th) * npc + info.ins_cols // tw,
    ).astype(np.int64)

    def _report(new_tiled: TiledMatrix, rebuilt: bool) -> DeltaApplyReport:
        return DeltaApplyReport(
            n_inserted=int(info.ins_rows.shape[0]),
            n_overwritten=info.n_overwrites,
            n_deleted=int(info.del_rows.shape[0]),
            dirty_tile_keys=dirty_keys,
            tiles_before=tiled.n_tiles,
            tiles_after=new_tiled.n_tiles,
            rebuilt=rebuilt,
        )

    old_counts = np.diff(tiled.tile_offsets)
    old_tile_keys = tiled.stats.tile_row * npc + tiled.stats.tile_col
    ins_keys = (info.ins_rows // th) * npc + info.ins_cols // tw

    # Rank-compress tile keys so the composite merge key
    # ``rank * nnz + canonical_pos`` stays inside int64.
    union_keys = np.union1d(old_tile_keys, ins_keys).astype(np.int64)
    new_nnz = int(new_matrix.nnz)
    if union_keys.shape[0] * max(new_nnz, 1) >= _INT64_SAFE:
        rebuilt = TiledMatrix(new_matrix, th, tw)
        return rebuilt, _report(rebuilt, rebuilt=True)

    # Survivors, in old tile-major order (which is already sorted by
    # (tile_key, canonical position) -- the merge invariant).
    keep_tm = info.keep[tiled.perm]
    new_pos_full = np.empty(tiled.matrix.nnz, dtype=np.int64)
    new_pos_full[info.keep] = info.new_pos_of_kept
    surv_pos = new_pos_full[tiled.perm[keep_tm]]
    surv_rank = np.searchsorted(
        union_keys, np.repeat(old_tile_keys, old_counts)[keep_tm]
    )

    # Brand-new nonzeros, sorted the same way.
    ins_rank = np.searchsorted(union_keys, ins_keys)
    ins_order = np.lexsort((info.ins_pos, ins_rank))
    ins_rank = ins_rank[ins_order]
    ins_pos = info.ins_pos[ins_order]

    # Merge the two sorted runs.
    nnz64 = np.int64(max(new_nnz, 1))
    ins_at = np.searchsorted(
        surv_rank * nnz64 + surv_pos, ins_rank * nnz64 + ins_pos
    )
    perm = np.insert(surv_pos, ins_at, ins_pos)
    merged_rank = np.insert(surv_rank, ins_at, ins_rank)

    # Tile boundaries, exactly as the constructor finds them.
    if merged_rank.size:
        boundary = np.empty(merged_rank.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(merged_rank[1:], merged_rank[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        tile_keys = union_keys[merged_rank[starts]]
        counts = np.diff(np.append(starts, merged_rank.shape[0]))
    else:
        starts = np.zeros(0, dtype=np.int64)
        tile_keys = np.zeros(0, dtype=np.int64)
        counts = np.zeros(0, dtype=np.int64)
    tile_offsets = np.append(starts, merged_rank.shape[0]).astype(np.int64)

    rows = new_matrix.rows[perm]
    cols = new_matrix.cols[perm]
    vals = new_matrix.vals[perm]

    # Per-tile distinct-index counts: clean tiles copy the old values,
    # dirty tiles recompute over just their own segments.
    is_dirty = np.isin(tile_keys, dirty_keys, assume_unique=True)
    uniq_rids = np.empty(tile_keys.shape[0], dtype=np.int64)
    uniq_cids = np.empty(tile_keys.shape[0], dtype=np.int64)
    clean_idx = np.flatnonzero(~is_dirty)
    if clean_idx.size:
        old_idx = np.searchsorted(old_tile_keys, tile_keys[clean_idx])
        uniq_rids[clean_idx] = tiled.stats.uniq_rids[old_idx]
        uniq_cids[clean_idx] = tiled.stats.uniq_cids[old_idx]
    dirty_idx = np.flatnonzero(is_dirty)
    if dirty_idx.size:
        seg_counts = counts[dirty_idx]
        gather = concat_ranges(starts[dirty_idx], seg_counts)
        seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
        uniq_rids[dirty_idx], uniq_cids[dirty_idx] = _distinct_per_tile(
            rows[gather], cols[gather], seg_starts, tile_keys[dirty_idx] % npc,
            tw, new_matrix.n_cols,
        )

    stats = TileStats(
        tile_row=(tile_keys // npc).astype(np.int64),
        tile_col=(tile_keys % npc).astype(np.int64),
        nnz=counts.astype(np.int64),
        uniq_rids=uniq_rids,
        uniq_cids=uniq_cids,
    )

    result = TiledMatrix._from_parts(
        matrix=new_matrix,
        tile_height=th,
        tile_width=tw,
        n_panel_rows=tiled.n_panel_rows,
        n_panel_cols=tiled.n_panel_cols,
        perm=perm,
        rows=rows,
        cols=cols,
        vals=vals,
        tile_offsets=tile_offsets,
        stats=stats,
    )
    return result, _report(result, rebuilt=False)
