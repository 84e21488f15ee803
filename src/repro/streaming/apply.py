"""Incremental application of a :class:`DeltaBatch`.

Re-canonicalizing a mutated matrix from scratch costs a global
``O(nnz log nnz)`` sort.  A delta batch touches a vanishing fraction of
the nonzeros, so :func:`apply_delta_matrix` instead merges the (already
sorted) batch into the (already sorted) COO arrays with ``searchsorted``
+ ``np.insert`` and patches the CSR ``indptr`` by per-row net change --
``O(nnz + |delta| log nnz)`` and no global sort.  The result is
**bit-identical** -- every array, dtype and digest -- to constructing
``SparseMatrix`` from scratch on the mutated coordinates.

The tiling is rebuilt, not merged: :func:`apply_delta_retiled` builds a
``TiledMatrix`` from the merged matrix, because the constructor's one
unique-key sort costs less than merging the batch into the tile-major
order (measured in docs/streaming.md), and every tiling is then the
from-scratch one.  Alongside it, :func:`apply_delta_retiled` reports
which tiles went *structurally dirty* (nonzero added or removed;
value-only overwrites keep a tile clean).  That dirty set is what
:func:`repro.core.partition.repair_plan` uses to skip re-costing clean
tiles.  It starts from a matrix and a tile shape, so a caller that keeps
only the matrix between batches (a :class:`~repro.streaming.lineage.
MatrixLineage`) pays for a tiling only while it repairs;
:func:`apply_delta_tiled` is the same step started from a tiling.

The differential tests in ``tests/streaming/`` check the merge against
an independent rebuild of the mutated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch

__all__ = [
    "DeltaApplyReport",
    "apply_delta_matrix",
    "apply_delta_retiled",
    "apply_delta_tiled",
]


@dataclass(frozen=True)
class _MergeInfo:
    """The cells a delta actually changed: brand-new and removed nonzeros
    (sorted by canonical key) and the count of in-place value overwrites.
    Internal to the streaming package: :func:`apply_delta_retiled`
    derives the dirty tiles from it."""

    ins_rows: np.ndarray
    ins_cols: np.ndarray
    del_rows: np.ndarray
    del_cols: np.ndarray
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

    @property
    def n_dirty_tiles(self) -> int:
        return int(self.dirty_tile_keys.shape[0])

    @classmethod
    def unchanged(cls, n_tiles: int) -> "DeltaApplyReport":
        """The report of an empty batch on a tiling of ``n_tiles`` tiles."""
        return cls(0, 0, 0, np.zeros(0, dtype=np.int64), n_tiles, n_tiles)


def apply_delta_matrix(
    matrix: SparseMatrix, delta: DeltaBatch
) -> Tuple[SparseMatrix, _MergeInfo]:
    """Apply ``delta`` to ``matrix``; return the new matrix and merge info.

    Deletes apply first (absent cells are silent no-ops), then inserts
    (upsert: overwrite if the cell survived, new nonzero otherwise).  The
    result is built through :meth:`SparseMatrix._from_canonical` with an
    incrementally patched CSR ``indptr``; an empty batch returns ``matrix``
    itself, digest unchanged.
    """
    delta.validate_against(matrix.n_rows, matrix.n_cols)
    z = np.zeros(0, dtype=np.int64)
    if delta.is_empty:
        return matrix, _MergeInfo(z, z, z, z, 0)

    n_cols = np.int64(max(matrix.n_cols, 1))
    old_keys = matrix.rows * n_cols + matrix.cols  # strictly increasing

    # --- deletes: mark hits among the existing nonzeros ----------------
    keep = np.ones(matrix.nnz, dtype=bool)
    del_rows = del_cols = z
    if delta.n_deletes:
        del_keys = delta.delete_rows * n_cols + delta.delete_cols
        pos = np.searchsorted(old_keys, del_keys)
        in_range = pos < matrix.nnz
        hit = np.zeros(delta.n_deletes, dtype=bool)
        hit[in_range] = old_keys[pos[in_range]] == del_keys[in_range]
        keep[pos[hit]] = False
        del_rows = delta.delete_rows[hit]
        del_cols = delta.delete_cols[hit]

    kept_keys = old_keys[keep]
    kept_vals = matrix.vals[keep]  # fancy indexing already copies

    # --- inserts: split into overwrites and brand-new nonzeros ---------
    ins_rows = ins_cols = insert_at = z
    ins_vals = np.zeros(0, dtype=matrix.dtype)
    n_overwrites = 0
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

    new_rows = np.insert(matrix.rows[keep], insert_at, ins_rows)
    new_cols = np.insert(matrix.cols[keep], insert_at, ins_cols)
    new_vals = np.insert(kept_vals, insert_at, ins_vals)

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
    return result, _MergeInfo(ins_rows, ins_cols, del_rows, del_cols, n_overwrites)


def apply_delta_retiled(
    matrix: SparseMatrix,
    tile_shape: Tuple[int, int],
    delta: DeltaBatch,
    tiles_before: int,
) -> Tuple[TiledMatrix, DeltaApplyReport]:
    """Merge ``delta`` into ``matrix`` and tile the result; return both.

    The matrix is merged by :func:`apply_delta_matrix` and tiled with
    ``tile_shape`` (``(tile_height, tile_width)``).  The dirty tiles are
    those holding an actual delete or a brand-new insert.
    ``tiles_before`` is the pre-delta tile count, which the report
    carries.
    """
    new_matrix, info = apply_delta_matrix(matrix, delta)
    th, tw = tile_shape
    new_tiled = TiledMatrix(new_matrix, th, tw)
    npc = np.int64(max(new_tiled.n_panel_cols, 1))
    dirty_keys = np.union1d(
        (info.del_rows // th) * npc + info.del_cols // tw,
        (info.ins_rows // th) * npc + info.ins_cols // tw,
    ).astype(np.int64)
    return new_tiled, DeltaApplyReport(
        n_inserted=int(info.ins_rows.shape[0]),
        n_overwritten=info.n_overwrites,
        n_deleted=int(info.del_rows.shape[0]),
        dirty_tile_keys=dirty_keys,
        tiles_before=tiles_before,
        tiles_after=new_tiled.n_tiles,
    )


def apply_delta_tiled(
    tiled: TiledMatrix, delta: DeltaBatch
) -> Tuple[TiledMatrix, DeltaApplyReport]:
    """Apply ``delta`` to a tiling; return the new tiling and report.

    :func:`apply_delta_retiled` on ``tiled``'s matrix and tile shape.  An
    empty batch returns ``tiled`` itself.
    """
    if delta.is_empty:
        return tiled, DeltaApplyReport.unchanged(tiled.n_tiles)
    return apply_delta_retiled(
        tiled.matrix, (tiled.tile_height, tiled.tile_width), delta, tiled.n_tiles
    )
