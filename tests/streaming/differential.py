"""Ground truth for the streaming differentials.

:func:`rebuild_without_merge` builds a matrix after a delta without the
incremental merge, and :func:`tiled_bit_identical` compares two tilings
array for array, dtype for dtype.  ``tests/streaming/`` holds every
merged matrix and its tiling to a rebuild, and
``tests/sparse/test_tiling_differential.py`` holds the production tiling
to the frozen oracle, with the same comparison.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch


def tiled_bit_identical(a: TiledMatrix, b: TiledMatrix) -> bool:
    """True iff every derived array (and its dtype) matches exactly."""
    pairs: List[Tuple[np.ndarray, np.ndarray]] = [
        (a.matrix.rows, b.matrix.rows),
        (a.matrix.cols, b.matrix.cols),
        (a.matrix.vals, b.matrix.vals),
        (a.perm, b.perm),
        (a.rows, b.rows),
        (a.cols, b.cols),
        (a.vals, b.vals),
        (a.tile_offsets, b.tile_offsets),
        (a.stats.tile_row, b.stats.tile_row),
        (a.stats.tile_col, b.stats.tile_col),
        (a.stats.nnz, b.stats.nnz),
        (a.stats.uniq_rids, b.stats.uniq_rids),
        (a.stats.uniq_cids, b.stats.uniq_cids),
        (a.panel_uniq_rids, b.panel_uniq_rids),
        (a.panel_nnz, b.panel_nnz),
        (a.inverse_perm(), b.inverse_perm()),
        (a.matrix.indptr(), b.matrix.indptr()),
    ]
    if (a.tile_height, a.tile_width) != (b.tile_height, b.tile_width):
        return False
    if (a.n_panel_rows, a.n_panel_cols) != (b.n_panel_rows, b.n_panel_cols):
        return False
    return all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs
    )


def rebuild_without_merge(matrix: SparseMatrix, delta: DeltaBatch) -> SparseMatrix:
    """``matrix`` after ``delta``, built without the incremental merge:
    drop every cell the batch deletes or inserts, append the inserts and
    let the constructor sort."""
    n_cols = np.int64(max(matrix.n_cols, 1))
    named = np.concatenate((
        delta.delete_rows * n_cols + delta.delete_cols,
        delta.insert_rows * n_cols + delta.insert_cols,
    ))
    keep = ~np.isin(matrix.rows * n_cols + matrix.cols, named)
    return SparseMatrix(
        matrix.n_rows,
        matrix.n_cols,
        np.concatenate((matrix.rows[keep], delta.insert_rows)),
        np.concatenate((matrix.cols[keep], delta.insert_cols)),
        np.concatenate((matrix.vals[keep], delta.insert_vals.astype(matrix.dtype))),
        dtype=matrix.dtype,
    )
