"""Frozen per-tile-loop ``build_format``: the oracle for the whole-array one.

Kept verbatim (only this docstring and the imports are new) so
``test_formats_differential.py`` can require the production
:func:`repro.pipeline.formats.build_format` to match it array for array.
"""

from __future__ import annotations

import numpy as np

from repro.core.traits import SparseFormat, Traversal, WorkerTraits
from repro.pipeline.formats import AnyFormat, TiledCoo, TiledCsr, UntiledCoo, UntiledCsr
from repro.sparse.tiling import TiledMatrix


def build_format(
    tiled: TiledMatrix, tile_subset: np.ndarray, worker: WorkerTraits
) -> AnyFormat:
    """Materialize the worker's sparse format over a subset of tiles.

    ``tile_subset`` is a boolean mask over the non-empty tiles; the format
    is chosen by the worker's (sparse_format, traversal) pair.
    """
    tile_subset = np.asarray(tile_subset, dtype=bool)
    if tile_subset.shape != (tiled.n_tiles,):
        raise ValueError(f"tile_subset must have shape ({tiled.n_tiles},)")
    tile_idx = np.flatnonzero(tile_subset)
    pieces = [np.arange(tiled.tile_offsets[i], tiled.tile_offsets[i + 1]) for i in tile_idx]
    nnz_idx = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    matrix = tiled.matrix

    if worker.traversal is Traversal.UNTILED_ROW_ORDERED:
        key = tiled.rows[nnz_idx] * np.int64(max(matrix.n_cols, 1)) + tiled.cols[nnz_idx]
        nnz_idx = nnz_idx[np.argsort(key, kind="stable")]
        rows = tiled.rows[nnz_idx]
        cols = tiled.cols[nnz_idx]
        vals = tiled.vals[nnz_idx]
        if worker.sparse_format is SparseFormat.COO_LIKE:
            return UntiledCoo(matrix.n_rows, matrix.n_cols, rows, cols, vals)
        counts = np.bincount(rows, minlength=matrix.n_rows)
        indptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return UntiledCsr(matrix.n_rows, matrix.n_cols, indptr, cols, vals)

    # Tiled traversal: nonzeros already tile-major inside TiledMatrix.
    rows = tiled.rows[nnz_idx]
    cols = tiled.cols[nnz_idx]
    vals = tiled.vals[nnz_idx]
    sizes = tiled.tile_offsets[tile_idx + 1] - tiled.tile_offsets[tile_idx]
    offsets = np.zeros(tile_idx.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    tile_row = tiled.stats.tile_row[tile_idx]
    tile_col = tiled.stats.tile_col[tile_idx]
    if worker.sparse_format is SparseFormat.COO_LIKE:
        return TiledCoo(
            matrix.n_rows, matrix.n_cols, tile_row, tile_col, offsets, rows, cols, vals
        )

    # Tiled CSR: local indptr per tile over the (clipped) tile height.
    th = tiled.tile_height
    indptr_chunks = []
    indptr_offsets = np.zeros(tile_idx.shape[0], dtype=np.int64)
    pos = 0
    for j, t in enumerate(tile_idx):
        lo, hi = offsets[j], offsets[j + 1]
        base = int(tile_row[j]) * th
        height = min(th, matrix.n_rows - base)
        counts = np.bincount(rows[lo:hi] - base, minlength=height)
        local = np.zeros(height + 1, dtype=np.int64)
        np.cumsum(counts, out=local[1:])
        indptr_chunks.append(local)
        indptr_offsets[j] = pos
        pos += height + 1
    indptrs = (
        np.concatenate(indptr_chunks) if indptr_chunks else np.zeros(0, dtype=np.int64)
    )
    return TiledCsr(
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        tile_height=th,
        tile_row=tile_row,
        tile_col=tile_col,
        tile_indptr_offsets=indptr_offsets,
        indptrs=indptrs,
        tile_offsets=offsets,
        indices=cols,
        vals=vals,
    )
