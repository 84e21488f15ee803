"""Accelerator sparse formats (paper Table III / Sec. VII-A).

Each worker type consumes the partition's tiles in its own compression
format and traversal order:

- SPADE PEs: *untiled COO* (row-major nonzeros of the cold partition),
- Sextans: *tiled COO* (tile-major nonzeros with tile descriptors),
- PIUMA MTPs: *untiled CSR*,
- PIUMA STPs: *tiled CSR*.

Every format object carries a reference ``spmm`` so tests can verify that
the hot and cold partial outputs recombine into the exact SpMM result --
functionally, this is what the Merger module (or the PIUMA atomics) do.
Each one hands its nonzeros, in storage order (tile-major for the tiled
formats), to the blocked kernel :func:`repro.sparse.matrix.coo_spmm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.traits import SparseFormat, Traversal, WorkerTraits
from repro.sparse.matrix import coo_spmm
from repro.sparse.tiling import TiledMatrix

__all__ = ["UntiledCoo", "TiledCoo", "UntiledCsr", "TiledCsr", "build_format", "AnyFormat"]


@dataclass(frozen=True)
class UntiledCoo:
    """Row-major COO over a tile subset (SPADE's format, Fig. 6(a))."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.shape[0])

    @property
    def data_items(self) -> int:
        """Items fetched from memory (Table I): 3 per nonzero."""
        return 3 * self.nnz

    def spmm(self, din: np.ndarray) -> np.ndarray:
        return coo_spmm(self.n_rows, self.rows, self.cols, self.vals, din)


@dataclass(frozen=True)
class TiledCoo:
    """Tile-major COO with per-tile descriptors (Sextans, Fig. 6(b))."""

    n_rows: int
    n_cols: int
    tile_row: np.ndarray  #: per tile
    tile_col: np.ndarray  #: per tile
    tile_offsets: np.ndarray  #: per tile + sentinel, into the nnz arrays
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_tiles(self) -> int:
        return int(self.tile_row.shape[0])

    @property
    def data_items(self) -> int:
        return 3 * self.nnz

    def spmm(self, din: np.ndarray) -> np.ndarray:
        return coo_spmm(self.n_rows, self.rows, self.cols, self.vals, din)


@dataclass(frozen=True)
class UntiledCsr:
    """CSR over the full row range, holding a tile subset (PIUMA MTP)."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def data_items(self) -> int:
        """Table I: ``height + 2 * nnz`` items."""
        return self.n_rows + 2 * self.nnz

    def spmm(self, din: np.ndarray) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))
        return coo_spmm(self.n_rows, rows, self.indices, self.vals, din)


@dataclass(frozen=True)
class TiledCsr:
    """Per-tile CSR blocks (PIUMA STP).

    Each tile carries a local ``tile_height + 1`` indptr; row ids are local
    to the tile's row panel.
    """

    n_rows: int
    n_cols: int
    tile_height: int
    tile_row: np.ndarray
    tile_col: np.ndarray
    tile_indptr_offsets: np.ndarray  #: per tile, start into indptrs array
    indptrs: np.ndarray  #: concatenated per-tile local indptrs
    tile_offsets: np.ndarray  #: per tile + sentinel, into indices/vals
    indices: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def n_tiles(self) -> int:
        return int(self.tile_row.shape[0])

    @property
    def data_items(self) -> int:
        """Table I: per tile, ``tile_height + 2 * tile_nnz`` items."""
        return int(self.indptrs.shape[0] - self.n_tiles) + 2 * self.nnz

    def spmm(self, din: np.ndarray) -> np.ndarray:
        # Slot j of tile t's local indptr is row tile_row[t] * tile_height
        # + j of the matrix, and holds indptr[j + 1] - indptr[j] nonzeros;
        # each tile's last slot is a sentinel, so its step into the next
        # tile's indptr counts none.
        slots = np.diff(self.tile_indptr_offsets, append=self.indptrs.shape[0])
        slot_rows = np.arange(self.indptrs.shape[0], dtype=np.int64) + np.repeat(
            self.tile_row * self.tile_height - self.tile_indptr_offsets, slots
        )
        steps = np.diff(self.indptrs)
        steps[self.tile_indptr_offsets[1:] - 1] = 0
        rows = np.repeat(slot_rows[:-1], steps)
        return coo_spmm(self.n_rows, rows, self.indices, self.vals, din)


AnyFormat = Union[UntiledCoo, TiledCoo, UntiledCsr, TiledCsr]


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
    # Per-nonzero mask over the tile-major arrays.
    keep = np.repeat(tile_subset, tiled.stats.nnz)
    matrix = tiled.matrix

    if worker.traversal is Traversal.UNTILED_ROW_ORDERED:
        # Canonical SparseMatrix storage is already (row, col)-sorted, so
        # scattering the mask back through ``perm`` selects the subset in
        # row-major order without an argsort.
        sel = np.empty(keep.shape[0], dtype=bool)
        sel[tiled.perm] = keep
        rows = matrix.rows[sel]
        cols = matrix.cols[sel]
        vals = matrix.vals[sel]
        if worker.sparse_format is SparseFormat.COO_LIKE:
            return UntiledCoo(matrix.n_rows, matrix.n_cols, rows, cols, vals)
        counts = np.bincount(rows, minlength=matrix.n_rows)
        indptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return UntiledCsr(matrix.n_rows, matrix.n_cols, indptr, cols, vals)

    # Tiled traversal: nonzeros already tile-major inside TiledMatrix.
    rows = tiled.rows[keep]
    cols = tiled.cols[keep]
    vals = tiled.vals[keep]
    sizes = tiled.stats.nnz[tile_subset]
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    tile_row = tiled.stats.tile_row[tile_subset]
    tile_col = tiled.stats.tile_col[tile_subset]
    if worker.sparse_format is SparseFormat.COO_LIKE:
        return TiledCoo(
            matrix.n_rows, matrix.n_cols, tile_row, tile_col, offsets, rows, cols, vals
        )

    # Tiled CSR: a local indptr per tile over the (clipped) tile height.
    # Shifting each row to its slot in the concatenated indptrs lets one
    # bincount + cumsum build them all, less each tile's starting count.
    th = tiled.tile_height
    panel_base = tile_row * th
    slots = np.minimum(th, matrix.n_rows - panel_base) + 1
    indptr_offsets = np.cumsum(slots) - slots
    counts = np.bincount(
        rows + np.repeat(indptr_offsets + 1 - panel_base, sizes),
        minlength=int(slots.sum()),
    )
    indptrs = np.cumsum(counts) - np.repeat(offsets[:-1], slots)
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
