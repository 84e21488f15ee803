"""Frozen pre-optimization tile decomposition: the oracle for
``repro.sparse.tiling``.

Kept verbatim (only this docstring is new) so
``test_tiling_differential.py`` can require the production
:class:`TiledMatrix` -- which sorts unique packed ``(tile key, position)``
keys without a stable argsort and counts distinct rows and columns per
tile with segmented sums -- to build exactly the arrays this version
built with a stable ``np.argsort`` of the tile keys and prefix sums over
boolean arrays.  Imported only by tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = ["TileStats", "TiledMatrix", "concat_ranges"]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``[starts[i], starts[i] + lengths[i])`` ranges.

    Vectorized equivalent of
    ``np.concatenate([np.arange(s, s + l) for s, l in zip(starts, lengths)])``
    without materializing a Python list of per-range arrays -- the plan
    builder uses it to gather the nonzero indices of many tiles at once.
    Zero-length ranges contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    # Element at global position p inside range k equals
    # starts[k] + (p - out_offset[k]); np.repeat broadcasts the per-range
    # correction so one np.arange covers every range.
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


@dataclass(frozen=True)
class TileStats:
    """Struct-of-arrays statistics for the non-empty tiles of a matrix.

    All arrays have one entry per non-empty tile, ordered row-panel-major
    (increasing tile row, then increasing tile column), matching the tiled
    traversal order of Fig. 6(b).
    """

    tile_row: np.ndarray  #: tile-grid row (row-panel index) of each tile
    tile_col: np.ndarray  #: tile-grid column of each tile
    nnz: np.ndarray  #: nonzeros per tile
    uniq_rids: np.ndarray  #: distinct nonzero row indices per tile
    uniq_cids: np.ndarray  #: distinct nonzero column indices per tile

    @property
    def n_tiles(self) -> int:
        return int(self.nnz.shape[0])


class TiledMatrix:
    """A sparse matrix cut into a grid of tiles with per-tile statistics.

    Parameters
    ----------
    matrix:
        The sparse input ``A``.
    tile_height, tile_width:
        Tile dimensions in matrix elements.  Scratchpad-constrained workers
        dictate these (paper Sec. IV); free dimensions may be searched over
        with :func:`repro.core.tilesize.search_tile_size`.
    """

    def __init__(self, matrix: SparseMatrix, tile_height: int, tile_width: int) -> None:
        if tile_height <= 0 or tile_width <= 0:
            raise ValueError("tile dimensions must be positive")
        self.matrix = matrix
        self.tile_height = int(tile_height)
        self.tile_width = int(tile_width)
        self.n_panel_rows = -(-matrix.n_rows // tile_height) if matrix.n_rows else 0
        self.n_panel_cols = -(-matrix.n_cols // tile_width) if matrix.n_cols else 0

        trow = matrix.rows // tile_height
        tcol = matrix.cols // tile_width
        key = trow * np.int64(max(self.n_panel_cols, 1)) + tcol
        order = np.argsort(key, kind="stable")

        #: nonzeros permuted into tile-major order (tiles sorted row-panel
        #: major; inside a tile the original row-major order is preserved).
        self.perm = order
        self.rows = matrix.rows[order]
        self.cols = matrix.cols[order]
        self.vals = matrix.vals[order]

        sorted_key = key[order]
        if sorted_key.size:
            boundary = np.empty(sorted_key.shape[0], dtype=bool)
            boundary[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            tile_keys = sorted_key[starts]
            counts = np.diff(np.append(starts, sorted_key.shape[0]))
        else:
            starts = np.zeros(0, dtype=np.int64)
            tile_keys = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)

        #: offset of each tile's first nonzero in the permuted arrays,
        #: with a trailing sentinel equal to nnz.
        self.tile_offsets = np.append(starts, sorted_key.shape[0]).astype(np.int64)

        tile_row = tile_keys // max(self.n_panel_cols, 1)
        tile_col = tile_keys % max(self.n_panel_cols, 1)
        uniq_rids = _unique_per_segment(sorted_key, self.rows, starts, presorted=True)
        uniq_cids = _unique_per_segment(sorted_key, self.cols, starts, presorted=False)
        self.stats = TileStats(
            tile_row=tile_row.astype(np.int64),
            tile_col=tile_col.astype(np.int64),
            nnz=counts.astype(np.int64),
            uniq_rids=uniq_rids,
            uniq_cids=uniq_cids,
        )

        self.panel_uniq_rids = _panel_uniq_rids(matrix, tile_height, self.n_panel_rows)
        self.panel_nnz = np.bincount(
            trow, minlength=max(self.n_panel_rows, 1)
        ).astype(np.int64)

        self._inv_perm: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def _from_parts(
        cls,
        matrix: SparseMatrix,
        tile_height: int,
        tile_width: int,
        n_panel_rows: int,
        n_panel_cols: int,
        perm: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        tile_offsets: np.ndarray,
        stats: TileStats,
        panel_nnz: np.ndarray,
    ) -> "TiledMatrix":
        """Assemble a tiling from precomputed parts, skipping the argsort.

        Trusted internal constructor for the incremental delta-merge path
        (:mod:`repro.streaming.apply`), which repairs every other field so
        that the result is bit-identical to ``TiledMatrix(matrix, th, tw)``;
        the panel distinct rows are derived here as there.  The inverse
        permutation is refreshed eagerly: the merge already holds the new
        ``perm``, so one scatter keeps the cache warm instead of
        invalidating it.
        """
        self = object.__new__(cls)
        self.matrix = matrix
        self.tile_height = int(tile_height)
        self.tile_width = int(tile_width)
        self.n_panel_rows = int(n_panel_rows)
        self.n_panel_cols = int(n_panel_cols)
        self.perm = perm
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.tile_offsets = tile_offsets
        self.stats = stats
        self.panel_uniq_rids = _panel_uniq_rids(matrix, tile_height, n_panel_rows)
        self.panel_nnz = panel_nnz
        inv = np.empty(perm.shape[0], dtype=np.int64)
        inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
        inv.flags.writeable = False
        self._inv_perm = inv
        return self

    def apply_delta(self, delta) -> "TiledMatrix":
        """Apply a :class:`repro.streaming.delta.DeltaBatch` incrementally.

        Returns a repaired tiling (or ``self`` for an empty batch)
        bit-identical to retiling the mutated matrix from scratch; see
        :func:`repro.streaming.apply.apply_delta_tiled`, which also reports
        the structurally dirty tiles.
        """
        from repro.streaming.apply import apply_delta_tiled

        return apply_delta_tiled(self, delta)[0]

    @property
    def n_tiles(self) -> int:
        """Number of non-empty tiles (empty tiles are eliminated)."""
        return self.stats.n_tiles

    def inverse_perm(self) -> np.ndarray:
        """Original (row-major) nonzero position -> tile-permuted position.

        The inverse of :attr:`perm`, computed lazily and cached; returned
        read-only.  Lets consumers recover the canonical row-major order of
        any subset of the permuted nonzeros without sorting.
        """
        if self._inv_perm is None:
            inv = np.empty(self.perm.shape[0], dtype=np.int64)
            inv[self.perm] = np.arange(self.perm.shape[0], dtype=np.int64)
            inv.flags.writeable = False
            self._inv_perm = inv
        return self._inv_perm

    def tile_nonzeros(self, i: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, vals)`` of tile ``i`` in global coordinates."""
        lo, hi = self.tile_offsets[i], self.tile_offsets[i + 1]
        return self.rows[lo:hi], self.cols[lo:hi], self.vals[lo:hi]

    def tiles_in_panel(self, panel: int) -> np.ndarray:
        """Indices of the non-empty tiles in row panel ``panel``."""
        return np.flatnonzero(self.stats.tile_row == panel)

    def iter_panels(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(panel_index, tile_indices)`` for non-empty panels.

        Tiles are already sorted panel-major, so each panel's indices are a
        contiguous ascending range.
        """
        if self.n_tiles == 0:
            return
        trow = self.stats.tile_row
        boundary = np.empty(trow.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(trow[1:], trow[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], trow.shape[0])
        for s, e in zip(starts, ends):
            yield int(trow[s]), np.arange(s, e)

    def content_digest(self) -> str:
        """Stable digest: the matrix content digest plus the tile geometry.

        Everything else on the instance is derived deterministically from
        those inputs, so they fully identify a tiling.
        """
        return hashlib.sha256(
            f"TiledMatrix:{self.matrix.content_digest()}:"
            f"{self.tile_height}x{self.tile_width}".encode()
        ).hexdigest()

    def density_map(self) -> np.ndarray:
        """Full ``n_panel_rows x n_panel_cols`` grid of per-tile nnz counts.

        Used to reproduce Fig. 5 (hot/cold tile assignment maps).
        """
        grid = np.zeros((max(self.n_panel_rows, 1), max(self.n_panel_cols, 1)), dtype=np.int64)
        grid[self.stats.tile_row, self.stats.tile_col] = self.stats.nnz
        return grid[: self.n_panel_rows, : self.n_panel_cols]

    def __repr__(self) -> str:
        return (
            f"TiledMatrix({self.matrix.n_rows}x{self.matrix.n_cols}, "
            f"tile={self.tile_height}x{self.tile_width}, "
            f"grid={self.n_panel_rows}x{self.n_panel_cols}, "
            f"non_empty_tiles={self.n_tiles})"
        )


def _panel_uniq_rids(matrix: SparseMatrix, tile_height: int, n_panel_rows: int) -> np.ndarray:
    """Distinct nonzero rows per row panel: a row lives in one panel, so these
    are the non-empty rows, read off the cached CSR ``indptr`` without a
    sort, binned by panel index."""
    present_rows = np.flatnonzero(np.diff(matrix.indptr()))
    return np.bincount(
        present_rows // tile_height, minlength=max(n_panel_rows, 1)
    ).astype(np.int64)


def _unique_per_segment(
    sorted_key: np.ndarray, values: np.ndarray, starts: np.ndarray, presorted: bool
) -> np.ndarray:
    """Count distinct ``values`` inside each segment of ``sorted_key``.

    ``sorted_key`` is non-decreasing; segments begin at ``starts``.  When
    ``presorted`` the values are already non-decreasing within each segment
    (true for row ids, because the canonical nonzero order is row-major);
    otherwise pairs are sorted first.
    """
    n = sorted_key.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    span = np.int64(values.max(initial=0)) + 1
    pair = sorted_key * span + values
    if not presorted:
        pair = np.sort(pair)
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    np.not_equal(pair[1:], pair[:-1], out=new_pair[1:])
    # Distinct pairs per segment: cumulative distinct-pair count evaluated at
    # segment boundaries.
    cum = np.cumsum(new_pair)
    seg_end = np.append(starts[1:], n) - 1
    seg_begin_cum = np.concatenate(([0], cum[seg_end[:-1]]))
    return (cum[seg_end] - seg_begin_cum).astype(np.int64)
