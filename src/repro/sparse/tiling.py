"""Tile decomposition of a sparse matrix.

HotTiles operates on fixed-size tiles of the sparse input (paper Sec. IV):
the matrix is cut into a grid of ``tile_height x tile_width`` tiles, empty
tiles are eliminated during preprocessing, and the analytical model consumes
three statistics per surviving tile:

- ``tile_nnzs``       -- nonzeros in the tile,
- ``tile_uniq_rids``  -- distinct row indices among them (drives *Dout*
  intra-tile demand reuse, Table I),
- ``tile_uniq_cids``  -- distinct column indices (drives *Din* demand reuse).

A *row panel* (Fig. 6) is the set of tiles sharing a tile-row; inter-tile
reuse happens along row panels, so the decomposition also records per-panel
statistics and groups tiles by panel in traversal order.
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

        # One sort key per nonzero: the tile key in the high bits, the
        # canonical position in the low ones.  The keys are unique, so an
        # unstable sort gives exactly the stable order (tiles row-panel
        # major, the canonical row-major order inside a tile), and its low
        # bits are the permutation.  Bounded in Python ints first: a key
        # that wrapped int64 would silently scramble the tiles.
        n = matrix.nnz
        npc = max(self.n_panel_cols, 1)
        pos_bits = max(n - 1, 0).bit_length()
        if (max(self.n_panel_rows, 1) * npc) << pos_bits > 2**63:
            raise ValueError(
                f"tile keys of a {matrix.n_rows}x{matrix.n_cols} matrix with "
                f"{n} nonzeros cut into {self.tile_height}x{self.tile_width} "
                f"tiles do not fit in int64"
            )
        sorted_key = matrix.rows // tile_height
        sorted_key *= npc
        sorted_key += matrix.cols // tile_width
        sorted_key <<= pos_bits
        sorted_key |= np.arange(n, dtype=np.int64)
        sorted_key.sort()

        #: nonzeros permuted into tile-major order (tiles sorted row-panel
        #: major; inside a tile the original row-major order is preserved).
        self.perm = sorted_key & ((1 << pos_bits) - 1)
        sorted_key >>= pos_bits
        self.rows = matrix.rows[self.perm]
        self.cols = matrix.cols[self.perm]
        self.vals = matrix.vals[self.perm]

        boundary = np.empty(n, dtype=bool)
        boundary[:1] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        tile_keys = sorted_key[starts]

        #: offset of each tile's first nonzero in the permuted arrays,
        #: with a trailing sentinel equal to nnz.
        self.tile_offsets = np.append(starts, n).astype(np.int64)

        tile_col = tile_keys % npc
        uniq_rids, uniq_cids = _distinct_per_tile(
            self.rows, self.cols, starts, tile_col, self.tile_width, matrix.n_cols
        )
        self.stats = TileStats(
            tile_row=tile_keys // npc,
            tile_col=tile_col,
            nnz=np.diff(self.tile_offsets),
            uniq_rids=uniq_rids,
            uniq_cids=uniq_cids,
        )
        self.panel_nnz, self.panel_uniq_rids = _panel_stats(
            matrix, self.tile_height, self.n_panel_rows
        )

        self._inv_perm: Optional[np.ndarray] = None

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


def _panel_stats(
    matrix: SparseMatrix, tile_height: int, n_panel_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(panel_nnz, panel_uniq_rids)``, both read off the cached CSR
    ``indptr`` without touching the nonzeros: a panel's nonzeros are the
    ``indptr`` span between its first rows, and since a row lives in one
    panel, its distinct rows are its non-empty rows."""
    indptr = matrix.indptr()
    n_panels = max(n_panel_rows, 1)
    edges = np.minimum(np.arange(n_panels + 1, dtype=np.int64) * tile_height, matrix.n_rows)
    present_rows = np.flatnonzero(np.diff(indptr))
    uniq_rids = np.bincount(present_rows // tile_height, minlength=n_panels)
    return np.diff(indptr[edges]), uniq_rids.astype(np.int64)


def _distinct_per_tile(
    rows: np.ndarray,
    cols: np.ndarray,
    starts: np.ndarray,
    tile_col: np.ndarray,
    tile_width: int,
    n_cols: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct row and column indices in each tile: ``(uniq_rids, uniq_cids)``.

    ``rows``/``cols`` hold tile-major nonzeros: one segment per tile, the
    ``i``-th starting at ``starts[i]`` and lying in tile column
    ``tile_col[i]``.  Rows are non-decreasing inside a segment (the
    canonical order is row-major), so a distinct row is a row change or a
    segment start.  Columns are not; one sort of ``(segment, local
    column)`` pair keys groups them, and a distinct column is a key change.
    Both are summed per segment with ``np.add.reduceat``.
    """
    n = rows.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new[1:])
    new[starts] = True
    uniq_rids = np.add.reduceat(new, starts, dtype=np.int64)

    # Key = segment * span + local column, built as a per-segment offset
    # plus the global column.  Local columns lie in [0, span), so keys lie
    # in [0, n_seg * span) and never collide across segments; the offsets
    # reach down to -n_cols.  int32 sorts about twice as fast where both
    # fit.
    n_seg = starts.shape[0]
    span = min(tile_width, n_cols)
    if n_seg * span > 2**63:
        raise ValueError(
            f"column keys of {n_seg} tiles {tile_width} columns wide do not fit in int64"
        )
    dtype = np.int32 if max(n_seg * span, n_cols) <= 2**31 else np.int64
    offsets = np.arange(n_seg, dtype=np.int64) * span - tile_col * tile_width
    pair = np.repeat(offsets.astype(dtype), np.diff(starts, append=n))
    np.add(pair, cols, out=pair, casting="unsafe")
    pair.sort()
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    uniq_cids = np.add.reduceat(new, starts, dtype=np.int64)
    return uniq_rids, uniq_cids
