"""Unit tests for the tile decomposition against brute-force references."""

import numpy as np
import pytest

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix


def brute_force_stats(matrix, th, tw):
    """Reference per-tile stats computed with Python dicts."""
    tiles = {}
    for r, c in zip(matrix.rows.tolist(), matrix.cols.tolist()):
        key = (r // th, c // tw)
        entry = tiles.setdefault(key, {"nnz": 0, "rids": set(), "cids": set()})
        entry["nnz"] += 1
        entry["rids"].add(r)
        entry["cids"].add(c)
    return tiles


@pytest.fixture(scope="module")
def mixed_matrix():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 500, 3000)
    cols = rng.integers(0, 300, 3000)
    return SparseMatrix(500, 300, rows, cols)


class TestTileStats:
    @pytest.mark.parametrize("th,tw", [(64, 64), (128, 32), (100, 77), (500, 300), (1, 1)])
    def test_stats_match_brute_force(self, mixed_matrix, th, tw):
        tiled = TiledMatrix(mixed_matrix, th, tw)
        ref = brute_force_stats(mixed_matrix, th, tw)
        assert tiled.n_tiles == len(ref)
        for i in range(tiled.n_tiles):
            key = (int(tiled.stats.tile_row[i]), int(tiled.stats.tile_col[i]))
            assert key in ref
            assert tiled.stats.nnz[i] == ref[key]["nnz"]
            assert tiled.stats.uniq_rids[i] == len(ref[key]["rids"])
            assert tiled.stats.uniq_cids[i] == len(ref[key]["cids"])

    def test_nnz_conserved(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        assert tiled.stats.nnz.sum() == mixed_matrix.nnz

    def test_tiles_sorted_panel_major(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        keys = tiled.stats.tile_row * tiled.n_panel_cols + tiled.stats.tile_col
        assert np.all(np.diff(keys) > 0)  # unique and ascending

    def test_empty_tiles_eliminated(self):
        # Only the two corner tiles are populated.
        m = SparseMatrix(256, 256, [0, 255], [0, 255])
        tiled = TiledMatrix(m, 64, 64)
        assert tiled.n_tiles == 2
        assert tiled.n_panel_rows == tiled.n_panel_cols == 4

    def test_grid_dimensions_round_up(self):
        m = SparseMatrix(100, 130, [99], [129])
        tiled = TiledMatrix(m, 64, 64)
        assert tiled.n_panel_rows == 2
        assert tiled.n_panel_cols == 3

    def test_invalid_tile_size(self, mixed_matrix):
        with pytest.raises(ValueError, match="positive"):
            TiledMatrix(mixed_matrix, 0, 64)

    def test_empty_matrix(self):
        tiled = TiledMatrix(SparseMatrix.empty(64, 64), 32, 32)
        assert tiled.n_tiles == 0
        assert list(tiled.iter_panels()) == []


class TestKeyOverflow:
    """Shapes whose tile or column keys would wrap int64: the statistics
    are exact, or construction raises; never silently wrong output."""

    @staticmethod
    def wide_matrix(n_cols):
        rows = [0, 0, 0, 5, 5, 1023]
        return SparseMatrix(1024, n_cols, rows, [0, 3, n_cols - 1, 3, n_cols - 2, 0])

    @pytest.mark.parametrize("n_cols,th,tw", [(2**40, 1, 1), (2**53, 64, 2**20)])
    def test_wide_matrix_stats_match_brute_force(self, n_cols, th, tw):
        matrix = self.wide_matrix(n_cols)
        tiled = TiledMatrix(matrix, th, tw)
        got = {
            (int(r), int(c)): (int(n), int(ur), int(uc))
            for r, c, n, ur, uc in zip(
                tiled.stats.tile_row, tiled.stats.tile_col, tiled.stats.nnz,
                tiled.stats.uniq_rids, tiled.stats.uniq_cids,
            )
        }
        want = {
            key: (e["nnz"], len(e["rids"]), len(e["cids"]))
            for key, e in brute_force_stats(matrix, th, tw).items()
        }
        assert got == want

    def test_unfittable_tile_key_raises(self):
        # 2**63 cells fit the matrix's own keys, but 1x1 tiles need
        # position bits on top.
        rows = [0, 0, 0, 5, 5, 2**31 - 1]
        cols = [0, 3, 2**32 - 1, 3, 2**32 - 2, 0]
        matrix = SparseMatrix(2**31, 2**32, rows, cols)
        with pytest.raises(ValueError, match=rf"{2**31}x{2**32} matrix .* 1x1 tiles"):
            TiledMatrix(matrix, 1, 1)

    def test_unfittable_column_key_raises(self):
        # Tile keys fit (4 tiles), but 4 tiles of 2**61 + 1 local columns
        # do not.
        matrix = SparseMatrix(2, 2**62, [0, 0, 1, 1], [0, 2**62 - 1, 0, 2**62 - 1])
        with pytest.raises(ValueError, match="column keys"):
            TiledMatrix(matrix, 1, 2**61 + 1)


class TestTileAccess:
    def test_tile_nonzeros_cover_matrix(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        seen = []
        for i in range(tiled.n_tiles):
            r, c, v = tiled.tile_nonzeros(i)
            assert r.shape == c.shape == v.shape
            tr, tc = tiled.stats.tile_row[i], tiled.stats.tile_col[i]
            assert np.all(r // 64 == tr)
            assert np.all(c // 64 == tc)
            seen.append(r.shape[0])
        assert sum(seen) == mixed_matrix.nnz

    def test_permutation_is_bijective(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        assert np.array_equal(np.sort(tiled.perm), np.arange(mixed_matrix.nnz))

    def test_row_major_within_tile(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        for i in range(tiled.n_tiles):
            r, c, _ = tiled.tile_nonzeros(i)
            key = r * 300 + c
            assert np.all(np.diff(key) > 0)


class TestPanels:
    def test_iter_panels_partition_tiles(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        collected = np.concatenate([idx for _, idx in tiled.iter_panels()])
        assert np.array_equal(collected, np.arange(tiled.n_tiles))

    def test_tiles_in_panel_consistent(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        for panel, idx in tiled.iter_panels():
            assert np.array_equal(tiled.tiles_in_panel(panel), idx)
            assert np.all(tiled.stats.tile_row[idx] == panel)

    def test_panel_uniq_rids(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        for panel in range(tiled.n_panel_rows):
            rows_in_panel = mixed_matrix.rows[
                (mixed_matrix.rows // 64) == panel
            ]
            assert tiled.panel_uniq_rids[panel] == np.unique(rows_in_panel).size

    @pytest.mark.parametrize(
        "matrix",
        [
            # empty rows inside panels and whole empty panels (rows 16..47)
            SparseMatrix(70, 9, [0, 0, 2, 5, 13, 48, 48, 69], [1, 8, 0, 3, 3, 2, 7, 4]),
            SparseMatrix.empty(70, 9),
            SparseMatrix.empty(0, 0),
        ],
        ids=["empty-rows", "no-nonzeros", "zero-rows"],
    )
    def test_panel_uniq_rids_matches_unique_count(self, matrix):
        tiled = TiledMatrix(matrix, 8, 4)
        expected = np.bincount(
            np.unique(matrix.rows) // 8, minlength=max(tiled.n_panel_rows, 1)
        ).astype(np.int64)
        assert tiled.panel_uniq_rids.dtype == expected.dtype
        assert np.array_equal(tiled.panel_uniq_rids, expected)

    def test_panel_nnz(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        assert tiled.panel_nnz.sum() == mixed_matrix.nnz


class TestDensityMap:
    def test_density_map_totals(self, mixed_matrix):
        tiled = TiledMatrix(mixed_matrix, 64, 64)
        grid = tiled.density_map()
        assert grid.shape == (tiled.n_panel_rows, tiled.n_panel_cols)
        assert grid.sum() == mixed_matrix.nnz

    def test_density_map_single_tile(self):
        m = SparseMatrix(10, 10, [1, 2], [1, 2])
        grid = TiledMatrix(m, 16, 16).density_map()
        assert grid.shape == (1, 1)
        assert grid[0, 0] == 2
