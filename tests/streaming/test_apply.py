"""Incremental delta application: edge cases and bit-identity differentials."""

import numpy as np
import pytest

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_matrix, apply_delta_tiled
from repro.streaming.delta import DeltaBatch
from tests.streaming.differential import tiled_bit_identical


def expected_dense(matrix, delta):
    """Reference semantics: deletes first, then upsert-style inserts."""
    dense = matrix.to_dense().copy()
    for r, c in zip(delta.delete_rows.tolist(), delta.delete_cols.tolist()):
        dense[r, c] = 0.0
    for r, c, v in zip(
        delta.insert_rows.tolist(),
        delta.insert_cols.tolist(),
        delta.insert_vals.tolist(),
    ):
        dense[r, c] = v
    return dense


def rebuild_from_coords(matrix, delta):
    """From-scratch ground truth: rebuild the COO via a coordinate map."""
    cells = {
        (r, c): v
        for r, c, v in zip(
            matrix.rows.tolist(), matrix.cols.tolist(), matrix.vals.tolist()
        )
    }
    for r, c in zip(delta.delete_rows.tolist(), delta.delete_cols.tolist()):
        cells.pop((r, c), None)
    for r, c, v in zip(
        delta.insert_rows.tolist(),
        delta.insert_cols.tolist(),
        delta.insert_vals.tolist(),
    ):
        cells[(r, c)] = v
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    vals = np.array(list(cells.values()), dtype=matrix.vals.dtype)
    return SparseMatrix(matrix.n_rows, matrix.n_cols, rows, cols, vals)


class TestMatrixApply:
    def test_empty_batch_returns_same_object(self, small_rmat):
        assert small_rmat.apply_delta(DeltaBatch()) is small_rmat

    def test_dense_semantics(self, small_rmat):
        delta = DeltaBatch.random(small_rmat, inserts=50, deletes=30, seed=3)
        new = small_rmat.apply_delta(delta)
        np.testing.assert_array_equal(new.to_dense(), expected_dense(small_rmat, delta))

    def test_delete_absent_cell_is_silent_noop(self, tiny_matrix):
        # (3, 3) holds no nonzero; deleting it must change nothing.
        delta = DeltaBatch(delete_rows=[3], delete_cols=[3])
        new = tiny_matrix.apply_delta(delta)
        assert new.content_digest() == tiny_matrix.content_digest()

    def test_overwrite_keeps_structure(self, tiny_matrix):
        # (0, 0) already holds a nonzero: the insert is a value overwrite.
        delta = DeltaBatch(insert_rows=[0], insert_cols=[0], insert_vals=[42.0])
        new, info = apply_delta_matrix(tiny_matrix, delta)
        assert info.n_overwrites == 1
        assert new.nnz == tiny_matrix.nnz
        assert new.to_dense()[0, 0] == 42.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_rebuild(self, small_rmat, seed):
        delta = DeltaBatch.random(small_rmat, inserts=120, deletes=80, seed=seed)
        new = small_rmat.apply_delta(delta)
        scratch = rebuild_from_coords(small_rmat, delta)
        assert new.content_digest() == scratch.content_digest()
        np.testing.assert_array_equal(new.indptr(), scratch.indptr())

    def test_out_of_range_delta_rejected(self, tiny_matrix):
        delta = DeltaBatch(insert_rows=[99], insert_cols=[0], insert_vals=[1.0])
        with pytest.raises(ValueError):
            tiny_matrix.apply_delta(delta)


class TestTiledApply:
    def test_empty_batch_returns_same_object(self, tiled_rmat):
        new, report = apply_delta_tiled(tiled_rmat, DeltaBatch())
        assert new is tiled_rmat
        assert report.n_dirty_tiles == 0

    def test_delta_empties_a_tile(self, tiny_matrix):
        tiled = TiledMatrix(tiny_matrix, 4, 4)
        # Tile (1, 0) holds exactly the nonzeros (3,0),(7,0): delete both.
        delta = DeltaBatch(delete_rows=[3, 7], delete_cols=[0, 0])
        new, report = apply_delta_tiled(tiled, delta)
        assert new.n_tiles == tiled.n_tiles - 1
        keys = set(
            (new.stats.tile_row * new.n_panel_cols + new.stats.tile_col).tolist()
        )
        assert 1 * new.n_panel_cols + 0 not in keys
        scratch = TiledMatrix(rebuild_from_coords(tiny_matrix, delta), 4, 4)
        assert tiled_bit_identical(new, scratch)

    def test_delta_creates_new_row_and_column_tile(self):
        # Rows 8..15 and cols 8..15 start completely empty.
        rows = np.array([0, 1, 2])
        cols = np.array([0, 1, 2])
        vals = np.ones(3, dtype=np.float32)
        matrix = SparseMatrix(16, 16, rows, cols, vals)
        tiled = TiledMatrix(matrix, 8, 8)
        assert tiled.n_tiles == 1
        delta = DeltaBatch(
            insert_rows=[12, 3], insert_cols=[12, 12], insert_vals=[2.0, 3.0]
        )
        new, report = apply_delta_tiled(tiled, delta)
        assert new.n_tiles == 3  # (0,0), (0,1), (1,1)
        assert report.n_dirty_tiles == 2  # both brand-new tiles
        scratch = TiledMatrix(rebuild_from_coords(matrix, delta), 8, 8)
        assert tiled_bit_identical(new, scratch)
        # Panel bookkeeping saw the brand-new nonzero row.
        assert new.panel_nnz.sum() == new.matrix.nnz

    def test_value_overwrite_is_structurally_clean(self, tiled_rmat):
        r = int(tiled_rmat.matrix.rows[0])
        c = int(tiled_rmat.matrix.cols[0])
        delta = DeltaBatch(insert_rows=[r], insert_cols=[c], insert_vals=[123.0])
        new, report = apply_delta_tiled(tiled_rmat, delta)
        assert report.n_overwritten == 1
        assert report.n_dirty_tiles == 0  # stats unchanged: no repair needed
        np.testing.assert_array_equal(new.stats.nnz, tiled_rmat.stats.nnz)
        scratch = TiledMatrix(
            rebuild_from_coords(tiled_rmat.matrix, delta), new.tile_height, new.tile_width
        )
        assert tiled_bit_identical(new, scratch)

    @pytest.mark.parametrize(
        "fixture", ["small_rmat", "small_uniform", "small_banded"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chained_stream_stays_bit_identical(
        self, request, spade_sextans_arch, fixture, seed
    ):
        # The differential gate: after every step of a seeded stream, the
        # merged matrix and its tiling must match a from-scratch rebuild of
        # the previous step's matrix, array for array, dtype for dtype.
        matrix = request.getfixturevalue(fixture)
        arch = spade_sextans_arch
        tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
        for step in range(3):
            delta = DeltaBatch.random(
                tiled.matrix, inserts=100, deletes=60, seed=seed * 1_000_003 + step
            )
            scratch = TiledMatrix(
                rebuild_from_coords(tiled.matrix, delta), arch.tile_height, arch.tile_width
            )
            tiled, _ = apply_delta_tiled(tiled, delta)
            assert tiled_bit_identical(tiled, scratch)

    def test_report_counts_reconcile(self, tiled_rmat):
        delta = DeltaBatch.random(tiled_rmat.matrix, inserts=70, deletes=50, seed=4)
        new, report = apply_delta_tiled(tiled_rmat, delta)
        assert (
            new.matrix.nnz
            == tiled_rmat.matrix.nnz + report.n_inserted - report.n_deleted
        )
        assert report.n_inserted + report.n_overwritten == delta.n_inserts
        assert report.tiles_after == new.n_tiles
        assert report.tiles_before == tiled_rmat.n_tiles
