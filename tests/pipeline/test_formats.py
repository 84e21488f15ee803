"""Accelerator sparse-format tests: every format computes the same SpMM."""

import numpy as np
import pytest

from repro.pipeline.formats import TiledCoo, TiledCsr, UntiledCoo, UntiledCsr, build_format
from repro.sparse import generators, matrix as matrix_module
from repro.sparse.tiling import TiledMatrix
from repro.workers import piuma_mtp, piuma_stp, sextans, spade_pe


@pytest.fixture(scope="module")
def tiled():
    m = generators.rmat(scale=8, nnz=1500, seed=3)
    return TiledMatrix(m, 32, 32)


@pytest.fixture(scope="module")
def din(tiled):
    rng = np.random.default_rng(4)
    return rng.standard_normal((tiled.matrix.n_cols, 8)).astype(np.float32)


WORKERS = {
    "spade": (spade_pe(), UntiledCoo),
    "sextans": (sextans(4), TiledCoo),
    "mtp": (piuma_mtp(), UntiledCsr),
    "stp": (piuma_stp(), TiledCsr),
}


class TestFormatTypes:
    @pytest.mark.parametrize("name", WORKERS)
    def test_worker_maps_to_expected_format(self, tiled, name):
        worker, expected_type = WORKERS[name]
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), worker)
        assert isinstance(fmt, expected_type)
        assert fmt.nnz == tiled.matrix.nnz


class TestSpmmEquivalence:
    @pytest.mark.parametrize("name", WORKERS)
    def test_full_matrix_spmm(self, tiled, din, name):
        worker, _ = WORKERS[name]
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), worker)
        expected = tiled.matrix.spmm(din)
        np.testing.assert_allclose(fmt.spmm(din), expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("hot_name,cold_name", [("sextans", "spade"), ("stp", "mtp")])
    def test_partitioned_formats_merge_to_reference(self, tiled, din, hot_name, cold_name):
        """The Merger's contract: hot partial + cold partial == full SpMM."""
        rng = np.random.default_rng(9)
        assignment = rng.random(tiled.n_tiles) < 0.4
        hot_fmt = build_format(tiled, assignment, WORKERS[hot_name][0])
        cold_fmt = build_format(tiled, ~assignment, WORKERS[cold_name][0])
        merged = hot_fmt.spmm(din) + cold_fmt.spmm(din)
        np.testing.assert_allclose(
            merged, tiled.matrix.spmm(din), rtol=1e-4, atol=1e-4
        )

    def test_empty_subset(self, tiled, din):
        fmt = build_format(tiled, np.zeros(tiled.n_tiles, dtype=bool), spade_pe())
        assert fmt.nnz == 0
        assert np.array_equal(fmt.spmm(din), np.zeros((tiled.matrix.n_rows, 8)))

    @pytest.mark.parametrize("name", WORKERS)
    @pytest.mark.parametrize("subset", ["all", "some", "none"])
    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spmm_in_blocks_equals_one_shot(
        self, monkeypatch, tiled, name, subset, k, dtype
    ):
        """Blocks of 37 nonzeros, cut inside rows and inside tiles, give
        exactly one ``np.add.at`` over the format's nonzeros in storage
        order: the per-tile loops of earlier versions, for tiled formats."""
        mask = {
            "all": np.ones(tiled.n_tiles, dtype=bool),
            "some": np.random.default_rng(9).random(tiled.n_tiles) < 0.4,
            "none": np.zeros(tiled.n_tiles, dtype=bool),
        }[subset]
        fmt = build_format(tiled, mask, WORKERS[name][0])
        din = np.random.default_rng(k).standard_normal((tiled.matrix.n_cols, k)).astype(dtype)
        itemsize = np.result_type(fmt.vals, din).itemsize
        step = 37
        monkeypatch.setattr(matrix_module, "SPMM_BLOCK_BYTES", step * k * itemsize)
        rows = _storage_rows(fmt)
        if subset != "none":
            cuts = np.arange(step, fmt.nnz, step)
            assert cuts.size >= 10
            assert (rows[cuts - 1] == rows[cuts]).any()
            tile_offsets = getattr(fmt, "tile_offsets", None)
            if tile_offsets is not None:
                assert np.setdiff1d(cuts, tile_offsets).size > 0
        out = np.zeros((fmt.n_rows, k), dtype=np.result_type(fmt.vals, din))
        np.add.at(out, rows, fmt.vals[:, None] * din[_storage_cols(fmt)])
        assert np.array_equal(fmt.spmm(din), out)


def _storage_rows(fmt) -> np.ndarray:
    """Each nonzero's matrix row, in storage order, read as the per-tile
    loops of earlier versions read it (tiled CSR: tile by tile)."""
    if isinstance(fmt, (UntiledCoo, TiledCoo)):
        return fmt.rows
    if isinstance(fmt, UntiledCsr):
        return np.repeat(np.arange(fmt.n_rows), np.diff(fmt.indptr))
    pieces = [np.zeros(0, dtype=np.int64)]
    for t in range(fmt.n_tiles):
        lo = fmt.tile_indptr_offsets[t]
        hi = fmt.tile_indptr_offsets[t + 1] if t + 1 < fmt.n_tiles else fmt.indptrs.shape[0]
        counts = np.diff(fmt.indptrs[lo:hi])
        base = int(fmt.tile_row[t]) * fmt.tile_height
        pieces.append(base + np.repeat(np.arange(counts.shape[0]), counts))
    return np.concatenate(pieces)


def _storage_cols(fmt) -> np.ndarray:
    return fmt.cols if isinstance(fmt, (UntiledCoo, TiledCoo)) else fmt.indices


class TestDataItems:
    def test_coo_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), spade_pe())
        assert fmt.data_items == 3 * tiled.matrix.nnz

    def test_untiled_csr_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_mtp())
        assert fmt.data_items == tiled.matrix.n_rows + 2 * tiled.matrix.nnz

    def test_tiled_csr_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_stp())
        # Sum over tiles of (clipped tile height + 2 * tile nnz).
        heights = np.minimum(
            tiled.tile_height,
            tiled.matrix.n_rows - tiled.stats.tile_row * tiled.tile_height,
        )
        expected = int(heights.sum()) + 2 * tiled.matrix.nnz
        assert fmt.data_items == expected


class TestStructure:
    def test_untiled_coo_row_major(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), spade_pe())
        key = fmt.rows * tiled.matrix.n_cols + fmt.cols
        assert np.all(np.diff(key) > 0)

    def test_tiled_coo_offsets_consistent(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), sextans(4))
        assert fmt.tile_offsets[0] == 0
        assert fmt.tile_offsets[-1] == fmt.nnz
        assert np.all(np.diff(fmt.tile_offsets) > 0)  # empty tiles eliminated

    def test_untiled_csr_indptr(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_mtp())
        assert fmt.indptr.shape == (tiled.matrix.n_rows + 1,)
        assert fmt.indptr[-1] == fmt.nnz

    def test_subset_shape_check(self, tiled):
        with pytest.raises(ValueError, match="tile_subset"):
            build_format(tiled, np.ones(3, dtype=bool), spade_pe())
