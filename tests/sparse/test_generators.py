"""Synthetic matrix generator tests: exact sizes, determinism, structure."""

import numpy as np
import pytest

from repro.sparse import generators
from repro.sparse.stats import gini
from repro.sparse.tiling import TiledMatrix


class TestUniform:
    def test_exact_nnz_and_shape(self):
        m = generators.uniform_random(200, 300, 5000, seed=1)
        assert m.shape == (200, 300)
        assert m.nnz == 5000

    def test_deterministic(self):
        a = generators.uniform_random(100, 100, 1000, seed=9)
        b = generators.uniform_random(100, 100, 1000, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = generators.uniform_random(100, 100, 1000, seed=1)
        b = generators.uniform_random(100, 100, 1000, seed=2)
        assert a != b

    def test_full_density(self):
        m = generators.uniform_random(10, 10, 100, seed=0)
        assert m.nnz == 100

    def test_zero_nnz(self):
        assert generators.uniform_random(10, 10, 0, seed=0).nnz == 0

    def test_overfull_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            generators.uniform_random(4, 4, 17)

    def test_low_imh(self):
        m = generators.uniform_random(1024, 1024, 50_000, seed=3)
        tiled = TiledMatrix(m, 128, 128)
        assert gini(tiled.stats.nnz) < 0.15


class TestRmat:
    def test_shape_is_power_of_two(self):
        m = generators.rmat(scale=9, nnz=4000, seed=4)
        assert m.shape == (512, 512)
        assert m.nnz == 4000

    def test_deterministic(self):
        assert generators.rmat(8, 1000, seed=5) == generators.rmat(8, 1000, seed=5)

    def test_power_law_concentration(self):
        m = generators.rmat(scale=12, nnz=40_000, seed=6)
        degrees = np.sort(m.row_degrees())[::-1]
        top1pct = degrees[: max(1, m.n_rows // 100)].sum()
        assert top1pct > 0.1 * m.nnz  # heavy head

    def test_high_imh_vs_uniform(self):
        r = generators.rmat(scale=12, nnz=40_000, seed=6)
        u = generators.uniform_random(4096, 4096, 40_000, seed=6)
        gr = gini(TiledMatrix(r, 128, 128).stats.nnz)
        gu = gini(TiledMatrix(u, 128, 128).stats.nnz)
        assert gr > gu + 0.2

    def test_symmetrize(self):
        m = generators.rmat(scale=8, nnz=800, seed=7, symmetrize=True)
        assert m == m.transpose()

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            generators.rmat(scale=8, nnz=10, a=0.9, b=0.2, c=0.2)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            generators.rmat(scale=0, nnz=1)


class TestBanded:
    def test_band_containment(self):
        m = generators.banded(1000, 8000, bandwidth=16, seed=8)
        assert m.nnz == 8000
        offsets = np.abs(m.rows - m.cols)
        # Laplace tail: the vast majority of offsets within a few bandwidths.
        assert np.quantile(offsets, 0.95) <= 16 * 4

    def test_diagonal_tiles_dominate(self):
        m = generators.banded(2048, 20_000, bandwidth=32, seed=9)
        tiled = TiledMatrix(m, 128, 128)
        on_diag = tiled.stats.tile_row == tiled.stats.tile_col
        assert tiled.stats.nnz[on_diag].sum() > 0.5 * m.nnz

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            generators.banded(10, 5, bandwidth=0)


class TestStencil:
    def test_interior_rows_have_full_pattern(self):
        m = generators.stencil(100, [-10, -1, 0, 1, 10])
        degrees = m.row_degrees()
        assert np.all(degrees[10:90] == 5)

    def test_boundary_clipping(self):
        m = generators.stencil(10, [-1, 0, 1])
        assert m.row_degrees()[0] == 2
        assert m.row_degrees()[9] == 2

    def test_duplicate_offsets_collapse(self):
        a = generators.stencil(10, [0, 1, 1])
        b = generators.stencil(10, [0, 1])
        assert a == b

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="positive"):
            generators.stencil(0, [0])


class TestCommunity:
    def test_exact_nnz(self):
        m = generators.community_blocks(1024, 20_000, 16, seed=10)
        assert m.nnz == 20_000

    def test_diagonal_concentration(self):
        m = generators.community_blocks(1024, 30_000, 16, intra_fraction=0.9, seed=11)
        tiled = TiledMatrix(m, 128, 128)
        near_diag = np.abs(tiled.stats.tile_row - tiled.stats.tile_col) <= 1
        assert tiled.stats.nnz[near_diag].sum() > 0.5 * m.nnz

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="intra_fraction"):
            generators.community_blocks(64, 10, 4, intra_fraction=1.5)

    def test_invalid_community_count(self):
        with pytest.raises(ValueError, match="n_communities"):
            generators.community_blocks(64, 10, 0)


class TestDenseBlocks:
    def test_exact_nnz(self):
        m = generators.dense_blocks(512, 30_000, 6, 96, seed=12)
        assert m.nnz == 30_000

    def test_blocks_create_hot_tiles(self):
        m = generators.dense_blocks(2048, 60_000, 4, 256, background_fraction=0.05, seed=13)
        tiled = TiledMatrix(m, 128, 128)
        assert gini(tiled.stats.nnz) > 0.35

    def test_invalid_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            generators.dense_blocks(64, 10, 2, 128)


class TestMycielskian:
    @pytest.mark.parametrize("order,n", [(2, 2), (3, 5), (4, 11), (5, 23), (12, 3071)])
    def test_vertex_count(self, order, n):
        assert generators.mycielskian(order).n_rows == n

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8])
    def test_nnz_closed_form(self, order):
        m = generators.mycielskian(order)
        assert m.nnz == generators.mycielskian_nnz(order)

    def test_symmetric_no_diagonal(self):
        m = generators.mycielskian(6)
        assert m == m.transpose()
        assert np.all(m.rows != m.cols)

    def test_m3_is_c5(self):
        # The Mycielskian of K2 is the 5-cycle.
        m = generators.mycielskian(3)
        assert m.n_rows == 5
        assert np.all(m.row_degrees() == 2)

    def test_triangle_free_small(self):
        # Mycielskians are triangle-free: A^3 diagonal is zero.
        m = generators.mycielskian(5)
        a = m.to_dense()
        assert np.trace(a @ a @ a) == 0

    def test_order_helper(self):
        assert generators.mycielskian_order(3071) == 12
        assert generators.mycielskian_order(3072) == 13

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order"):
            generators.mycielskian(1)


class TestSampleUnique:
    def test_cell_keys_do_not_wrap(self):
        # Two cells of one column whose rows differ by 2**20: a key of
        # row * n * n + col wraps int64 at n = 2**22 and would merge them.
        n = 1 << 22
        draws = iter([(np.array([1 << 20, 0]), np.array([5, 5]))])
        rows, cols = generators._sample_unique(lambda k: next(draws), 2, n)
        assert rows.tolist() == [0, 1 << 20]
        assert cols.tolist() == [5, 5]
