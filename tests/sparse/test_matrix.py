"""Unit tests for the SparseMatrix container."""

import numpy as np
import pytest

from repro.sparse import generators, matrix as matrix_module
from repro.sparse.matrix import SPMM_BLOCK_BYTES, SparseMatrix


class TestConstruction:
    def test_basic_coo(self):
        m = SparseMatrix(3, 4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        assert m.shape == (3, 4)
        assert m.nnz == 3
        assert m.density == pytest.approx(3 / 12)

    def test_pattern_defaults_to_unit_values(self):
        m = SparseMatrix(2, 2, [0, 1], [1, 0])
        assert np.array_equal(m.vals, np.ones(2, dtype=np.float32))

    def test_canonical_row_major_order(self):
        m = SparseMatrix(3, 3, [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        assert m.rows.tolist() == [0, 0, 1, 2]
        assert m.cols.tolist() == [0, 2, 1, 0]
        assert m.vals.tolist() == [4, 2, 3, 1]

    def test_duplicates_are_summed(self):
        m = SparseMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == pytest.approx(3.5)

    def test_out_of_range_row_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, 2, [2], [0])

    def test_shape_beyond_int64_keys_rejected(self):
        # 1024 * 2**62 cells: row-major keys would wrap int64 and scramble
        # the order.  2**63 cells still fit (the largest key is 2**63 - 1).
        rows, cols = [0, 0, 0, 5, 5, 1023], [0, 3, 2**62 - 1, 3, 2**62 - 2, 0]
        with pytest.raises(ValueError, match=rf"1024x{2**62} matrix"):
            SparseMatrix(1024, 2**62, rows, cols)
        m = SparseMatrix(2, 2**62, [1, 0, 0], [0, 2**62 - 1, 3])
        assert m.rows.tolist() == [0, 0, 1]
        assert m.cols.tolist() == [3, 2**62 - 1, 0]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SparseMatrix(2, 2, [-1], [0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseMatrix(2, 2, [0, 1], [0])
        with pytest.raises(ValueError, match="same length"):
            SparseMatrix(2, 2, [0, 1], [0, 1], [1.0])

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SparseMatrix(-1, 2, [], [])

    def test_arrays_are_immutable(self):
        m = SparseMatrix(2, 2, [0], [0])
        with pytest.raises(ValueError):
            m.rows[0] = 1

    def test_empty_matrix(self):
        m = SparseMatrix.empty(5, 7)
        assert m.nnz == 0
        assert m.density == 0.0
        assert m.to_dense().shape == (5, 7)

    def test_identity(self):
        m = SparseMatrix.identity(4)
        assert np.array_equal(m.to_dense(), np.eye(4, dtype=np.float32))

    def test_from_dense_roundtrip(self):
        dense = np.array([[0, 1.5, 0], [2.0, 0, 0], [0, 0, 3.0]])
        m = SparseMatrix.from_dense(dense, dtype=np.float64)
        assert np.array_equal(m.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            SparseMatrix.from_dense(np.ones(3))

    def test_from_csr_roundtrip(self):
        m = SparseMatrix(3, 3, [0, 0, 2], [0, 2, 1], [1.0, 2.0, 3.0])
        back = SparseMatrix.from_csr(3, 3, *m.to_csr())
        assert back == m

    def test_from_csr_bad_indptr_length(self):
        with pytest.raises(ValueError, match="length"):
            SparseMatrix.from_csr(3, 3, np.array([0, 1]), np.array([0]))

    def test_from_csr_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SparseMatrix.from_csr(2, 2, np.array([0, 2, 1]), np.array([0, 1]))

    def test_from_csr_indptr_tail_mismatch(self):
        with pytest.raises(ValueError, match="indptr"):
            SparseMatrix.from_csr(2, 2, np.array([0, 1, 2]), np.array([0]))


class TestQueries:
    def test_degrees(self, tiny_matrix):
        assert tiny_matrix.row_degrees().tolist() == [2, 1, 1, 1, 1, 1, 1, 2]
        assert tiny_matrix.row_degrees().sum() == tiny_matrix.nnz
        assert tiny_matrix.col_degrees().sum() == tiny_matrix.nnz

    def test_indptr_matches_bincount(self, small_rmat):
        indptr = small_rmat.indptr()
        assert indptr[0] == 0
        assert indptr[-1] == small_rmat.nnz
        assert np.array_equal(np.diff(indptr), small_rmat.row_degrees())

    def test_indptr_cached(self, tiny_matrix):
        assert tiny_matrix.indptr() is tiny_matrix.indptr()

    def test_repr_mentions_shape_and_nnz(self, tiny_matrix):
        text = repr(tiny_matrix)
        assert "8x8" in text and "nnz=10" in text


class TestTransforms:
    def test_transpose_involution(self, small_rmat):
        assert small_rmat.transpose().transpose() == small_rmat

    def test_transpose_dense_agreement(self, tiny_matrix):
        assert np.array_equal(tiny_matrix.transpose().to_dense(), tiny_matrix.to_dense().T)

    def test_astype(self, tiny_matrix):
        m64 = tiny_matrix.astype(np.float64)
        assert m64.dtype == np.float64
        assert np.array_equal(m64.vals, tiny_matrix.vals.astype(np.float64))

    def test_permute_identity_is_noop(self, tiny_matrix):
        n = tiny_matrix.n_rows
        assert tiny_matrix.permute(np.arange(n), np.arange(n)) == tiny_matrix

    def test_permute_matches_dense(self, tiny_matrix):
        rng = np.random.default_rng(0)
        perm = rng.permutation(8)
        permuted = tiny_matrix.permute(row_perm=perm, col_perm=perm)
        dense = np.zeros((8, 8), dtype=np.float32)
        src = tiny_matrix.to_dense()
        for i in range(8):
            for j in range(8):
                dense[perm[i], perm[j]] = src[i, j]
        assert np.array_equal(permuted.to_dense(), dense)

    def test_permute_rejects_non_permutation(self, tiny_matrix):
        with pytest.raises(ValueError, match="not a permutation"):
            tiny_matrix.permute(row_perm=np.zeros(8, dtype=np.int64))

    def test_select_nonzeros(self, tiny_matrix):
        mask = tiny_matrix.vals > 5
        sub = tiny_matrix.select_nonzeros(mask)
        assert sub.nnz == int(mask.sum())
        assert sub.shape == tiny_matrix.shape

    def test_select_nonzeros_bad_mask(self, tiny_matrix):
        with pytest.raises(ValueError, match="one entry per nonzero"):
            tiny_matrix.select_nonzeros(np.ones(3, dtype=bool))

    def test_symmetrized_is_symmetric(self, small_rmat):
        sym = small_rmat.symmetrized()
        assert sym == sym.transpose()

    def test_without_diagonal(self):
        m = SparseMatrix(3, 3, [0, 1, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        off = m.without_diagonal()
        assert off.nnz == 1
        assert off.to_dense()[1, 2] == pytest.approx(3.0)


class TestKernels:
    def test_spmm_matches_dense(self, small_rmat):
        rng = np.random.default_rng(1)
        din = rng.standard_normal((small_rmat.n_cols, 8)).astype(np.float32)
        expected = small_rmat.to_dense() @ din
        np.testing.assert_allclose(small_rmat.spmm(din), expected, rtol=1e-4, atol=1e-4)

    def test_spmm_shape_check(self, tiny_matrix):
        with pytest.raises(ValueError, match="shape"):
            tiny_matrix.spmm(np.ones((3, 2)))

    def test_spmv_matches_spmm(self, tiny_matrix):
        x = np.arange(8, dtype=np.float32)
        np.testing.assert_allclose(tiny_matrix.spmv(x), tiny_matrix.spmm(x[:, None])[:, 0])

    def test_spmv_shape_check(self, tiny_matrix):
        with pytest.raises(ValueError, match="shape"):
            tiny_matrix.spmv(np.ones(3))

    def test_spmm_empty_matrix(self):
        m = SparseMatrix.empty(4, 4)
        out = m.spmm(np.ones((4, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_identity_spmm_is_identity_map(self):
        m = SparseMatrix.identity(6)
        din = np.random.default_rng(2).standard_normal((6, 3)).astype(np.float32)
        np.testing.assert_allclose(m.spmm(din), din, rtol=1e-6)

    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spmm_in_blocks_equals_one_shot(self, monkeypatch, small_rmat, k, dtype):
        """Blocks of 37 nonzeros -- 217 blocks, cut inside rows -- give
        exactly the one whole-array ``np.add.at`` of earlier versions."""
        din = np.random.default_rng(k).standard_normal((small_rmat.n_cols, k)).astype(dtype)
        itemsize = np.result_type(small_rmat.vals, din).itemsize
        step = 37
        monkeypatch.setattr(matrix_module, "SPMM_BLOCK_BYTES", step * k * itemsize)
        cuts = np.arange(step, small_rmat.nnz, step)
        assert cuts.size > 100
        assert (small_rmat.rows[cuts - 1] == small_rmat.rows[cuts]).sum() > 10
        assert np.array_equal(small_rmat.spmm(din), _one_shot_spmm(small_rmat, din))

    def test_spmm_of_empty_matrix_in_blocks(self, monkeypatch):
        monkeypatch.setattr(matrix_module, "SPMM_BLOCK_BYTES", 1)
        out = SparseMatrix.empty(5, 3).spmm(np.ones((3, 4)))
        assert np.array_equal(out, np.zeros((5, 4)))

    def test_spmm_peak_memory_is_two_blocks(self, traced_peak):
        """mycielskian(12) at K = 32 float32 gathers 52 MB of Din rows and
        52 MB of products in one shot (105 MB traced at the peak); in
        blocks the peak is the output plus the two per-block budgets."""
        m = generators.mycielskian(12)
        assert m.nnz >= 300_000
        din = np.random.default_rng(0).standard_normal((m.n_cols, 32)).astype(np.float32)
        out, peak = traced_peak(lambda: m.spmm(din))
        assert peak < 1.1 * (out.nbytes + 2 * SPMM_BLOCK_BYTES)
        assert np.array_equal(out, _one_shot_spmm(m, din))


def _one_shot_spmm(m: SparseMatrix, din: np.ndarray) -> np.ndarray:
    """The unblocked SpMM: one ``np.add.at`` over every nonzero."""
    out = np.zeros((m.n_rows, din.shape[1]), dtype=np.result_type(m.vals, din))
    np.add.at(out, m.rows, m.vals[:, None] * din[m.cols])
    return out


class TestEquality:
    def test_equal_matrices(self, tiny_matrix):
        clone = SparseMatrix(
            8, 8, tiny_matrix.rows, tiny_matrix.cols, tiny_matrix.vals
        )
        assert clone == tiny_matrix

    def test_different_values_not_equal(self, tiny_matrix):
        other = SparseMatrix(8, 8, tiny_matrix.rows, tiny_matrix.cols, tiny_matrix.vals * 2)
        assert other != tiny_matrix

    def test_non_matrix_comparison(self, tiny_matrix):
        assert tiny_matrix != "not a matrix"
