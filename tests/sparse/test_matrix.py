"""Unit tests for the SparseMatrix container."""

import itertools

import numpy as np
import pytest

from repro.sparse import generators, matrix as matrix_module
from repro.sparse.matrix import SPMM_BLOCK_BYTES, SparseMatrix
from tests.sparse import reference_matrix as reference


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


def _assert_matches_frozen(got, n_rows, n_cols, rows, cols, vals=None, dtype=np.float32):
    """``got`` holds exactly the frozen argsort canonicalization of the
    input the constructor received: the bytes and dtypes of ``rows``,
    ``cols`` and ``vals``, and the content digest."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.ones(rows.shape[0], dtype=dtype) if vals is None else np.asarray(vals, dtype=dtype)
    want = reference._canonicalize(n_rows, n_cols, rows, cols, vals)
    for field, expected in zip(("rows", "cols", "vals"), want):
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert actual.tobytes() == expected.tobytes(), field
    frozen = SparseMatrix._from_canonical(n_rows, n_cols, *want)
    assert got.content_digest() == frozen.content_digest()


def _order_exposing_cells(dtype):
    """Unsorted entries: one cell per order of ``(big, 1, -big)``, each
    cell's three entries interleaved with the other cells' in reverse cell
    order, plus singletons.  ``big`` absorbs the 1 in ``dtype``, so the
    sums differ by order (1 or 0)."""
    big = dtype(1e8) if dtype is np.float32 else dtype(1e17)
    assert big + dtype(1) == big
    orders = list(itertools.permutations((big, dtype(1), -big)))
    sums = set()
    for order in orders:
        acc = dtype(0)
        for v in order:
            acc = dtype(acc + v)
        sums.add(float(acc))
    assert sums == {0.0, 1.0}
    rows, cols, vals = [], [], []
    for j in range(3):
        for i in reversed(range(len(orders))):
            rows.append(i % 3)
            cols.append(7 - i)
            vals.append(orders[i][j])
    rows += [5, 0, 4]
    cols += [1, 9, 0]
    vals += [dtype(2.5), dtype(-3), dtype(7)]
    return rows, cols, vals


class TestCanonicalOrderMatchesFrozen:
    """The constructor's packed-key sort against the frozen stable
    argsort (``tests/sparse/reference_matrix.py``), byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unsorted_duplicates_sum_in_input_order(self, dtype):
        rows, cols, vals = _order_exposing_cells(dtype)
        got = SparseMatrix(6, 10, rows, cols, vals, dtype=dtype)
        assert got.nnz == 6 + 3
        _assert_matches_frozen(got, 6, 10, rows, cols, vals, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sorted_input_and_one_duplicate(self, small_rmat, dtype):
        vals = np.random.default_rng(3).standard_normal(small_rmat.nnz)
        rows, cols = small_rmat.rows, small_rmat.cols
        got = SparseMatrix(small_rmat.n_rows, small_rmat.n_cols, rows, cols, vals, dtype=dtype)
        _assert_matches_frozen(got, *small_rmat.shape, rows, cols, vals, dtype)
        # The fast path copies: the input stays writeable and unshared.
        assert not np.shares_memory(got.rows, rows) and not np.shares_memory(got.vals, vals)
        at = small_rmat.nnz // 2
        dup_rows = np.insert(rows, at, rows[at])
        dup_cols = np.insert(cols, at, cols[at])
        dup_vals = np.insert(vals, at, 0.25)
        got = SparseMatrix(*small_rmat.shape, dup_rows, dup_cols, dup_vals, dtype=dtype)
        assert got.nnz == small_rmat.nnz
        _assert_matches_frozen(got, *small_rmat.shape, dup_rows, dup_cols, dup_vals, dtype)

    def test_fast_path_does_not_alias_int64_input(self):
        rows = np.array([0, 1, 2], dtype=np.int64)
        cols = np.array([2, 0, 1], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        m = SparseMatrix(3, 3, rows, cols, vals)
        rows[0] = 2
        vals[0] = 9.0
        assert rows.flags.writeable and vals.flags.writeable
        assert m.rows.tolist() == [0, 1, 2] and m.vals.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "rows,cols,vals",
        [([], [], []), ([3], [4], [2.5]), ([2, 2], [1, 1], [1.0, 2.0])],
        ids=["empty", "one-nonzero", "one-cell-twice"],
    )
    def test_degenerate_inputs(self, rows, cols, vals):
        got = SparseMatrix(5, 6, rows, cols, vals)
        _assert_matches_frozen(got, 5, 6, rows, cols, vals)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda m: SparseMatrix.from_csr(m.n_rows, m.n_cols, *m.to_csr(), dtype=m.dtype),
            lambda m: m.transpose(),
            lambda m: m.symmetrized(),
            lambda m: m.permute(
                np.random.default_rng(1).permutation(m.n_rows),
                np.random.default_rng(2).permutation(m.n_cols),
            ),
            lambda m: m.permute(row_perm=np.random.default_rng(4).permutation(m.n_rows)),
            lambda m: m.select_nonzeros(np.random.default_rng(5).random(m.nnz) < 0.5),
            lambda m: m.transpose().symmetrized(),
        ],
        ids=["from_csr", "transpose", "symmetrized", "permute", "permute-rows",
             "select_nonzeros", "transpose-symmetrized"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_derived_matrices(self, monkeypatch, small_rmat, derive, dtype):
        """Every constructor call a transformation makes returns the frozen
        canonicalization of exactly what that call received."""
        vals = np.random.default_rng(6).standard_normal(small_rmat.nnz).astype(dtype)
        base = SparseMatrix(*small_rmat.shape, small_rmat.rows, small_rmat.cols, vals, dtype=dtype)
        live = matrix_module._canonicalize
        calls = []

        def recording(n_rows, n_cols, rows, cols, vals):
            received = (n_rows, n_cols, rows.copy(), cols.copy(), vals.copy())
            out = live(n_rows, n_cols, rows, cols, vals)
            calls.append((received, SparseMatrix._from_canonical(n_rows, n_cols, *out)))
            return out

        monkeypatch.setattr(matrix_module, "_canonicalize", recording)
        got = derive(base)
        monkeypatch.undo()
        assert calls and got == calls[-1][1]
        for (n_rows, n_cols, rows, cols, vals), out in calls:
            assert vals.dtype == dtype
            _assert_matches_frozen(out, n_rows, n_cols, rows, cols, vals, dtype)

    @pytest.mark.parametrize(
        "n_rows,n_cols,packed",
        [
            (2**30, 2**30, True),  # 6 positions take 3 bits: 2**60 cells just fit
            (2**30 - 1, 2**30, True),
            (2**30, 2**30 + 1, False),  # just above: the stable argsort
            (2**31, 2**31, False),
        ],
    )
    def test_shapes_at_the_packing_bound(self, monkeypatch, n_rows, n_cols, packed):
        # The last cell sums 1, 1e8, -1e8 in that order (0; 1 reversed).
        rows = [n_rows - 1, 0, n_rows - 1, 7, n_rows - 1, n_rows - 1]
        cols = [n_cols - 1, n_cols - 1, 0, 3, n_cols - 1, n_cols - 1]
        vals = [1.0, 2.0, 3.0, 4.0, 1e8, -1e8]
        argsorts = []
        real_argsort = np.argsort

        def spy(*args, **kwargs):
            argsorts.append(kwargs.get("kind"))
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        got = SparseMatrix(n_rows, n_cols, rows, cols, vals)
        monkeypatch.undo()
        assert argsorts == ([] if packed else ["stable"])
        assert got.nnz == 4
        _assert_matches_frozen(got, n_rows, n_cols, rows, cols, vals)


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
