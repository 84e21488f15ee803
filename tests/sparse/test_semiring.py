"""gSpMM semiring executor tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import generators
from repro.sparse import semiring as semiring_module
from repro.sparse.matrix import SPMM_BLOCK_BYTES, SparseMatrix
from repro.sparse.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    gspmm,
)


@pytest.fixture(scope="module")
def graph():
    m = generators.rmat(scale=7, nnz=600, seed=71)
    rng = np.random.default_rng(72)
    return SparseMatrix(m.n_rows, m.n_cols, m.rows, m.cols, rng.random(m.nnz) + 0.1)


class TestPlusTimes:
    def test_matches_reference_spmm(self, graph):
        din = np.random.default_rng(0).standard_normal((graph.n_cols, 4)).astype(np.float32)
        np.testing.assert_allclose(
            gspmm(graph, din, PLUS_TIMES), graph.spmm(din), rtol=1e-5, atol=1e-5
        )

    def test_shape_check(self, graph):
        with pytest.raises(ValueError, match="shape"):
            gspmm(graph, np.ones((3, 2)))


class TestMinPlus:
    def test_single_relaxation_step(self):
        """min-plus gSpMM over an adjacency matrix performs one Bellman-Ford
        relaxation: dist'[v] = min over edges (u,v)... here rows relax from
        column distances."""
        # Path graph 0 -> 1 -> 2 with weights 1.0, 2.0 (row = dst, col = src).
        m = SparseMatrix(3, 3, [1, 2], [0, 1], np.array([1.0, 2.0], dtype=np.float32))
        dist = np.array([[0.0], [np.inf], [np.inf]])
        step1 = gspmm(m, dist, MIN_PLUS)
        assert step1[1, 0] == pytest.approx(1.0)
        assert np.isinf(step1[2, 0])
        step2 = gspmm(m, np.minimum(step1, dist), MIN_PLUS)
        assert step2[2, 0] == pytest.approx(3.0)

    def test_empty_rows_hold_identity(self):
        m = SparseMatrix(3, 3, [0], [0], np.array([5.0], dtype=np.float32))
        out = gspmm(m, np.zeros((3, 2)), MIN_PLUS)
        assert np.isinf(out[1]).all() and np.isinf(out[2]).all()
        assert out[0, 0] == pytest.approx(5.0)

    def test_brute_force_small(self):
        m = generators.uniform_random(16, 16, 40, seed=3)
        m = SparseMatrix(16, 16, m.rows, m.cols, np.arange(1.0, 41.0, dtype=np.float64))
        din = np.random.default_rng(4).random((16, 3))
        out = gspmm(m, din, MIN_PLUS)
        expected = np.full((16, 3), np.inf)
        for r, c, v in zip(m.rows, m.cols, m.vals):
            expected[r] = np.minimum(expected[r], v + din[c])
        np.testing.assert_allclose(out, expected)


class TestOrAnd:
    def test_bfs_frontier_expansion(self):
        """or-and gSpMM over a boolean adjacency advances a BFS frontier."""
        # Edges (dst, src): 1<-0, 2<-1.
        m = SparseMatrix(3, 3, [1, 2], [0, 1])
        frontier = np.array([[True], [False], [False]])
        nxt = gspmm(m, frontier, OR_AND)
        assert nxt[:, 0].tolist() == [False, True, False]

    def test_output_is_boolean(self):
        m = SparseMatrix(2, 2, [0], [1])
        out = gspmm(m, np.array([[True], [True]]), OR_AND)
        assert out.dtype == bool


class TestMaxTimes:
    def test_brute_force_small(self):
        m = generators.uniform_random(12, 12, 30, seed=5)
        rng = np.random.default_rng(6)
        m = SparseMatrix(12, 12, m.rows, m.cols, rng.random(30))
        din = rng.random((12, 2))
        out = gspmm(m, din, MAX_TIMES)
        expected = np.zeros((12, 2))
        for r, c, v in zip(m.rows, m.cols, m.vals):
            expected[r] = np.maximum(expected[r], v * din[c])
        np.testing.assert_allclose(out, expected)


def _one_shot_gspmm(matrix, din, semiring):
    """Earlier versions' gSpMM: every product at once, one reduceat."""
    dtype = np.result_type(matrix.vals, din) if semiring is not OR_AND else bool
    out = np.full((matrix.n_rows, din.shape[1]), semiring.additive_identity, dtype=dtype)
    products = semiring.multiply(
        matrix.vals[:, None].astype(dtype, copy=False),
        din[matrix.cols].astype(dtype, copy=False),
    )
    indptr = matrix.indptr()
    present = np.flatnonzero(np.diff(indptr) > 0)
    if present.size:
        out[present] = semiring.add.reduceat(products, indptr[present], axis=0)
    return out


@pytest.fixture(scope="module")
def skewed():
    """Power-law rows (some far above a 5-nonzero block, many empty) with
    values of both signs."""
    m = generators.rmat(scale=8, nnz=3_000, seed=17)
    vals = np.random.default_rng(18).standard_normal(m.nnz)
    return SparseMatrix(m.n_rows, m.n_cols, m.rows, m.cols, vals)


class TestBlocks:
    """Semirings other than plus-times reduce row-aligned blocks; the
    result is exactly the one-shot reduction's."""

    @pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_TIMES, OR_AND], ids=repr)
    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_equal_one_shot(self, monkeypatch, skewed, semiring, k, dtype):
        din = np.random.default_rng(k).standard_normal((skewed.n_cols, k)).astype(dtype)
        if semiring is OR_AND:
            din = din > 0.5
        result = np.result_type(skewed.vals, din) if semiring is not OR_AND else np.dtype(bool)
        step = 5
        monkeypatch.setattr(
            semiring_module,
            "SPMM_BLOCK_BYTES",
            step * k * max(din.itemsize, result.itemsize),
        )
        degrees = np.diff(skewed.indptr())
        assert (degrees == 0).sum() > 10 and (degrees > step).sum() > 10
        assert ((degrees > 0) & (degrees <= step // 2)).sum() > 10
        got = gspmm(skewed, din, semiring)
        want = _one_shot_gspmm(skewed, din, semiring)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_TIMES, OR_AND], ids=repr)
    def test_empty_matrix(self, monkeypatch, semiring):
        monkeypatch.setattr(semiring_module, "SPMM_BLOCK_BYTES", 1)
        m = SparseMatrix.empty(5, 3)
        din = np.ones((3, 4), dtype=bool if semiring is OR_AND else np.float32)
        assert np.array_equal(gspmm(m, din, semiring), _one_shot_gspmm(m, din, semiring))

    def test_peak_memory_is_two_blocks(self, traced_peak):
        """mycielskian(12) at K = 32 float32 gathered and multiplied every
        operand at once (104.7 MB traced at the peak); in blocks the peak
        is the output plus the two per-block budgets."""
        m = generators.mycielskian(12)
        m.indptr()
        din = np.random.default_rng(0).standard_normal((m.n_cols, 32)).astype(np.float32)
        out, peak = traced_peak(lambda: gspmm(m, din, MIN_PLUS))
        assert peak < 1.1 * (out.nbytes + 2 * SPMM_BLOCK_BYTES)
        assert np.array_equal(out, _one_shot_gspmm(m, din, MIN_PLUS))


class TestSemiringType:
    def test_invalid_hint(self):
        with pytest.raises(ValueError, match="ops_per_nnz_hint"):
            Semiring("bad", np.add, np.multiply, 0.0, ops_per_nnz_hint=0)

    def test_non_ufunc_add_rejected_at_use(self):
        s = Semiring("lambda", lambda a, b: a + b, np.multiply, 0.0)
        m = SparseMatrix(2, 2, [0], [0], np.array([1.0], dtype=np.float32))
        with pytest.raises(TypeError, match="ufunc"):
            gspmm(m, np.ones((2, 1)), s)

    def test_repr(self):
        assert "min-plus" in repr(MIN_PLUS)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
def test_plus_times_agrees_with_dense(seed, k):
    rng = np.random.default_rng(seed)
    m = generators.uniform_random(20, 20, 50, seed=seed)
    m = SparseMatrix(20, 20, m.rows, m.cols, rng.random(50))
    din = rng.random((20, k))
    np.testing.assert_allclose(
        gspmm(m, din, PLUS_TIMES), m.to_dense() @ din, rtol=1e-6, atol=1e-6
    )
