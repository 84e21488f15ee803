"""Exact differential test: the whole-array ``build_format`` against the
frozen per-tile-loop oracle in ``reference_formats.py``.

Every array field of all four formats must match the oracle's bytes,
shape and dtype -- not merely compute the same SpMM -- over random
matrices and partitions and the degenerate shapes a per-tile loop handles
implicitly: empty and full subsets, a matrix without nonzeros, a single
tile, and a last row panel clipped by ``n_rows``.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.formats import build_format
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.workers import piuma_mtp, piuma_stp, sextans, spade_pe
from tests.pipeline.reference_formats import build_format as reference_build_format

WORKERS = {
    "untiled-coo": spade_pe(),
    "tiled-coo": sextans(4),
    "untiled-csr": piuma_mtp(),
    "tiled-csr": piuma_stp(),
}


def assert_identical(tiled: TiledMatrix, mask: np.ndarray) -> None:
    for name, worker in WORKERS.items():
        got = build_format(tiled, mask, worker)
        want = reference_build_format(tiled, mask, worker)
        assert type(got) is type(want), name
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, (name, f.name)
                assert a.shape == b.shape, (name, f.name)
                assert a.tobytes() == b.tobytes(), (name, f.name)
            else:
                assert type(a) is type(b) and a == b, (name, f.name)


@st.composite
def tiled_matrices(draw):
    n_rows = draw(st.integers(min_value=1, max_value=50))
    n_cols = draw(st.integers(min_value=1, max_value=50))
    nnz = draw(st.integers(min_value=0, max_value=160))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    matrix = SparseMatrix(n_rows, n_cols, np.array(rows), np.array(cols), np.array(vals))
    th = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 16, 64]))
    tw = draw(st.sampled_from([1, 3, 4, 8, 64]))
    return TiledMatrix(matrix, th, tw)


@settings(max_examples=150, deadline=None)
@given(tiled=tiled_matrices(), seed=st.integers(0, 2**16), hot=st.floats(0.0, 1.0))
def test_random_partitions_match_reference(tiled, seed, hot):
    mask = np.random.default_rng(seed).random(tiled.n_tiles) < hot
    assert_identical(tiled, mask)
    assert_identical(tiled, ~mask)


@pytest.mark.parametrize("matrix_name", ["small_rmat", "small_uniform", "small_banded"])
@pytest.mark.parametrize("th,tw", [(32, 32), (256, 128), (100, 64)])
def test_conftest_matrices_match_reference(request, matrix_name, th, tw):
    tiled = TiledMatrix(request.getfixturevalue(matrix_name), th, tw)
    mask = np.random.default_rng(th + tw).random(tiled.n_tiles) < 0.3
    assert_identical(tiled, mask)
    assert_identical(tiled, ~mask)


class TestEdgeCases:
    @pytest.fixture
    def tiled(self, tiny_matrix):
        return TiledMatrix(tiny_matrix, 2, 2)

    def test_empty_subset(self, tiled):
        assert tiled.n_tiles > 1
        assert_identical(tiled, np.zeros(tiled.n_tiles, dtype=bool))

    def test_full_subset(self, tiled):
        assert_identical(tiled, np.ones(tiled.n_tiles, dtype=bool))

    @pytest.mark.parametrize("shape", [(0, 0), (9, 5)])
    def test_matrix_without_nonzeros(self, shape):
        empty = np.zeros(0, dtype=np.int64)
        tiled = TiledMatrix(SparseMatrix(*shape, empty, empty), 4, 4)
        assert tiled.n_tiles == 0
        assert_identical(tiled, np.zeros(0, dtype=bool))

    @pytest.mark.parametrize("take", [True, False])
    def test_one_tile_matrix(self, take):
        matrix = SparseMatrix(5, 6, np.array([0, 0, 2, 4]), np.array([5, 1, 3, 0]))
        tiled = TiledMatrix(matrix, 8, 8)
        assert tiled.n_tiles == 1
        assert_identical(tiled, np.array([take]))

    def test_clipped_last_panel(self):
        # 37 rows in panels of 8: the last panel holds rows 32..36 only, so
        # its tiles carry a 5 + 1 entry local indptr.
        rng = np.random.default_rng(5)
        rows = np.concatenate([rng.integers(0, 37, 120), [36, 36, 32]])
        cols = np.concatenate([rng.integers(0, 20, 120), [0, 19, 7]])
        tiled = TiledMatrix(SparseMatrix(37, 20, rows, cols), 8, 8)
        last = tiled.stats.tile_row == tiled.n_panel_rows - 1
        assert last.any() and tiled.matrix.n_rows % tiled.tile_height
        stp = build_format(tiled, last, piuma_stp())
        assert stp.indptrs.shape[0] == int(last.sum()) * (37 - 32 + 1)
        assert_identical(tiled, last)
        assert_identical(tiled, ~last)
