"""Exact differential test: ``TiledMatrix`` against the frozen oracle in
``reference_tiling.py``.

The production tiling sorts unique packed ``(tile key, position)`` keys and
counts distinct rows and columns per tile with segmented sums; the oracle
ran a stable argsort of the tile keys and prefix sums over boolean arrays.
Every field must match with ``==`` and an equal dtype
(``tiled_bit_identical``): the permutation, the permuted nonzeros, the tile
offsets, the five per-tile statistics, both per-panel statistics and the
inverse permutation.  The delta path is held to the same oracle: the tiling
after each step of a delta chain must equal the oracle's tiling of the
mutated matrix.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_tiled
from repro.streaming.delta import DeltaBatch
from tests.sparse import reference_tiling as reference
from tests.streaming.differential import tiled_bit_identical


def assert_identical(matrix, th, tw):
    assert tiled_bit_identical(
        TiledMatrix(matrix, th, tw), reference.TiledMatrix(matrix, th, tw)
    )


@st.composite
def matrices(draw):
    kind = draw(st.sampled_from(["rmat", "uniform", "banded"]))
    if kind == "rmat":
        scale = draw(st.integers(1, 8))
        nnz = draw(st.integers(0, min(3_000, 1 << (2 * scale)) // 2))
        make, args = generators.rmat, dict(scale=scale, nnz=nnz)
    elif kind == "uniform":
        n_rows, n_cols = draw(st.integers(1, 300)), draw(st.integers(1, 300))
        nnz = draw(st.integers(0, min(3_000, n_rows * n_cols)))
        make, args = generators.uniform_random, dict(n_rows=n_rows, n_cols=n_cols, nnz=nnz)
    else:
        n = draw(st.integers(1, 400))
        make, args = generators.banded, dict(
            n=n,
            nnz=draw(st.integers(0, min(3_000, n * n // 2))),
            bandwidth=draw(st.integers(1, 24)),
            scatter_fraction=draw(st.sampled_from([0.0, 0.1, 1.0])),
        )
    seed = draw(st.integers(0, 2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    try:
        return make(**args, seed=seed, dtype=dtype)
    except ValueError as exc:  # a skewed or banded draw can miss a dense target
        assume("unreachable" not in str(exc))
        raise


#: Heights and widths of 1, non-powers of two, powers of two, and (with
#: the matrices above) larger than the matrix.
TILE_DIMS = st.one_of(st.sampled_from([1, 2, 3, 7, 64, 100, 128, 1000]), st.integers(1, 600))


@settings(max_examples=200, deadline=None)
@given(matrix=matrices(), th=TILE_DIMS, tw=TILE_DIMS)
def test_fuzz_matches_reference(matrix, th, tw):
    assert_identical(matrix, th, tw)


def _matrix(n_rows, n_cols, coords, dtype=np.float32):
    rows = [r for r, _ in coords]
    cols = [c for _, c in coords]
    vals = np.arange(1, len(coords) + 1)
    return SparseMatrix(n_rows, n_cols, rows, cols, vals, dtype=dtype)


FIXED = {
    "0x0": (SparseMatrix.empty(0, 0), 4, 4),
    "empty-64x64": (SparseMatrix.empty(64, 64), 16, 16),
    "one-nonzero": (_matrix(50, 70, [(33, 41)]), 16, 16),
    "one-row": (_matrix(1, 500, [(0, c) for c in range(0, 500, 7)]), 1, 64),
    "one-column": (_matrix(500, 1, [(r, 0) for r in range(0, 500, 3)], np.float64), 32, 1),
    # Rows 8-39 are empty, so panels 1 and 2 (16-row tiles) hold nothing.
    "empty-rows-and-panels": (
        _matrix(64, 64, [(0, 0), (0, 63), (3, 5), (7, 7), (40, 2), (63, 0), (63, 63)]),
        16, 16,
    ),
    # 100 rows and columns cut 32-wide: the last panel and tile column hold 4.
    "clipped-last-panel": (
        _matrix(100, 100, [(r, (r * 37) % 100) for r in range(100)] + [(99, 99), (97, 3)]),
        32, 32,
    ),
    "tile-larger-than-matrix": (_matrix(10, 12, [(1, 2), (9, 11), (9, 0), (5, 5)]), 64, 1000),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_cases_match_reference(name):
    assert_identical(*FIXED[name])


@pytest.mark.parametrize(
    "matrix,th,tw",
    [
        (generators.rmat(scale=10, nnz=8_000, seed=42), 32, 32),
        (generators.uniform_random(1024, 700, 8_000, seed=42, dtype=np.float64), 16, 5),
        (generators.banded(1024, 10_000, bandwidth=24, scatter_fraction=0.1, seed=42), 100, 7),
    ],
    ids=["rmat", "uniform", "banded"],
)
def test_delta_chain_matches_reference_retiling(matrix, th, tw):
    # Inserts land anywhere and these tilings leave many tiles empty, so
    # every step creates brand-new tiles as well as dirtying existing ones;
    # each step must equal the oracle's from-scratch tiling of the mutated
    # matrix.
    tiled = TiledMatrix(matrix, th, tw)
    for step in range(3):
        delta = DeltaBatch.random(tiled.matrix, inserts=150, deletes=80, seed=step)
        before = set(zip(tiled.stats.tile_row.tolist(), tiled.stats.tile_col.tolist()))
        tiled, report = apply_delta_tiled(tiled, delta)
        after = set(zip(tiled.stats.tile_row.tolist(), tiled.stats.tile_col.tolist()))
        assert after - before
        assert tiled_bit_identical(tiled, reference.TiledMatrix(tiled.matrix, th, tw))
