"""Shared fixtures: small matrices and architectures for fast tests."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.experiments.cache import CACHE_DIR_ENV
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Point the result cache at a session temp directory before any test
    runs, so the suite leaves nothing in ``~/.cache/hottiles``; test
    subprocesses inherit the variable."""
    path = tmp_path_factory.mktemp("hottiles-cache")
    os.environ[CACHE_DIR_ENV] = str(path)
    return path


@pytest.fixture(scope="session")
def small_rmat() -> SparseMatrix:
    """A small power-law matrix (strong IMH)."""
    return generators.rmat(scale=10, nnz=8_000, seed=42)


@pytest.fixture(scope="session")
def small_uniform() -> SparseMatrix:
    """A small uniform matrix (no IMH)."""
    return generators.uniform_random(1024, 1024, 8_000, seed=42)


@pytest.fixture(scope="session")
def small_banded() -> SparseMatrix:
    """A small banded mesh-like matrix."""
    return generators.banded(1024, 10_000, bandwidth=24, seed=42)


@pytest.fixture(scope="session")
def small_mycielskian() -> SparseMatrix:
    """A Mycielskian graph: 383 vertices, 9 tiles of ~1,600 nonzeros."""
    return generators.mycielskian(9)


@pytest.fixture(scope="session")
def small_dense_blocks() -> SparseMatrix:
    """Dense random blocks over a sparse uniform background."""
    return generators.dense_blocks(
        512, 12_000, 4, 96, background_fraction=0.12, seed=42
    )


@pytest.fixture(scope="session")
def small_community() -> SparseMatrix:
    """Skewed diagonal communities plus cross-community edges."""
    return generators.community_blocks(1024, 10_000, 8, intra_fraction=0.85, seed=42)


@pytest.fixture(scope="session")
def tiny_matrix() -> SparseMatrix:
    """An 8x8 hand-checkable matrix."""
    rows = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7, 7])
    cols = np.array([0, 7, 1, 2, 0, 4, 5, 6, 0, 7])
    vals = np.arange(1.0, 11.0, dtype=np.float32)
    return SparseMatrix(8, 8, rows, cols, vals)


@pytest.fixture(scope="session")
def spade_sextans_arch():
    """Scale-4 SPADE-Sextans (the paper's base system)."""
    return spade_sextans(4)


@pytest.fixture(scope="session")
def piuma_arch():
    return piuma()


@pytest.fixture(scope="session")
def pcie_arch():
    """Scale-4 SPADE-Sextans with its hot workers behind PCIe."""
    return spade_sextans_pcie(4)


@pytest.fixture()
def tiled_rmat(small_rmat, spade_sextans_arch) -> TiledMatrix:
    return TiledMatrix(small_rmat, spade_sextans_arch.tile_height, spade_sextans_arch.tile_width)


@pytest.fixture()
def traced_peak():
    """``measure(fn) -> (fn(), peak)``: the most bytes ``tracemalloc``
    saw allocated at once while ``fn`` ran, above what was live before
    (NumPy reports its array buffers to ``tracemalloc``)."""

    def measure(fn):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        return result, peak

    return measure
