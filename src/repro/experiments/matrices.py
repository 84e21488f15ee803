"""Benchmark matrices: synthetic stand-ins for Tables V and VIII.

The paper evaluates on SuiteSparse matrices.  Without network access to
the collection (and without the budget to push 100M-nonzero matrices
through a Python simulator) each benchmark is replaced by a synthetic
matrix from :mod:`repro.sparse.generators` whose *tile-level* structure
matches the original's application domain, scaled down by
``MATRIX_SCALE_DIVISOR`` on rows and nonzeros simultaneously (DESIGN.md
Sec. 6: this preserves per-tile nnz/width ratios, hence per-tile
arithmetic intensity and the hot/cold tradeoff).

Domain mapping:

- internet topology / social networks / web graphs (``ski``, ``pok``,
  ``wik``) and the synthetic ``kron`` graph -> R-MAT power-law graphs,
- citation networks (``pap``) -> diagonal community blocks (the paper's
  Fig. 5 observes exactly this structure in coPapersCiteseer),
- geometry/VLSI/numerical meshes (``del``, ``dgr``, ``pac``, ``ser``,
  ``gea``, ``rm0``, ``si4``) -> diagonal-banded matrices with
  domain-appropriate bandwidths and row densities,
- ``myc`` -> an *exact* iterated Mycielskian graph (the same family as
  SuiteSparse's ``mycielskian17``), order 13 to land near the scaled
  nonzero budget,
- dense biology/2D-3D problems (``mou``, ``nd2``) -> scattered dense
  blocks over a sparse background.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix

__all__ = [
    "BenchmarkMatrix",
    "TABLE_V",
    "TABLE_VIII",
    "ALL_MATRICES",
    "load_matrix",
    "profiling_matrices",
]


@dataclass(frozen=True)
class BenchmarkMatrix:
    """One benchmark entry: paper metadata plus the synthetic recipe."""

    short: str
    full_name: str
    domain: str
    paper_rows_millions: float
    paper_nnz_millions: float
    builder: Callable[[], SparseMatrix]

    def load(self) -> SparseMatrix:
        return load_matrix(self.short)


def _rmat(scale: int, nnz: int, seed: int, a: float = 0.57) -> Callable[[], SparseMatrix]:
    b = c = (1.0 - a) / 2.0 - 0.05
    return lambda: generators.rmat(scale=scale, nnz=nnz, a=a, b=b, c=c, seed=seed)


def _banded(
    n: int, nnz: int, bw: int, seed: int, scatter: float = 0.0
) -> Callable[[], SparseMatrix]:
    return lambda: generators.banded(
        n=n, nnz=nnz, bandwidth=bw, scatter_fraction=scatter, seed=seed
    )


def _community(n: int, nnz: int, comms: int, seed: int) -> Callable[[], SparseMatrix]:
    return lambda: generators.community_blocks(
        n=n, nnz=nnz, n_communities=comms, intra_fraction=0.85, seed=seed
    )


def _blocks(
    n: int, nnz: int, blocks: int, size: int, seed: int
) -> Callable[[], SparseMatrix]:
    return lambda: generators.dense_blocks(
        n=n, nnz=nnz, n_blocks=blocks, block_size=size, background_fraction=0.12, seed=seed
    )


#: Table V: the ten main benchmark matrices (paper rows/nnz in millions).
TABLE_V: Dict[str, BenchmarkMatrix] = {
    m.short: m
    for m in [
        BenchmarkMatrix(
            "ski", "as-Skitter", "Internet topology", 1.7, 22, _rmat(15, 344_000, 11)
        ),
        BenchmarkMatrix(
            "pap", "coPapersCiteseer", "Citation network", 0.4, 32, _community(6656, 500_000, 48, 12)
        ),
        BenchmarkMatrix(
            "del", "delaunay_n22", "Geometry problem", 4.2, 25, _banded(65536, 390_000, 24, 13, scatter=0.12)
        ),
        BenchmarkMatrix(
            "dgr", "dgreen", "VLSI", 1.2, 27, _banded(18944, 422_000, 320, 14, scatter=0.08)
        ),
        BenchmarkMatrix(
            "kro", "kron_g500-logn19", "Synthetic graph", 0.5, 44, _rmat(13, 660_000, 15)
        ),
        BenchmarkMatrix(
            "myc", "mycielskian17", "Math.", 0.1, 100, lambda: generators.mycielskian(13)
        ),
        BenchmarkMatrix(
            "pac",
            "packing-500x100x100-b050",
            "Numerical simulation",
            2.1,
            35,
            _banded(32768, 547_000, 112, 16, scatter=0.10),
        ),
        BenchmarkMatrix(
            "ser", "Serena", "Environ. science", 1.4, 64, _banded(21888, 1_000_000, 72, 17, scatter=0.03)
        ),
        BenchmarkMatrix(
            "pok", "soc-Pokec", "Social network", 1.6, 31, _rmat(15, 484_000, 18, a=0.6)
        ),
        BenchmarkMatrix(
            "wik", "wiki-topcats", "Web graph", 1.8, 29, _rmat(15, 453_000, 19, a=0.65)
        ),
    ]
}

#: Table VIII: the five higher-density matrices of Fig. 15.
TABLE_VIII: Dict[str, BenchmarkMatrix] = {
    m.short: m
    for m in [
        BenchmarkMatrix(
            "gea", "gearbox", "Aerospace engineering", 0.15, 9, _banded(2344, 141_000, 48, 21)
        ),
        BenchmarkMatrix(
            "mou", "mouse_gene", "Molecular biology", 0.05, 29, _blocks(1408, 450_000, 12, 176, 22)
        ),
        BenchmarkMatrix(
            "nd2", "nd24k", "2D/3D problem", 0.07, 29, _blocks(2250, 450_000, 24, 128, 23)
        ),
        BenchmarkMatrix(
            "rm0", "RM07R", "Comput. dynamics", 0.38, 37, _banded(5952, 578_000, 64, 24)
        ),
        BenchmarkMatrix(
            "si4", "Si41Ge41H72", "Quantum chemistry", 0.19, 15, _banded(2944, 234_000, 224, 25)
        ),
    ]
}

#: Both sets, keyed by short name.
ALL_MATRICES: Dict[str, BenchmarkMatrix] = {**TABLE_V, **TABLE_VIII}


@lru_cache(maxsize=None)
def load_matrix(short: str) -> SparseMatrix:
    """Build (and cache) a benchmark matrix by its short name."""
    try:
        entry = ALL_MATRICES[short]
    except KeyError:
        known = ", ".join(sorted(ALL_MATRICES))
        raise ValueError(f"unknown benchmark {short!r}; known: {known}") from None
    return entry.builder()


@lru_cache(maxsize=None)
def profiling_matrices() -> Tuple[SparseMatrix, ...]:
    """Small test matrices for the ``vis_lat`` profiling runs (Sec. VI-B).

    Deliberately *not* benchmark matrices: a uniform scatter, a banded
    mesh and a small power-law graph, each a few thousand nonzeros, so
    calibration stays cheap and unbiased toward any benchmark.
    """
    return (
        generators.uniform_random(4096, 4096, 40_000, seed=101),
        generators.banded(4096, 60_000, bandwidth=64, seed=102),
        generators.rmat(scale=12, nnz=50_000, seed=103),
    )
