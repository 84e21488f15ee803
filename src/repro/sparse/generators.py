"""Synthetic sparse-matrix generators.

The paper evaluates on SuiteSparse matrices (Tables V and VIII).  This
environment has no network access to the collection, so the experiment
harness substitutes *synthetic stand-ins* produced here: each generator
reproduces the tile-level heterogeneity signature of one application domain
(power-law graphs, FEM meshes, citation communities, dense numerical
blocks).  DESIGN.md Sec. 2 documents the substitution.

All generators are deterministic given a ``seed`` and return pattern-style
matrices with unit values (the SpMM kernels are value-agnostic; tests that
need distinct values assign them explicitly).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = [
    "uniform_random",
    "rmat",
    "banded",
    "stencil",
    "community_blocks",
    "dense_blocks",
    "mycielskian",
    "mycielskian_order",
    "mycielskian_nnz",
]


def uniform_random(
    n_rows: int, n_cols: int, nnz: int, seed: int = 0, dtype: np.dtype = np.float32
) -> SparseMatrix:
    """Nonzeros scattered uniformly at random (no intra-matrix heterogeneity).

    This is the distribution the IUnaware/AESPA-style whole-matrix model
    assumes; matrices from this generator are the control case where IMH
    awareness should buy nothing.
    """
    _check_budget(n_rows, n_cols, nnz)
    rng = np.random.default_rng(seed)
    rows, cols = _sample_unique(
        lambda k: (rng.integers(0, n_rows, k), rng.integers(0, n_cols, k)), nnz, n_cols
    )
    return SparseMatrix(n_rows, n_cols, rows, cols, dtype=dtype)


def rmat(
    scale: int,
    nnz: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    symmetrize: bool = False,
    dtype: np.dtype = np.float32,
) -> SparseMatrix:
    """R-MAT / Kronecker power-law graph of ``2**scale`` nodes.

    Stand-in for social networks, web graphs and the ``kron_g500`` synthetic
    graphs: most nonzeros concentrate in a few rows/columns, producing the
    strong IMH the paper motivates with power-law graphs (Sec. I).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum to <= 1")
    n = 1 << scale
    _check_budget(n, n, nnz)
    rng = np.random.default_rng(seed)
    cum = np.cumsum([a, b, c, d])
    # ``Generator.random`` draws from [0, 1), so an edge at or above 1.0
    # never counts; an edge rounded below 1.0 stays (quadrant 4, a carry).
    edges = [edge for edge in cum.tolist() if edge < 1.0]
    # Coordinates stay below 2**(scale + 1) even with a carry at every
    # level: int32 accumulators hold them, with a bit to spare, to scale 29.
    acc = np.int32 if scale <= 29 else np.int64

    def draw(k: int):
        # One rng.random(k) per level, as ever, so the stream is unchanged;
        # the levels reuse one set of buffers.
        rows = np.zeros(k, dtype=acc)
        cols = np.zeros(k, dtype=acc)
        u = np.empty(k)
        quad = np.empty(k, dtype=np.uint8)
        bit = np.empty(k, dtype=np.uint8)
        for _ in range(scale):
            _quadrant(edges, rng.random(out=u), out=quad)
            rows <<= 1
            rows += np.right_shift(quad, 1, out=bit)
            cols <<= 1
            cols += np.bitwise_and(quad, 1, out=bit)
        return rows, cols

    rows, cols = _sample_unique(draw, nnz, n)
    mat = SparseMatrix(n, n, rows, cols, dtype=dtype)
    return mat.symmetrized() if symmetrize else mat


def banded(
    n: int,
    nnz: int,
    bandwidth: int,
    scatter_fraction: float = 0.0,
    seed: int = 0,
    dtype: np.dtype = np.float32,
) -> SparseMatrix:
    """Nonzeros concentrated in a diagonal band (Laplace-distributed offsets).

    Stand-in for geometry/mesh problems (``delaunay``, ``packing``) whose
    nonzeros hug the diagonal, concentrating work in diagonal tiles.
    ``scatter_fraction`` places that share of the nonzeros uniformly at
    random, modeling the long-range edges of real meshes and partitioned
    FEM problems -- they populate many almost-empty tiles, which is what
    makes streaming (hot-only) execution expensive on these matrices.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if not 0 <= scatter_fraction <= 1:
        raise ValueError("scatter_fraction must be in [0, 1]")
    _check_budget(n, n, nnz)
    rng = np.random.default_rng(seed)

    def draw(k: int):
        k_scatter = int(round(k * scatter_fraction))
        k_band = k - k_scatter
        rows = rng.integers(0, n, k_band)
        offsets = np.rint(rng.laplace(0.0, bandwidth / 2.0, k_band)).astype(np.int64)
        cols = np.clip(rows + offsets, 0, n - 1)
        r_s = rng.integers(0, n, k_scatter)
        c_s = rng.integers(0, n, k_scatter)
        # Shuffle the pools together: _sample_unique truncates the tail of
        # each round, which must not bias against either pool.
        order = rng.permutation(k)
        return (
            np.concatenate([rows, r_s])[order],
            np.concatenate([cols, c_s])[order],
        )

    rows, cols = _sample_unique(draw, nnz, n)
    return SparseMatrix(n, n, rows, cols, dtype=dtype)


def stencil(n: int, offsets: Sequence[int], dtype: np.dtype = np.float32) -> SparseMatrix:
    """Deterministic stencil matrix: row ``i`` has nonzeros at ``i + off``.

    Stand-in for regular FEM discretizations (``Serena``, ``gearbox``):
    every row carries the same local pattern, so per-tile statistics are
    homogeneous inside the band.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    offsets = np.asarray(sorted(set(int(o) for o in offsets)), dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), offsets.shape[0])
    cols = rows + np.tile(offsets, n)
    keep = (cols >= 0) & (cols < n)
    return SparseMatrix(n, n, rows[keep], cols[keep], dtype=dtype)


def community_blocks(
    n: int,
    nnz: int,
    n_communities: int,
    intra_fraction: float = 0.8,
    size_skew: float = 1.5,
    seed: int = 0,
    dtype: np.dtype = np.float32,
) -> SparseMatrix:
    """Diagonal community structure: dense blocks on the diagonal plus a
    sparse uniform background.

    Stand-in for citation/collaboration networks such as
    ``coPapersCiteseer``: the paper observes (Sec. III-B, Fig. 5) that its
    communities form dense sub-regions around the diagonal which HotTiles
    classifies as hot.  ``size_skew`` > 1 draws community sizes from a
    power-law so some blocks are much denser than others.
    """
    if not 0 <= intra_fraction <= 1:
        raise ValueError("intra_fraction must be in [0, 1]")
    if n_communities <= 0 or n_communities > n:
        raise ValueError("n_communities must be in [1, n]")
    _check_budget(n, n, nnz)
    rng = np.random.default_rng(seed)

    weights = rng.pareto(size_skew, n_communities) + 1.0
    sizes = np.maximum(1, np.floor(weights / weights.sum() * n).astype(np.int64))
    while sizes.sum() < n:
        sizes[rng.integers(0, n_communities)] += 1
    while sizes.sum() > n:
        big = int(np.argmax(sizes))
        sizes[big] -= 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))

    def draw(k: int):
        k_intra = int(round(k * intra_fraction)) if nnz else 0
        # Intra-community edges: pick a community proportional to size^2
        # (denser small blocks emerge from the pareto size skew).
        comm_w = (sizes.astype(np.float64) ** 2)
        comm = rng.choice(n_communities, size=k_intra, p=comm_w / comm_w.sum())
        lo = bounds[comm]
        span = sizes[comm]
        r_i = lo + (rng.random(k_intra) * span).astype(np.int64)
        c_i = lo + (rng.random(k_intra) * span).astype(np.int64)
        k_inter = k - k_intra
        r_o = rng.integers(0, n, k_inter)
        c_o = rng.integers(0, n, k_inter)
        order = rng.permutation(k)
        return (
            np.concatenate([r_i, r_o])[order],
            np.concatenate([c_i, c_o])[order],
        )

    rows, cols = _sample_unique(draw, nnz, n)
    return SparseMatrix(n, n, rows, cols, dtype=dtype)


def dense_blocks(
    n: int,
    nnz: int,
    n_blocks: int,
    block_size: int,
    background_fraction: float = 0.1,
    seed: int = 0,
    dtype: np.dtype = np.float32,
) -> SparseMatrix:
    """Random dense rectangular blocks over a sparse uniform background.

    Stand-in for the higher-density Table VIII matrices (``mouse_gene``,
    ``nd24k``): most nonzeros live in a few nearly-dense regions scattered
    through the matrix.
    """
    if n_blocks <= 0 or block_size <= 0 or block_size > n:
        raise ValueError("need 1 <= block_size <= n and n_blocks >= 1")
    if not 0 <= background_fraction <= 1:
        raise ValueError("background_fraction must be in [0, 1]")
    _check_budget(n, n, nnz)
    rng = np.random.default_rng(seed)
    block_r = rng.integers(0, n - block_size + 1, n_blocks)
    block_c = rng.integers(0, n - block_size + 1, n_blocks)

    def draw(k: int):
        k_bg = int(round(k * background_fraction))
        k_blk = k - k_bg
        which = rng.integers(0, n_blocks, k_blk)
        r_b = block_r[which] + rng.integers(0, block_size, k_blk)
        c_b = block_c[which] + rng.integers(0, block_size, k_blk)
        r_o = rng.integers(0, n, k_bg)
        c_o = rng.integers(0, n, k_bg)
        order = rng.permutation(k)
        return (
            np.concatenate([r_b, r_o])[order],
            np.concatenate([c_b, c_o])[order],
        )

    rows, cols = _sample_unique(draw, nnz, n)
    return SparseMatrix(n, n, rows, cols, dtype=dtype)


def mycielskian(order: int, dtype: np.dtype = np.float32) -> SparseMatrix:
    """Adjacency matrix of the iterated Mycielskian graph ``M_order``.

    Exact construction (``M_2 = K_2``; ``M_{k+1}`` is the Mycielskian of
    ``M_k``), matching the SuiteSparse ``mycielskian*`` family used for the
    dense ``myc`` benchmark.  ``M_k`` has ``3 * 2**(k-2) - 1`` vertices.
    """
    if order < 2:
        raise ValueError("Mycielskian order must be >= 2")
    # Edge list of M_2 = K_2.
    edges = np.array([[0, 1]], dtype=np.int64)
    n = 2
    for _ in range(order - 2):
        u, v = edges[:, 0], edges[:, 1]
        # Mycielski construction: vertices 0..n-1 keep their edges; shadow
        # vertex n+i connects to the neighbours of i; apex 2n connects to
        # every shadow vertex.
        shadow = np.concatenate(
            [np.stack([u, v + n], axis=1), np.stack([v, u + n], axis=1)]
        )
        apex = np.stack(
            [np.arange(n, 2 * n, dtype=np.int64), np.full(n, 2 * n, dtype=np.int64)], axis=1
        )
        edges = np.concatenate([edges, shadow, apex])
        n = 2 * n + 1
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return SparseMatrix(n, n, rows, cols, dtype=dtype)


def mycielskian_order(n_target: int) -> int:
    """Smallest order whose Mycielskian has at least ``n_target`` vertices."""
    order, n = 2, 2
    while n < n_target:
        order += 1
        n = 2 * n + 1
    return order


def mycielskian_nnz(order: int) -> int:
    """Closed-form nonzero count (directed edges) of ``mycielskian(order)``."""
    edges, n = 1, 2
    for _ in range(order - 2):
        edges = 3 * edges + n
        n = 2 * n + 1
    return 2 * edges


# ----------------------------------------------------------------------
def _check_budget(n_rows: int, n_cols: int, nnz: int) -> None:
    if n_rows <= 0 or n_cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    if nnz > n_rows * n_cols:
        raise ValueError(f"cannot place {nnz} nonzeros in a {n_rows}x{n_cols} matrix")


def _quadrant(
    cum: Sequence[float], u: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """R-MAT quadrant of each draw ``u``: how many edges of ``cum`` are <= it.

    For a non-decreasing ``cum`` this is ``np.searchsorted(cum, u,
    side="right")``, including 4 when rounding leaves ``cum[-1]`` below 1.0,
    at a fraction of the cost.  Counted into ``out`` (uint8, allocated when
    ``None``) and returned.
    """
    if out is None:
        out = np.empty(u.shape, dtype=np.uint8)
    out.fill(0)
    hit = np.empty(u.shape, dtype=np.uint8)
    for edge in cum:
        np.greater_equal(u, edge, out=hit.view(bool))
        out += hit
    return out


def _sample_unique(draw, nnz: int, n_cols: int, max_rounds: int = 64):
    """Draw coordinates until exactly ``nnz`` unique cells are collected.

    ``draw(k)`` returns ``k`` (row, col) samples with replacement; duplicate
    cells are discarded and topped up.  The dedup keeps first-seen samples so
    the marginal distribution of the generator is preserved: each round
    keeps the first occurrence of every cell not accepted before, in draw
    order, and the first ``nnz`` cells accepted are returned row-major
    sorted.
    """
    if nnz == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    span = np.int64(n_cols)
    seen = np.zeros(0, dtype=np.int64)  # every accepted key (row * n_cols + col), sorted
    for _ in range(max_rounds):
        deficit = nnz - seen.shape[0]
        if deficit <= 0:
            break
        r, c = draw(int(deficit * 1.3) + 8)
        key = np.asarray(r, dtype=np.int64) * span + np.asarray(c, dtype=np.int64)
        distinct, first = _first_draws(key)
        if seen.size:
            # Drop the keys an earlier round accepted.
            at = np.searchsorted(seen, distinct)
            fresh = np.ones(distinct.shape[0], dtype=bool)
            inside = at < seen.shape[0]
            fresh[inside] = seen[at[inside]] != distinct[inside]
            seen = np.insert(seen, at[fresh], distinct[fresh])
            first = first[fresh]
        else:
            seen = distinct
        if first.shape[0] > deficit:
            # Accept only this round's first ``deficit`` new cells, in the
            # order they were drawn.
            keep = np.zeros(key.shape[0], dtype=bool)
            keep[first] = True
            seen = np.delete(seen, np.searchsorted(seen, key[keep][deficit:]))
    if seen.shape[0] < nnz:
        raise ValueError(
            f"generator failed to reach {nnz} unique nonzeros "
            f"(got {seen.shape[0]}); the target density may be unreachable"
        )
    return seen // span, seen % span


def _first_draws(key: np.ndarray):
    """``(distinct, first)``: one draw's distinct keys, ascending, and the
    position each first appears at.

    Both are the group heads of one sort of the unique packed int64s
    ``(key << b) | position``: a key's smallest position sorts first.
    Keys too large to share 63 bits with a ``b``-bit position, checked in
    Python ints first, take an argsort and a per-group minimum instead.
    """
    k = key.shape[0]
    pos_bits = max(k - 1, 0).bit_length()
    if int(key.max()) < 1 << (63 - pos_bits):
        packed = key << pos_bits
        packed |= np.arange(k, dtype=np.int64)
        packed.sort()
        ranked = packed >> pos_bits
        head = np.empty(k, dtype=bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        return ranked[head], packed[head] & ((1 << pos_bits) - 1)
    order = np.argsort(key)
    ranked = key[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    return ranked[starts], np.minimum.reduceat(order, starts)
