"""Frozen argsort-based canonical order and unique-cell sampling: the oracle
for ``repro.sparse.matrix._canonicalize`` and ``repro.sparse.generators``'
``_sample_unique`` and ``rmat``.

Kept verbatim, with the ``_check_budget`` and ``_quadrant`` helpers
``rmat`` calls (only this docstring is new), so ``test_matrix.py`` and
``test_generators_differential.py`` can require the production versions --
which take the canonical order and each round's first draws from one sort
of packed ``(key << b) | position`` int64s, skip the sort of input that is
already in canonical order, and pick R-MAT quadrants into preallocated
buffers -- to return exactly the arrays this version returned with a
stable ``np.argsort`` in the constructor and ``np.argsort`` plus
``np.minimum.reduceat`` per sampling round.  Unlike the older oracle in
``reference_generators.py``, whose cell keys wrap int64 above 2**21 rows,
these keys are exact up to the largest shapes the generators accept, so
this oracle judges R-MAT at scales 29 and 30 too.  Imported only by tests.

``rmat`` still builds its matrix through the live :class:`SparseMatrix`
constructor, as it did when frozen; its input is sorted and unique, so the
constructor adds no order of its own, and the constructor itself is pinned
against :func:`_canonicalize` here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix


def _canonicalize(
    n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort nonzeros row-major and sum duplicate coordinates."""
    if rows.size == 0:
        return rows.copy(), cols.copy(), vals.copy()
    keys = rows * np.int64(n_cols) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    unique_mask = np.empty(keys.shape[0], dtype=bool)
    unique_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
    if unique_mask.all():
        return rows[order], cols[order], vals.copy()
    group_ids = np.cumsum(unique_mask) - 1
    summed = np.zeros(int(group_ids[-1]) + 1, dtype=vals.dtype)
    np.add.at(summed, group_ids, vals)
    keys = keys[unique_mask]
    return keys // n_cols, keys % n_cols, summed


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

    def draw(k: int):
        rows = np.zeros(k, dtype=np.int64)
        cols = np.zeros(k, dtype=np.int64)
        for _ in range(scale):
            quad = _quadrant(cum, rng.random(k))
            rows = rows * 2 + (quad >> 1)
            cols = cols * 2 + (quad & 1)
        return rows, cols

    rows, cols = _sample_unique(draw, nnz, n)
    mat = SparseMatrix(n, n, rows, cols, dtype=dtype)
    return mat.symmetrized() if symmetrize else mat


def _check_budget(n_rows: int, n_cols: int, nnz: int) -> None:
    if n_rows <= 0 or n_cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    if nnz > n_rows * n_cols:
        raise ValueError(f"cannot place {nnz} nonzeros in a {n_rows}x{n_cols} matrix")


def _quadrant(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """R-MAT quadrant of each draw ``u``: how many edges of ``cum`` are <= it.

    For a non-decreasing ``cum`` this is ``np.searchsorted(cum, u,
    side="right")``, including 4 when rounding leaves ``cum[-1]`` below 1.0,
    at a fraction of the cost.
    """
    return np.add.reduce([u >= edge for edge in cum], dtype=np.uint8)


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
    accepted = []  # each round's new keys (row * n_cols + col), first-seen order
    seen = np.zeros(0, dtype=np.int64)  # every accepted key, sorted
    n_accepted = 0
    for _ in range(max_rounds):
        deficit = nnz - n_accepted
        if deficit <= 0:
            break
        r, c = draw(int(deficit * 1.3) + 8)
        key = np.asarray(r, dtype=np.int64) * span + np.asarray(c, dtype=np.int64)
        # Distinct keys of this draw, each with the index it first appears at.
        order = np.argsort(key)
        ranked = key[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        distinct = ranked[starts]
        first = np.minimum.reduceat(order, starts)
        # Drop the keys an earlier round accepted.
        at = np.searchsorted(seen, distinct)
        fresh = np.ones(distinct.shape[0], dtype=bool)
        inside = at < seen.shape[0]
        fresh[inside] = seen[at[inside]] != distinct[inside]
        seen = np.insert(seen, at[fresh], distinct[fresh])
        # Accept the rest in the order they were drawn.
        first = np.sort(first[fresh])
        accepted.append(key[first])
        n_accepted += first.shape[0]
    if n_accepted < nnz:
        raise ValueError(
            f"generator failed to reach {nnz} unique nonzeros "
            f"(got {n_accepted}); the target density may be unreachable"
        )
    keys = np.sort(np.concatenate(accepted)[:nnz])
    return keys // span, keys % span
