"""Immutable sparse-matrix container used throughout the reproduction.

The HotTiles pipeline only needs a handful of sparse-matrix capabilities:
canonical COO storage (row-major sorted, deduplicated), CSR views, a
reference SpMM for correctness checks, and cheap structural queries
(degrees, density).  ``scipy.sparse`` would provide these, but the paper's
software stack generates custom accelerator formats from raw index arrays,
so we keep the representation explicit and dependency-light.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

__all__ = ["SparseMatrix", "coo_spmm", "SPMM_BLOCK_BYTES"]

#: Bytes one :func:`coo_spmm` block may gather from *Din*, and separately
#: hold as products: 16 MiB, i.e. 2**19 nonzeros at K = 4 float64 and
#: 2**17 at K = 32 float32.  Blocks bound an SpMM's temporaries to about
#: two budgets at any nonzero count.
SPMM_BLOCK_BYTES = 16 << 20


class SparseMatrix:
    """A 2-D sparse matrix in canonical COO form.

    The nonzeros are stored row-major sorted (primary key ``row``, secondary
    key ``col``) with duplicates summed.  Instances are treated as immutable:
    the underlying arrays are flagged non-writeable and every transformation
    returns a new object.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    rows, cols:
        Integer coordinate arrays of equal length.
    vals:
        Nonzero values; if omitted, all values are 1.0 (pattern matrix).
    dtype:
        Floating-point dtype for the values (``float32`` for the
        SPADE-Sextans experiments, ``float64`` for PIUMA, as in the paper).
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "vals", "_indptr", "_digest")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: Optional[np.ndarray] = None,
        dtype: np.dtype = np.float32,
    ) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"matrix dimensions must be non-negative, got {n_rows}x{n_cols}")
        # The canonical order sorts ``row * n_cols + col`` keys, whose
        # largest is n_rows * n_cols - 1; a key that wrapped int64 would
        # silently store the nonzeros out of row-major order.
        if int(n_rows) * int(n_cols) > 2**63:
            raise ValueError(
                f"a {n_rows}x{n_cols} matrix has more cells than int64 keys can address"
            )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.ndim != 1 or cols.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=dtype)
        else:
            vals = np.asarray(vals, dtype=dtype)
            if vals.shape != rows.shape:
                raise ValueError("vals must have the same length as rows/cols")
        if rows.size:
            if rows.min(initial=0) < 0 or cols.min(initial=0) < 0:
                raise ValueError("negative indices are not allowed")
            if rows.max(initial=-1) >= n_rows or cols.max(initial=-1) >= n_cols:
                raise ValueError(
                    f"index out of range for a {n_rows}x{n_cols} matrix "
                    f"(max row {rows.max()}, max col {cols.max()})"
                )
        rows, cols, vals = _canonicalize(n_rows, n_cols, rows, cols, vals)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._indptr: Optional[np.ndarray] = None
        self._digest: Optional[str] = None
        for arr in (self.rows, self.cols, self.vals):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype: np.dtype = np.float32) -> "SparseMatrix":
        """Build from a dense 2-D array, keeping exact nonzeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols], dtype=dtype)

    @classmethod
    def from_csr(
        cls,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        vals: Optional[np.ndarray] = None,
        dtype: np.dtype = np.float32,
    ) -> "SparseMatrix":
        """Build from CSR arrays (``indptr`` of length ``n_rows + 1``)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        if indptr.shape != (n_rows + 1,):
            raise ValueError(f"indptr must have length n_rows + 1 = {n_rows + 1}")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        indices = np.asarray(indices, dtype=np.int64)
        if indptr[-1] != indices.shape[0]:
            raise ValueError("indptr[-1] must equal len(indices)")
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        return cls(n_rows, n_cols, rows, indices, vals, dtype=dtype)

    @classmethod
    def identity(cls, n: int, dtype: np.dtype = np.float32) -> "SparseMatrix":
        """The ``n x n`` identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, idx, idx, np.ones(n, dtype=dtype), dtype=dtype)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, dtype: np.dtype = np.float32) -> "SparseMatrix":
        """A matrix with no nonzeros."""
        z = np.zeros(0, dtype=np.int64)
        return cls(n_rows, n_cols, z, z, np.zeros(0, dtype=dtype), dtype=dtype)

    @classmethod
    def _from_canonical(
        cls,
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        indptr: Optional[np.ndarray] = None,
    ) -> "SparseMatrix":
        """Wrap arrays that are *already* canonical, skipping validation.

        Trusted internal constructor for the incremental delta-merge path
        (:mod:`repro.streaming.apply`), which maintains the canonical order
        by construction.  ``indptr``, when given, must be the matching CSR
        row-pointer array; it is adopted as the cached value.
        """
        self = object.__new__(cls)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        if indptr is not None:
            indptr.flags.writeable = False
        self._indptr = indptr
        self._digest = None
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        return self

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.rows.shape[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    @property
    def density(self) -> float:
        """Fraction of cells that hold a nonzero (0 for empty shapes)."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    def row_degrees(self) -> np.ndarray:
        """Number of nonzeros in each row."""
        return np.bincount(self.rows, minlength=self.n_rows).astype(np.int64)

    def col_degrees(self) -> np.ndarray:
        """Number of nonzeros in each column."""
        return np.bincount(self.cols, minlength=self.n_cols).astype(np.int64)

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(indptr, indices, vals)`` CSR views of this matrix."""
        return self.indptr(), self.cols, self.vals

    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (cached; nonzeros are already row-sorted)."""
        if self._indptr is None:
            counts = np.bincount(self.rows, minlength=self.n_rows)
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indptr.flags.writeable = False
            self._indptr = indptr
        return self._indptr

    def content_digest(self) -> str:
        """Stable hex digest of the matrix content (shape, dtype, nonzeros).

        Two matrices with identical canonical COO content share a digest
        across processes and runs; it is the matrix component of the
        experiment-cache key.  Computed once and memoized.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(
                f"SparseMatrix:{self.n_rows}x{self.n_cols}:{self.vals.dtype.str}:".encode()
            )
            h.update(self.rows.tobytes())
            h.update(self.cols.tobytes())
            h.update(self.vals.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (use on small matrices only)."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "SparseMatrix":
        """The transposed matrix."""
        return SparseMatrix(
            self.n_cols, self.n_rows, self.cols, self.rows, self.vals, dtype=self.vals.dtype
        )

    def astype(self, dtype: np.dtype) -> "SparseMatrix":
        """Copy with values cast to ``dtype``."""
        return SparseMatrix(
            self.n_rows, self.n_cols, self.rows, self.cols, self.vals.astype(dtype), dtype=dtype
        )

    def permute(
        self, row_perm: Optional[np.ndarray] = None, col_perm: Optional[np.ndarray] = None
    ) -> "SparseMatrix":
        """Apply row/column permutations.

        ``row_perm[i]`` gives the *new* index of old row ``i`` (and likewise
        for columns), i.e. the scatter convention used by reordering
        algorithms.
        """
        rows, cols = self.rows, self.cols
        if row_perm is not None:
            row_perm = _check_perm(row_perm, self.n_rows, "row_perm")
            rows = row_perm[rows]
        if col_perm is not None:
            col_perm = _check_perm(col_perm, self.n_cols, "col_perm")
            cols = col_perm[cols]
        return SparseMatrix(self.n_rows, self.n_cols, rows, cols, self.vals, dtype=self.vals.dtype)

    def select_nonzeros(self, mask: np.ndarray) -> "SparseMatrix":
        """Keep only the nonzeros selected by a boolean mask (same shape)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.rows.shape:
            raise ValueError("mask must have one entry per nonzero")
        return SparseMatrix(
            self.n_rows,
            self.n_cols,
            self.rows[mask],
            self.cols[mask],
            self.vals[mask],
            dtype=self.vals.dtype,
        )

    def symmetrized(self) -> "SparseMatrix":
        """Return ``A + A^T`` pattern-wise (values summed on collisions)."""
        rows = np.concatenate([self.rows, self.cols])
        cols = np.concatenate([self.cols, self.rows])
        vals = np.concatenate([self.vals, self.vals])
        return SparseMatrix(
            max(self.n_rows, self.n_cols),
            max(self.n_rows, self.n_cols),
            rows,
            cols,
            vals,
            dtype=self.vals.dtype,
        )

    def without_diagonal(self) -> "SparseMatrix":
        """Drop nonzeros on the main diagonal."""
        return self.select_nonzeros(self.rows != self.cols)

    def apply_delta(self, delta) -> "SparseMatrix":
        """Apply a :class:`repro.streaming.delta.DeltaBatch` incrementally.

        Returns a new matrix (or ``self`` for an empty batch) whose arrays
        are bit-identical to rebuilding from the mutated coordinates; see
        :func:`repro.streaming.apply.apply_delta_matrix` for the merge.
        """
        from repro.streaming.apply import apply_delta_matrix

        return apply_delta_matrix(self, delta)[0]

    # ------------------------------------------------------------------
    # Reference kernels
    # ------------------------------------------------------------------
    def spmm(self, dense: np.ndarray) -> np.ndarray:
        """Reference SpMM: ``A @ Din`` for a dense ``Din`` of shape (n_cols, K).

        This is the functional ground truth used by the tests to verify that
        the accelerator formats generated by :mod:`repro.pipeline.formats`
        preserve the computation.
        """
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != self.n_cols:
            raise ValueError(
                f"dense input must have shape ({self.n_cols}, K), got {dense.shape}"
            )
        return coo_spmm(self.n_rows, self.rows, self.cols, self.vals, dense)

    def spmv(self, vec: np.ndarray) -> np.ndarray:
        """Reference SpMV: ``A @ x``."""
        vec = np.asarray(vec)
        if vec.shape != (self.n_cols,):
            raise ValueError(f"vector must have shape ({self.n_cols},), got {vec.shape}")
        return self.spmm(vec[:, None])[:, 0]

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"SparseMatrix(shape={self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"density={self.density:.2e}, dtype={self.vals.dtype})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and bool(np.array_equal(self.rows, other.rows))
            and bool(np.array_equal(self.cols, other.cols))
            and bool(np.array_equal(self.vals, other.vals))
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __setstate__(self, state: Tuple[None, dict]) -> None:
        # Default __slots__ pickling, plus re-flagging the coordinate
        # arrays read-only: numpy does not preserve writeability across a
        # pickle round trip, and instances must stay immutable in pool
        # worker processes too.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        for arr in (self.rows, self.cols, self.vals):
            arr.flags.writeable = False


def coo_spmm(
    n_rows: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, din: np.ndarray
) -> np.ndarray:
    """``Dout = A @ Din`` for the COO triple ``(rows, cols, vals)`` of ``A``.

    The one SpMM kernel: every format's ``spmm`` and
    :meth:`SparseMatrix.spmm` call it.  Nonzeros are accumulated with
    ``np.add.at`` in storage order, in consecutive blocks whose gathered
    *Din* rows and products each fit in :data:`SPMM_BLOCK_BYTES` (after
    Liu & Vinter's fixed-size nonzero chunks).  ``np.add.at`` adds its
    operands in order, so every output element sums the same products in
    the same order as one whole-array call: the result is bit-identical
    for any block size.
    """
    out = np.zeros((n_rows, din.shape[1]), dtype=np.result_type(vals, din))
    row_bytes = max(din.shape[1], 1) * max(din.itemsize, out.itemsize)
    step = max(SPMM_BLOCK_BYTES // row_bytes, 1)
    for lo in range(0, rows.shape[0], step):
        hi = lo + step
        np.add.at(out, rows[lo:hi], vals[lo:hi, None] * din[cols[lo:hi]])
    return out


def _canonicalize(
    n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort nonzeros row-major and sum duplicate coordinates.

    The order is the stable one: duplicate cells are summed in input
    order.  Input whose row-major keys already strictly increase (every
    generator's output) is copied without sorting.  Otherwise one sort of
    unique packed ``(key << b) | position`` int64s gives the stable order
    (as :class:`~repro.sparse.tiling.TiledMatrix` sorts its tile keys);
    shapes too large for key and position to share 63 bits, checked in
    Python ints first, fall back to a stable argsort.
    """
    n = rows.shape[0]
    if n == 0:
        return rows.copy(), cols.copy(), vals.copy()
    keys = rows * np.int64(n_cols) + cols
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.greater(keys[1:], keys[:-1], out=head[1:])
    if head.all():
        return rows.copy(), cols.copy(), vals.copy()
    pos_bits = (n - 1).bit_length()
    if (int(n_rows) * int(n_cols)) << pos_bits <= 2**63:
        keys <<= pos_bits
        keys |= np.arange(n, dtype=np.int64)
        keys.sort()
        order = keys & ((1 << pos_bits) - 1)
        keys >>= pos_bits
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    vals = vals[order]
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    if head.all():
        return rows[order], cols[order], vals
    group_ids = np.cumsum(head) - 1
    summed = np.zeros(int(group_ids[-1]) + 1, dtype=vals.dtype)
    np.add.at(summed, group_ids, vals)
    keys = keys[head]
    return keys // n_cols, keys % n_cols, summed


def _check_perm(perm: np.ndarray, n: int, name: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValueError(f"{name} is not a permutation of 0..{n - 1}")
    return perm
