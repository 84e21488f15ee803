"""The :class:`DeltaBatch` record: one batch of nnz mutations.

A batch names coordinate-level edits against a sparse matrix:

- *deletes* -- ``(row, col)`` cells whose nonzero is removed (deleting an
  absent cell is a silent no-op, so replayed batches are idempotent),
- *inserts* -- ``(row, col, val)`` upserts: a new nonzero if the cell was
  empty, a value overwrite if it already held one.

Application order within a batch is deletes first, then inserts, so a
cell named by both ends up holding the inserted value.  Batches are
canonicalized at construction (coordinates sorted row-major, duplicate
delete cells collapsed, duplicate insert cells resolved last-wins) and
frozen, which makes :meth:`DeltaBatch.content_digest` a stable content
address -- the lineage-chain component of a repaired plan's digest.

Seeded generators (:meth:`DeltaBatch.random`, :func:`delta_stream`)
produce reproducible mutation workloads for the differential tests and
the benchmark's serve-deltas workload.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = ["DeltaBatch", "delta_stream"]


def _as_index_array(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D integer array")
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    return arr


class DeltaBatch:
    """One canonical, immutable batch of sparse-matrix mutations."""

    __slots__ = (
        "insert_rows", "insert_cols", "insert_vals",
        "delete_rows", "delete_cols", "_digest",
    )

    def __init__(
        self,
        insert_rows: Any = (),
        insert_cols: Any = (),
        insert_vals: Any = (),
        delete_rows: Any = (),
        delete_cols: Any = (),
    ) -> None:
        ir = _as_index_array(insert_rows, "insert_rows")
        ic = _as_index_array(insert_cols, "insert_cols")
        iv = np.asarray(insert_vals, dtype=np.float64)
        if iv.ndim != 1 or iv.shape != ir.shape or ic.shape != ir.shape:
            raise ValueError(
                "insert_rows / insert_cols / insert_vals must be 1-D arrays "
                "of equal length"
            )
        dr = _as_index_array(delete_rows, "delete_rows")
        dc = _as_index_array(delete_cols, "delete_cols")
        if dc.shape != dr.shape:
            raise ValueError("delete_rows and delete_cols must have equal length")

        ir, ic, iv = _canonicalize_inserts(ir, ic, iv)
        dr, dc = _canonicalize_deletes(dr, dc)
        self.insert_rows = ir
        self.insert_cols = ic
        self.insert_vals = iv
        self.delete_rows = dr
        self.delete_cols = dc
        self._digest: Optional[str] = None
        for arr in (ir, ic, iv, dr, dc):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    @property
    def n_inserts(self) -> int:
        return int(self.insert_rows.shape[0])

    @property
    def n_deletes(self) -> int:
        return int(self.delete_rows.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.n_inserts == 0 and self.n_deletes == 0

    def __len__(self) -> int:
        return self.n_inserts + self.n_deletes

    def __repr__(self) -> str:
        return f"DeltaBatch(inserts={self.n_inserts}, deletes={self.n_deletes})"

    def validate_against(self, n_rows: int, n_cols: int) -> None:
        """Raise :class:`ValueError` unless every coordinate fits the shape."""
        for rows, cols, what in (
            (self.insert_rows, self.insert_cols, "insert"),
            (self.delete_rows, self.delete_cols, "delete"),
        ):
            if rows.size == 0:
                continue
            if rows.max() >= n_rows or cols.max() >= n_cols:
                raise ValueError(
                    f"{what} coordinate out of range for a {n_rows}x{n_cols} "
                    f"matrix (max row {rows.max()}, max col {cols.max()})"
                )

    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """Stable hex digest over the canonical batch content (memoized)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"DeltaBatch:{self.n_inserts}:{self.n_deletes}:".encode())
            for arr in (
                self.insert_rows, self.insert_cols, self.insert_vals,
                self.delete_rows, self.delete_cols,
            ):
                h.update(arr.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the ``POST /matrices/{digest}/delta`` body)."""
        return {
            "insert_rows": self.insert_rows.tolist(),
            "insert_cols": self.insert_cols.tolist(),
            "insert_vals": self.insert_vals.tolist(),
            "delete_rows": self.delete_rows.tolist(),
            "delete_cols": self.delete_cols.tolist(),
        }

    _FIELDS = ("insert_rows", "insert_cols", "insert_vals", "delete_rows", "delete_cols")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeltaBatch":
        """Validate and build a batch from a decoded JSON object."""
        if not isinstance(payload, Mapping):
            raise ValueError("delta body must be a JSON object")
        unknown = set(payload) - set(cls._FIELDS)
        if unknown:
            raise ValueError(f"unknown delta field(s): {', '.join(sorted(unknown))}")
        kwargs = {}
        for field in cls._FIELDS:
            value = payload.get(field, ())
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{field} must be a list")
            numeric = float if field == "insert_vals" else int
            for item in value:
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise ValueError(f"{field} entries must be numbers")
                if numeric is int and int(item) != item:
                    raise ValueError(f"{field} entries must be integers")
            kwargs[field] = [numeric(item) for item in value]
        return cls(**kwargs)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        matrix: SparseMatrix,
        inserts: int,
        deletes: int,
        seed: int = 0,
        insert_region: Optional[Tuple[int, int, int, int]] = None,
        value_scale: float = 1.0,
    ) -> "DeltaBatch":
        """A seeded batch targeting ``matrix``.

        Deletes are drawn without replacement from the existing nonzeros;
        inserts are uniform over the matrix shape (or over
        ``insert_region`` = ``(row_lo, row_hi, col_lo, col_hi)``, which the
        tests use to concentrate churn in chosen tiles).  Insert cells may
        coincide with existing nonzeros -- those become value overwrites,
        exercising the value-only (structurally clean) path.
        """
        if inserts < 0 or deletes < 0:
            raise ValueError("inserts and deletes must be non-negative")
        if deletes > matrix.nnz:
            raise ValueError(f"cannot delete {deletes} of {matrix.nnz} nonzeros")
        rng = np.random.default_rng(seed)
        if deletes:
            picked = rng.choice(matrix.nnz, size=deletes, replace=False)
            dr, dc = matrix.rows[picked], matrix.cols[picked]
        else:
            dr = dc = np.zeros(0, dtype=np.int64)
        if inserts:
            row_lo, row_hi, col_lo, col_hi = (
                insert_region
                if insert_region is not None
                else (0, matrix.n_rows, 0, matrix.n_cols)
            )
            if not (0 <= row_lo < row_hi <= matrix.n_rows
                    and 0 <= col_lo < col_hi <= matrix.n_cols):
                raise ValueError(f"bad insert_region {insert_region!r}")
            ir = rng.integers(row_lo, row_hi, inserts)
            ic = rng.integers(col_lo, col_hi, inserts)
            iv = rng.standard_normal(inserts) * value_scale
        else:
            ir = ic = np.zeros(0, dtype=np.int64)
            iv = np.zeros(0, dtype=np.float64)
        return cls(ir, ic, iv, dr, dc)


def delta_stream(
    matrix: SparseMatrix,
    steps: int,
    inserts: int,
    deletes: int,
    seed: int = 0,
    insert_region: Optional[Tuple[int, int, int, int]] = None,
) -> Iterator[Tuple[DeltaBatch, SparseMatrix]]:
    """Yield ``(batch, matrix_after)`` pairs for a seeded mutation stream.

    Each batch is generated against the *current* matrix (so deletes always
    name live nonzeros) with an independent per-step sub-seed, then applied
    to produce the next state.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    current = matrix
    for step in range(steps):
        batch = DeltaBatch.random(
            current,
            inserts=inserts,
            deletes=min(deletes, current.nnz),
            seed=seed * 1_000_003 + step,
            insert_region=insert_region,
        )
        current = current.apply_delta(batch)
        yield batch, current


# ----------------------------------------------------------------------
def _canonicalize_inserts(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort inserts row-major; duplicate cells resolve last-wins."""
    if rows.size == 0:
        return rows.copy(), cols.copy(), vals.copy()
    order = np.lexsort((cols, rows))  # stable: ties keep input order
    rows, cols, vals = rows[order], cols[order], vals[order]
    # Last entry of each (row, col) group wins.
    last = np.empty(rows.shape[0], dtype=bool)
    last[-1] = True
    np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=last[:-1])
    return rows[last].copy(), cols[last].copy(), vals[last].copy()


def _canonicalize_deletes(
    rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort deletes row-major and drop duplicate cells."""
    if rows.size == 0:
        return rows.copy(), cols.copy()
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    first = np.empty(rows.shape[0], dtype=bool)
    first[0] = True
    np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=first[1:])
    return rows[first].copy(), cols[first].copy()
