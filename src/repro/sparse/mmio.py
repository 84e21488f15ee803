"""MatrixMarket coordinate-format I/O.

The paper's framework "reads a sparse matrix from disk in MatrixMarket file
format" (Sec. VI-B).  This module implements the coordinate subset of the
format used by the SuiteSparse collection: ``real`` / ``integer`` /
``pattern`` fields and ``general`` / ``symmetric`` / ``skew-symmetric``
symmetries.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = ["read_matrix_market", "write_matrix_market"]

_FIELDS = {"real", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def read_matrix_market(
    source: Union[str, Path, io.TextIOBase], dtype: np.dtype = np.float32
) -> SparseMatrix:
    """Parse a MatrixMarket coordinate file into a :class:`SparseMatrix`.

    Symmetric and skew-symmetric storage is expanded to a general matrix,
    matching what the HotTiles preprocessing pipeline operates on.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as fh:
            return read_matrix_market(fh, dtype=dtype)

    header = source.readline()
    parts = header.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise ValueError(f"not a MatrixMarket matrix header: {header.strip()!r}")
    layout, field, symmetry = parts[2], parts[3], parts[4]
    if layout != "coordinate":
        raise ValueError(f"only coordinate layout is supported, got {layout!r}")
    if field not in _FIELDS:
        raise ValueError(f"unsupported field {field!r} (supported: {sorted(_FIELDS)})")
    if symmetry not in _SYMMETRIES:
        raise ValueError(f"unsupported symmetry {symmetry!r} (supported: {sorted(_SYMMETRIES)})")

    line = source.readline()
    while line.startswith("%"):
        line = source.readline()
    dims = line.split()
    if len(dims) != 3:
        raise ValueError(f"bad size line: {line.strip()!r}")
    try:
        n_rows, n_cols, nnz = (int(x) for x in dims)
    except ValueError:
        raise ValueError(
            f"size line must be three integers, got {line.strip()!r}"
        ) from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise ValueError(
            f"size line values must be non-negative, got {line.strip()!r}"
        )

    try:
        body = np.loadtxt(source, ndmin=2) if nnz else np.zeros((0, 3))
    except ValueError as exc:
        raise ValueError(f"malformed coordinate entries: {exc}") from None
    if body.shape[0] != nnz:
        raise ValueError(f"expected {nnz} entries, found {body.shape[0]}")
    expected_cols = 2 if field == "pattern" else 3
    if nnz and body.shape[1] != expected_cols:
        raise ValueError(
            f"{field} entries need {expected_cols} columns, found {body.shape[1]}"
        )
    # Indices are parsed as floats: one that is not a whole number would
    # otherwise be truncated to a valid-looking int.
    coords = body[:, :2]
    whole = (np.isfinite(coords) & (coords == np.floor(coords))).all(axis=1)
    if not whole.all():
        entry = int(np.argmin(whole))
        raise ValueError(
            f"entry {entry + 1}: row and column indices must be whole numbers, "
            f"got {coords[entry, 0]:g} {coords[entry, 1]:g}"
        )
    if nnz:
        for name, idx, bound in zip(("row", "column"), coords.T, (n_rows, n_cols)):
            lo, hi = int(idx.min()), int(idx.max())
            if lo < 1 or hi > bound:
                raise ValueError(
                    f"{name} index {lo if lo < 1 else hi} out of range for a "
                    f"{n_rows}x{n_cols} matrix (1-based indices expected)"
                )
    rows = coords[:, 0].astype(np.int64) - 1
    cols = coords[:, 1].astype(np.int64) - 1
    vals = np.ones(nnz, dtype=dtype) if field == "pattern" else body[:, 2].astype(dtype)

    if symmetry in ("symmetric", "skew-symmetric"):
        off_diag = rows != cols
        mirror_vals = vals[off_diag]
        if symmetry == "skew-symmetric":
            mirror_vals = -mirror_vals
        rows, cols = (
            np.concatenate([rows, cols[off_diag]]),
            np.concatenate([cols, rows[off_diag]]),
        )
        vals = np.concatenate([vals, mirror_vals])
    return SparseMatrix(n_rows, n_cols, rows, cols, vals, dtype=dtype)


def write_matrix_market(
    matrix: SparseMatrix, target: Union[str, Path, io.TextIOBase], comment: str = ""
) -> None:
    """Write a matrix in general real coordinate MatrixMarket format."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as fh:
            write_matrix_market(matrix, fh, comment=comment)
        return
    target.write("%%MatrixMarket matrix coordinate real general\n")
    for line in comment.splitlines():
        target.write(f"% {line}\n")
    target.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
    for r, c, v in zip(matrix.rows, matrix.cols, matrix.vals):
        target.write(f"{int(r) + 1} {int(c) + 1} {float(v):.17g}\n")
