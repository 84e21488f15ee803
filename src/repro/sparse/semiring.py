"""Generalized SpMM over algebraic semirings (paper Sec. II-A).

gSpMM keeps SpMM's memory access pattern but substitutes the
multiplication with a generalized multiplicative monoid and the addition
with a generalized additive monoid [Davis, TOMS'19].  The analytical model
only needs the *cost* of the monoids (``ProblemSpec.ops_per_nnz``); this
module supplies the matching *functional* executor so tests and examples
can verify that the generated accelerator formats compute the right thing
for any semiring, not just plus-times.

Built-in semirings:

- ``PLUS_TIMES`` -- ordinary SpMM,
- ``MIN_PLUS`` -- tropical semiring (one relaxation step of multi-source
  shortest paths),
- ``MAX_TIMES`` -- max-times (Viterbi-style likelihood propagation),
- ``OR_AND`` -- boolean reachability (one BFS frontier expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.matrix import SPMM_BLOCK_BYTES, SparseMatrix

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "gspmm",
]


@dataclass(frozen=True)
class Semiring:
    """An additive monoid (with identity) and a multiplicative operation.

    ``add`` and ``multiply`` must be numpy ufunc-like, elementwise over
    arrays.  ``ops_per_nnz_hint`` records the relative arithmetic cost a
    performance model should assume for one nonzero (vanilla plus-times
    is the 1.0 baseline).
    """

    name: str
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    additive_identity: float
    ops_per_nnz_hint: int = 1

    def __post_init__(self) -> None:
        if self.ops_per_nnz_hint <= 0:
            raise ValueError("ops_per_nnz_hint must be positive")

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


PLUS_TIMES = Semiring("plus-times", np.add, np.multiply, 0.0)
MIN_PLUS = Semiring("min-plus", np.minimum, np.add, np.inf)
MAX_TIMES = Semiring("max-times", np.maximum, np.multiply, 0.0)
OR_AND = Semiring("or-and", np.logical_or, np.logical_and, 0.0)


def gspmm(
    matrix: SparseMatrix, din: np.ndarray, semiring: Semiring = PLUS_TIMES
) -> np.ndarray:
    """Generalized SpMM: ``Dout[r] = add-reduce over nnz (val (x) Din[c])``.

    Same access pattern as :meth:`SparseMatrix.spmm` -- every nonzero
    reads one *Din* row and accumulates into one *Dout* row -- with the
    semiring's monoids substituted.  Rows with no nonzeros hold the
    additive identity.  Like the plus-times kernel, the other semirings
    run in blocks: whole rows at a time, as many as keep a block's
    gathered *Din* rows and products each within
    :data:`~repro.sparse.matrix.SPMM_BLOCK_BYTES` (a row above that is a
    block of its own).  Each row is reduced whole, so the result does not
    depend on the blocks.
    """
    din = np.asarray(din)
    if din.ndim != 2 or din.shape[0] != matrix.n_cols:
        raise ValueError(f"dense input must have shape ({matrix.n_cols}, K), got {din.shape}")
    if semiring is PLUS_TIMES:
        # Fast path, identical to the reference SpMM.
        return matrix.spmm(din)
    dtype = np.result_type(matrix.vals, din) if semiring is not OR_AND else np.dtype(bool)
    out = np.full((matrix.n_rows, din.shape[1]), semiring.additive_identity, dtype=dtype)
    # Per-row reduction with the additive monoid; nonzeros are row-sorted,
    # so reduceat over row boundaries applies the monoid exactly once per
    # output element.
    indptr = matrix.indptr()
    present = np.flatnonzero(np.diff(indptr) > 0)
    if not present.size:
        return out
    ufunc = _as_ufunc(semiring.add)
    starts = indptr[present]
    ends = indptr[present + 1]
    row_bytes = max(din.shape[1], 1) * max(din.itemsize, dtype.itemsize)
    step = max(SPMM_BLOCK_BYTES // row_bytes, 1)
    first = 0  # the block's first non-empty row, an index into ``present``
    while first < present.size:
        lo = int(starts[first])
        last = max(int(np.searchsorted(ends, lo + step, side="right")), first + 1)
        hi = int(ends[last - 1])
        # One expression, so a block's products are freed before the next
        # block gathers.
        out[present[first:last]] = ufunc.reduceat(
            semiring.multiply(
                matrix.vals[lo:hi, None].astype(dtype, copy=False),
                din[matrix.cols[lo:hi]].astype(dtype, copy=False),
            ),
            starts[first:last] - lo,
            axis=0,
        )
        first = last
    return out


def _as_ufunc(fn: Callable) -> np.ufunc:
    if isinstance(fn, np.ufunc):
        return fn
    raise TypeError(
        "semiring add must be a numpy ufunc to support reduceat "
        f"(got {fn!r})"
    )
