"""Streaming matrix deltas and incremental plan repair.

Graph workloads mutate continuously; re-planning a mutated matrix from
scratch throws away almost all of the previous plan's work.  This package
makes the sparsity structure a *moving target* the rest of the stack can
track cheaply:

- :mod:`repro.streaming.delta` -- the :class:`DeltaBatch` record (nnz
  inserts / deletes / value overwrites) with seeded generators for tests
  and load generation,
- :mod:`repro.streaming.apply` -- incremental application:
  :func:`apply_delta_matrix` merges a batch into the canonical COO/CSR
  arrays without a global re-sort, bit-identical to the from-scratch
  construction, and :func:`~repro.streaming.apply.apply_delta_retiled`
  (:func:`apply_delta_tiled` from a tiling) retiles the merged matrix as
  a fresh :class:`~repro.sparse.tiling.TiledMatrix` while reporting
  which tiles went structurally dirty,
- :mod:`repro.streaming.lineage` -- the service-side
  :class:`MatrixLineage` / :class:`LineageRegistry` tracking the mutable
  head (matrix, cost table, digest chain) of each registered matrix so
  ``POST /matrices/{digest}/delta`` can apply batches and repair plans
  incrementally.

``SparseMatrix.apply_delta`` is a thin method wrapper over
:func:`apply_delta_matrix`.  The partition-repair entry point
(:func:`repro.core.partition.repair_plan`) lives with the partitioner it
extends.  See docs/streaming.md.
"""

from repro.streaming.apply import DeltaApplyReport, apply_delta_matrix, apply_delta_tiled
from repro.streaming.delta import DeltaBatch, delta_stream
from repro.streaming.lineage import (
    LineageRegistry,
    LineageUpdate,
    MatrixLineage,
    StaleDigestError,
    UnknownLineageError,
)

__all__ = [
    "DeltaBatch",
    "delta_stream",
    "DeltaApplyReport",
    "apply_delta_matrix",
    "apply_delta_tiled",
    "MatrixLineage",
    "LineageRegistry",
    "LineageUpdate",
    "StaleDigestError",
    "UnknownLineageError",
]
