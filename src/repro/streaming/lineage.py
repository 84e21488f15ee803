"""Mutable lineage heads for registered matrices.

The plan service is content-addressed: a digest names one immutable plan.
Streaming deltas need a *mutable* notion on top -- "the current state of
the matrix that digest was planned for".  A :class:`MatrixLineage` is
that mutable head: it owns the evolving :class:`~repro.sparse.matrix.
SparseMatrix`, the memoized :class:`~repro.core.partition.PartitionCache`
(the per-tile cost table), and the digest chain

    head_{k+1} = stable_digest(("delta-plan", head_k, delta_digest))

so every post-delta plan gets its own content address while the chain
stays verifiable.  Applying a batch runs the incremental pipeline --
:func:`~repro.streaming.apply.apply_delta_retiled` then
:func:`~repro.core.partition.repair_plan` -- under the lineage's lock,
serializing writers per matrix.

A lineage keeps no :class:`~repro.sparse.tiling.TiledMatrix`: each batch
retiles the merged matrix anyway, so the tiling is rebuilt per batch and
lives only inside :meth:`MatrixLineage.apply`.  Between batches a
lineage holds what the next batch reads -- the matrix (``rows``,
``cols``, ``vals``, ``indptr``: about 20 B per nonzero with int64
indices and float32 values), the cost table and tile keys, and the
plan's per-tile assignments.  For an rmat(11, 60k) plan that is
1.24 MB, against 2.93 MB when a lineage also held its tiling
(docs/streaming.md).  A registry keeps at most 64 lineages by default,
so lineages cost at most 64 matrices of about 20 B per nonzero.

The :class:`LineageRegistry` resolves *any* digest a lineage has ever
carried back to the lineage, which lets ``POST /matrices/{digest}/delta``
answer a precise ``409`` (you addressed a superseded head, here is the
current one) instead of a blunt ``404``.  Lineages are LRU-bounded; the
plan *results* stay in the durable store regardless.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.partition import (
    HotTilesPartitioner,
    HotTilesResult,
    PartitionCache,
    RepairStats,
    plan_cache_from,
    repair_plan,
)
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import DeltaApplyReport, apply_delta_retiled
from repro.streaming.delta import DeltaBatch

__all__ = [
    "UnknownLineageError",
    "StaleDigestError",
    "LineageUpdate",
    "MatrixLineage",
    "LineageRegistry",
]


class UnknownLineageError(KeyError):
    """No lineage has ever carried this digest."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"no registered matrix lineage for digest {digest[:12]}")
        self.digest = digest


class StaleDigestError(ValueError):
    """The digest names a superseded head; carries the current one."""

    def __init__(self, digest: str, head_digest: str) -> None:
        super().__init__(
            f"digest {digest[:12]} is a superseded lineage head; "
            f"current head is {head_digest[:12]}"
        )
        self.digest = digest
        self.head_digest = head_digest


@dataclass(frozen=True)
class LineageUpdate:
    """One applied delta: digests, structural report, repair accounting."""

    prev_digest: str
    new_digest: str
    report: DeltaApplyReport
    repair: RepairStats
    partition: HotTilesResult
    nnz: int  #: nonzeros after the delta
    n_tiles: int  #: non-empty tiles after the delta
    hot_nnz_fraction: float  #: of the repaired plan's chosen assignment


class MatrixLineage:
    """The mutable head of one registered matrix.

    ``tiled`` is the root's tiling: the lineage keeps its matrix and tile
    shape, not the tiling.  Between batches it holds ``matrix`` (the
    head's :class:`~repro.sparse.matrix.SparseMatrix`), ``tile_shape``,
    ``partitioner``, ``cache`` (the head's
    :class:`~repro.core.partition.PartitionCache`; ``cache.n_tiles`` is
    the head's tile count), ``result`` (the head's plan) and
    ``hot_nnz_fraction`` (of ``result.chosen``); an empty batch answers
    from these alone.

    ``meta`` is an opaque slot for the owner (the plan service stashes the
    base :class:`~repro.service.protocol.PlanResult` there to derive
    repaired results without re-resolving the request).
    """

    def __init__(
        self,
        digest: str,
        tiled: TiledMatrix,
        partitioner: HotTilesPartitioner,
        result: Optional[HotTilesResult] = None,
        meta: Any = None,
    ) -> None:
        self._lock = threading.Lock()
        self.root_digest = digest
        self.head_digest = digest
        self.matrix = tiled.matrix
        self.tile_shape = (tiled.tile_height, tiled.tile_width)
        self.partitioner = partitioner
        if result is None:
            result = partitioner.partition(tiled)
        self.result = result
        self.hot_nnz_fraction = result.chosen.hot_nnz_fraction(tiled)
        self.cache: PartitionCache = plan_cache_from(partitioner, tiled)
        self.meta = meta
        self.deltas_applied = 0

    def apply(
        self, delta: DeltaBatch, expect_head: Optional[str] = None
    ) -> LineageUpdate:
        """Apply one batch and advance the head; thread-safe.

        ``expect_head`` enables optimistic concurrency: the apply only
        proceeds if the head still matches, else :class:`StaleDigestError`
        (checked under the lineage lock, so two appliers addressing the
        same head cannot both succeed).  An empty batch is a no-op: the
        head digest, matrix and plan are unchanged and the delta counter
        does not advance.
        """
        from repro.experiments.cache import stable_digest

        with self._lock:
            if expect_head is not None and expect_head != self.head_digest:
                raise StaleDigestError(expect_head, self.head_digest)
            if delta.is_empty:
                n = self.cache.n_tiles
                return LineageUpdate(
                    prev_digest=self.head_digest,
                    new_digest=self.head_digest,
                    report=DeltaApplyReport.unchanged(n),
                    repair=RepairStats(
                        n_tiles=n, tiles_repaired=0, tiles_pinned=n,
                        new_tiles=0, dropped_tiles=0,
                    ),
                    partition=self.result,
                    nnz=self.matrix.nnz,
                    n_tiles=n,
                    hot_nnz_fraction=self.hot_nnz_fraction,
                )
            new_tiled, report = apply_delta_retiled(
                self.matrix, self.tile_shape, delta, self.cache.n_tiles
            )
            outcome = repair_plan(
                self.partitioner, new_tiled, self.cache, report.dirty_tile_keys
            )
            prev = self.head_digest
            new_digest = stable_digest(
                ("delta-plan", prev, delta.content_digest())
            )
            self.matrix = new_tiled.matrix
            self.cache = outcome.cache
            self.result = outcome.result
            self.hot_nnz_fraction = outcome.result.chosen.hot_nnz_fraction(new_tiled)
            self.head_digest = new_digest
            self.deltas_applied += 1
            return LineageUpdate(
                prev_digest=prev,
                new_digest=new_digest,
                report=report,
                repair=outcome.stats,
                partition=outcome.result,
                nnz=self.matrix.nnz,
                n_tiles=new_tiled.n_tiles,
                hot_nnz_fraction=self.hot_nnz_fraction,
            )


class LineageRegistry:
    """Digest -> lineage resolution with LRU-bounded retention."""

    def __init__(self, max_lineages: int = 64) -> None:
        if max_lineages < 1:
            raise ValueError("max_lineages must be >= 1")
        self.max_lineages = int(max_lineages)
        self._lock = threading.Lock()
        #: root digest -> lineage, in LRU order (most recent last)
        self._lineages: "OrderedDict[str, MatrixLineage]" = OrderedDict()
        #: every digest a lineage has carried -> its root digest
        self._alias: Dict[str, str] = {}
        #: root digest -> all aliases, for eviction cleanup
        self._carried: Dict[str, List[str]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._lineages)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._alias

    def register(self, lineage: MatrixLineage) -> None:
        """Adopt a lineage (idempotent per root digest)."""
        with self._lock:
            root = lineage.root_digest
            if root in self._lineages:
                self._lineages.move_to_end(root)
                return
            self._lineages[root] = lineage
            self._alias[root] = root
            self._carried[root] = [root]
            while len(self._lineages) > self.max_lineages:
                evicted_root, _ = self._lineages.popitem(last=False)
                for digest in self._carried.pop(evicted_root, ()):
                    self._alias.pop(digest, None)

    def resolve(self, digest: str) -> MatrixLineage:
        """The lineage that carries (or once carried) ``digest``."""
        with self._lock:
            root = self._alias.get(digest)
            if root is None:
                raise UnknownLineageError(digest)
            self._lineages.move_to_end(root)
            return self._lineages[root]

    def apply(self, digest: str, delta: DeltaBatch) -> LineageUpdate:
        """Apply a batch addressed at ``digest``.

        Raises :class:`UnknownLineageError` for digests never seen and
        :class:`StaleDigestError` when ``digest`` is not the current head
        (optimistic concurrency: the caller re-reads the head and retries).
        """
        lineage = self.resolve(digest)
        update = lineage.apply(delta, expect_head=digest)
        if update.new_digest != update.prev_digest:
            with self._lock:
                root = lineage.root_digest
                if root in self._lineages:
                    self._alias[update.new_digest] = root
                    self._carried[root].append(update.new_digest)
        return update
