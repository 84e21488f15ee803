"""Delta-replay experiment: incremental plan repair vs from-scratch.

Replays a seeded stream of :class:`~repro.streaming.delta.DeltaBatch`
updates against one matrix and, at every step, runs *both* maintenance
strategies side by side:

- **incremental** -- :func:`~repro.streaming.apply.apply_delta_tiled`
  merges the batch into the matrix and retiles it, and
  :func:`~repro.core.partition.repair_plan` re-evaluates only the dirty
  tiles against the memoized :class:`~repro.core.partition.
  PartitionCache`, exactly the path the plan service takes for
  ``POST /matrices/{digest}/delta``;
- **scratch** -- rebuild the post-delta matrix from the previous one
  without the merge (drop every cell the batch names, append the
  inserts, sort), tile it and run the full N log N partition, the
  ground truth.

Two differential gates fall out (docs/streaming.md):

1. the merged matrix and its tiling must be **bit-identical** to the
   scratch rebuild and its tiling -- every array, every dtype, the
   patched CSR ``indptr`` included;
2. the repaired plan's predicted runtime must be within ``epsilon``
   (relative) of the from-scratch plan's.  Repair serves clean tiles
   from cached costs that are bit-identical to recomputing them and
   runs the same search as from-scratch partitioning, so the two plans
   agree exactly and ``epsilon=0`` holds; the gate catches any future
   drift in the cache composition.

The report also records the repaired-tile fraction per step: the whole
point of repair is touching less than 100% of the tiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.reporting import format_table
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch

__all__ = [
    "DeltaReplayRow",
    "DeltaReplayResult",
    "delta_replay",
    "tiled_bit_identical",
    "DEFAULT_EPSILON",
]

#: Relative predicted-runtime drift allowed between repair and scratch.
DEFAULT_EPSILON = 0.01


def tiled_bit_identical(a: TiledMatrix, b: TiledMatrix) -> bool:
    """True iff every derived array (and its dtype) matches exactly."""
    pairs: List[Tuple[np.ndarray, np.ndarray]] = [
        (a.matrix.rows, b.matrix.rows),
        (a.matrix.cols, b.matrix.cols),
        (a.matrix.vals, b.matrix.vals),
        (a.perm, b.perm),
        (a.rows, b.rows),
        (a.cols, b.cols),
        (a.vals, b.vals),
        (a.tile_offsets, b.tile_offsets),
        (a.stats.tile_row, b.stats.tile_row),
        (a.stats.tile_col, b.stats.tile_col),
        (a.stats.nnz, b.stats.nnz),
        (a.stats.uniq_rids, b.stats.uniq_rids),
        (a.stats.uniq_cids, b.stats.uniq_cids),
        (a.panel_uniq_rids, b.panel_uniq_rids),
        (a.panel_nnz, b.panel_nnz),
        (a.inverse_perm(), b.inverse_perm()),
        (a.matrix.indptr(), b.matrix.indptr()),
    ]
    if (a.tile_height, a.tile_width) != (b.tile_height, b.tile_width):
        return False
    if (a.n_panel_rows, a.n_panel_cols) != (b.n_panel_rows, b.n_panel_cols):
        return False
    return all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs
    )


@dataclass(frozen=True)
class DeltaReplayRow:
    """One replay step: the delta, the repair, and the differential."""

    step: int
    n_inserted: int
    n_overwritten: int
    n_deleted: int
    nnz: int  #: nonzeros after the delta
    n_tiles: int  #: non-empty tiles after the delta
    tiles_repaired: int
    repaired_fraction: float
    label: str  #: heuristic chosen by the repaired plan
    repaired_ms: float  #: predicted runtime of the repaired plan
    scratch_ms: float  #: predicted runtime of the from-scratch plan
    bit_identical: bool  #: post-delta matrix and tiling match scratch exactly

    @property
    def rel_err(self) -> float:
        if self.scratch_ms == 0:
            return 0.0 if self.repaired_ms == 0 else float("inf")
        return abs(self.repaired_ms - self.scratch_ms) / self.scratch_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "n_inserted": self.n_inserted,
            "n_overwritten": self.n_overwritten,
            "n_deleted": self.n_deleted,
            "nnz": self.nnz,
            "n_tiles": self.n_tiles,
            "tiles_repaired": self.tiles_repaired,
            "repaired_fraction": self.repaired_fraction,
            "label": self.label,
            "repaired_ms": self.repaired_ms,
            "scratch_ms": self.scratch_ms,
            "rel_err": self.rel_err,
            "bit_identical": self.bit_identical,
        }


@dataclass(frozen=True)
class DeltaReplayResult:
    """The full replay for one (matrix, architecture, seed) triple."""

    matrix_label: str
    arch: str
    seed: int
    epsilon: float
    rows: List[DeltaReplayRow]

    def render(self) -> str:
        table = [
            (
                row.step,
                f"+{row.n_inserted}/~{row.n_overwritten}/-{row.n_deleted}",
                row.nnz,
                f"{row.tiles_repaired}/{row.n_tiles}",
                row.label,
                row.repaired_ms,
                row.scratch_ms,
                row.rel_err,
                "yes" if row.bit_identical else "NO",
            )
            for row in self.rows
        ]
        return format_table(
            ["step", "delta", "nnz", "repaired", "label", "repair ms",
             "scratch ms", "rel err", "bit-id"],
            table,
            title=(
                f"Delta replay: {self.matrix_label} on {self.arch} "
                f"(seed {self.seed}, eps {self.epsilon:g})"
            ),
        )

    def max_rel_err(self) -> float:
        return max((row.rel_err for row in self.rows), default=0.0)

    def all_bit_identical(self) -> bool:
        return all(row.bit_identical for row in self.rows)

    def mean_repaired_fraction(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.repaired_fraction for row in self.rows) / len(self.rows)

    def passes(self) -> bool:
        """The CI gate: exact tilings, bounded drift, partial repair."""
        return (
            self.all_bit_identical()
            and math.isfinite(self.max_rel_err())
            and self.max_rel_err() <= self.epsilon
            and self.mean_repaired_fraction() < 1.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matrix": self.matrix_label,
            "arch": self.arch,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "rows": [row.to_dict() for row in self.rows],
            "max_rel_err": self.max_rel_err(),
            "all_bit_identical": self.all_bit_identical(),
            "mean_repaired_fraction": self.mean_repaired_fraction(),
            "passes": self.passes(),
        }

    def save_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path


def _rebuild(matrix: SparseMatrix, delta: DeltaBatch) -> SparseMatrix:
    """``matrix`` after ``delta``, built without the incremental merge:
    drop every cell the batch deletes or inserts, append the inserts and
    let the constructor sort."""
    n_cols = np.int64(max(matrix.n_cols, 1))
    named = np.concatenate((
        delta.delete_rows * n_cols + delta.delete_cols,
        delta.insert_rows * n_cols + delta.insert_cols,
    ))
    keep = ~np.isin(matrix.rows * n_cols + matrix.cols, named)
    return SparseMatrix(
        matrix.n_rows,
        matrix.n_cols,
        np.concatenate((matrix.rows[keep], delta.insert_rows)),
        np.concatenate((matrix.cols[keep], delta.insert_cols)),
        np.concatenate((matrix.vals[keep], delta.insert_vals.astype(matrix.dtype))),
        dtype=matrix.dtype,
    )


def delta_replay(
    matrix: SparseMatrix,
    arch_name: str = "spade-sextans",
    steps: int = 5,
    inserts: int = 60,
    deletes: int = 40,
    seed: int = 0,
    scale: int = 4,
    epsilon: float = DEFAULT_EPSILON,
    insert_region: Optional[Sequence[int]] = None,
    label: Optional[str] = None,
) -> DeltaReplayResult:
    """Replay a seeded delta stream; see the module docstring.

    ``insert_region`` = ``(row_lo, row_hi, col_lo, col_hi)`` concentrates
    the inserts (hot-spot churn); deletes always draw from the whole
    matrix.  The incremental state (matrix *and* partition cache) chains
    across steps, so drift -- if any -- is cumulative, exactly as in the
    long-lived service lineage.
    """
    from repro.arch.configs import ARCHITECTURE_FACTORIES, build_architecture
    from repro.core.partition import HotTilesPartitioner, plan_cache_from, repair_plan
    from repro.streaming.apply import apply_delta_tiled

    if steps < 1:
        raise ValueError("steps must be >= 1")
    if arch_name not in ARCHITECTURE_FACTORIES:
        raise ValueError(
            f"unknown architecture: {arch_name} "
            f"(known: {', '.join(sorted(ARCHITECTURE_FACTORIES))})"
        )
    arch = build_architecture(arch_name, scale)
    partitioner = HotTilesPartitioner(arch)

    region = tuple(int(v) for v in insert_region) if insert_region else None
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    cache = plan_cache_from(partitioner, tiled)

    rows: List[DeltaReplayRow] = []
    for step in range(steps):
        delta = DeltaBatch.random(
            tiled.matrix,
            inserts=inserts,
            deletes=min(deletes, tiled.matrix.nnz),
            seed=seed * 1_000_003 + step,
            insert_region=region,
        )
        scratch_tiled = TiledMatrix(
            _rebuild(tiled.matrix, delta), arch.tile_height, arch.tile_width
        )
        tiled, report = apply_delta_tiled(tiled, delta)
        outcome = repair_plan(partitioner, tiled, cache, report.dirty_tile_keys)
        cache = outcome.cache
        scratch = partitioner.partition(scratch_tiled)

        rows.append(
            DeltaReplayRow(
                step=step,
                n_inserted=report.n_inserted,
                n_overwritten=report.n_overwritten,
                n_deleted=report.n_deleted,
                nnz=tiled.matrix.nnz,
                n_tiles=tiled.n_tiles,
                tiles_repaired=outcome.stats.tiles_repaired,
                repaired_fraction=outcome.stats.repaired_fraction,
                label=outcome.result.chosen.label,
                repaired_ms=outcome.result.chosen.predicted_time_s * 1e3,
                scratch_ms=scratch.chosen.predicted_time_s * 1e3,
                bit_identical=tiled_bit_identical(tiled, scratch_tiled),
            )
        )
    return DeltaReplayResult(
        matrix_label=label if label is not None else str(matrix),
        arch=arch_name,
        seed=seed,
        epsilon=epsilon,
        rows=rows,
    )
