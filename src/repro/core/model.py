"""The IMH-aware per-tile analytical model (paper Sec. IV).

For every tile and worker type the model predicts

- the execution time, combining the five per-tile tasks (read sparse input,
  read *Din*, read *Dout*, SIMD multiply-accumulate, write *Dout*)
  according to the worker's overlap behaviour, and
- the number of bytes read/written from main memory, used later to account
  for bandwidth contention between worker types.

Memory task times are ``bytes * vis_lat`` where ``vis_lat`` is the
calibrated visible latency per byte (Sec. VI-B); the compute task time is
``tile_nnzs * cycles_per_nonzero / frequency``.

The model follows the paper's two deliberate simplifications (Sec. IV-C):

1. *Maximum reuse assumption*: during partitioning, a tile whose operand
   reuse is inter-tile is charged zero traffic, as if it were never the
   first tile of its worker type in its row panel.  Once the assignment is
   known, callers pass ``first_mask`` to re-charge the actual first tiles.
2. *No cache reuse*: demand reuse through caches is ignored (the simulator
   honors it, which reproduces the paper's Fig. 17 error pattern).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.problem import Kernel, ProblemSpec
from repro.core.reuse import (
    dense_rows_accessed,
    effective_tile_heights,
    effective_tile_widths,
    sparse_bytes_accessed,
)
from repro.core.traits import ReuseType, Task, WorkerTraits
from repro.sparse.tiling import TiledMatrix

__all__ = ["TileCosts", "AnalyticalModel"]


@dataclass(frozen=True)
class TileCosts:
    """Per-tile model outputs for one worker type.

    ``time_s[i]`` is the predicted execution time of tile ``i`` on a single
    worker of this type (no bandwidth contention); ``bytes[i]`` the
    predicted main-memory traffic (``bh_i`` / ``bc_i`` in the paper).
    """

    worker_name: str
    time_s: np.ndarray
    bytes: np.ndarray
    task_times: Mapping[Task, np.ndarray]
    task_bytes: Mapping[Task, np.ndarray]

    @property
    def n_tiles(self) -> int:
        return int(self.time_s.shape[0])

    def total_time(self, mask: Optional[np.ndarray] = None) -> float:
        """Summed tile time over ``mask`` (all tiles when omitted)."""
        return float(self.time_s.sum() if mask is None else self.time_s[mask].sum())

    def total_bytes(self, mask: Optional[np.ndarray] = None) -> float:
        """Summed tile traffic over ``mask`` (all tiles when omitted)."""
        return float(self.bytes.sum() if mask is None else self.bytes[mask].sum())


class AnalyticalModel:
    """Vectorized per-tile time/traffic estimator for one problem spec.

    Parameters
    ----------
    problem:
        Data sizes and kernel spec.
    """

    def __init__(self, problem: ProblemSpec) -> None:
        self.problem = problem

    # ------------------------------------------------------------------
    def tile_costs(
        self,
        tiled: TiledMatrix,
        worker: WorkerTraits,
        first_mask: Optional[np.ndarray] = None,
    ) -> TileCosts:
        """Estimate all tiles of ``tiled`` as if executed by ``worker``.

        Parameters
        ----------
        first_mask:
            Boolean array marking tiles that are the first of this worker
            type in their row panel.  ``None`` applies the maximum-reuse
            assumption (no tile is first), which is what the partitioning
            heuristics consume; the final-runtime predictions pass the real
            mask derived from the assignment.
        """
        stats = tiled.stats
        n = stats.n_tiles
        if first_mask is not None:
            first_mask = np.asarray(first_mask, dtype=bool)
            if first_mask.shape != (n,):
                raise ValueError(f"first_mask must have shape ({n},)")

        widths = effective_tile_widths(tiled)
        heights = effective_tile_heights(tiled)
        nnz = stats.nnz.astype(np.float64)
        row_bytes = float(self.problem.dense_row_bytes)

        task_bytes: Dict[Task, np.ndarray] = {}
        task_bytes[Task.SPARSE_READ] = sparse_bytes_accessed(
            worker.sparse_format,
            stats.nnz,
            heights,
            self.problem.value_bytes,
            self.problem.index_bytes,
        )
        din_rows = self._operand_rows(
            worker, "din", stats.nnz, stats.uniq_cids, widths, first_mask
        )
        task_bytes[Task.DIN_READ] = din_rows * row_bytes

        if self.problem.kernel is Kernel.SDDMM:
            # SDDMM reads a second dense input indexed by r_id and writes a
            # scalar per nonzero instead of read-modify-writing Dout rows.
            dout_rows = self._operand_rows(
                worker, "dout", stats.nnz, stats.uniq_rids, heights, first_mask
            )
            task_bytes[Task.DOUT_READ] = dout_rows * row_bytes
            task_bytes[Task.DOUT_WRITE] = nnz * float(self.problem.value_bytes)
        else:
            dout_rows = self._operand_rows(
                worker, "dout", stats.nnz, stats.uniq_rids, heights, first_mask
            )
            task_bytes[Task.DOUT_READ] = dout_rows * row_bytes
            task_bytes[Task.DOUT_WRITE] = dout_rows * row_bytes

        vis_lat = worker.vis_lat_s_per_byte
        task_times: Dict[Task, np.ndarray] = {
            task: task_bytes[task] * vis_lat for task in task_bytes
        }
        cycles = worker.cycles_per_nonzero(self.problem.k, self.problem.ops_per_nnz)
        task_times[Task.COMPUTE] = nnz * (cycles / (worker.frequency_ghz * 1e9))
        task_bytes[Task.COMPUTE] = np.zeros(n, dtype=np.float64)

        time_s = np.zeros(n, dtype=np.float64)
        for group in worker.overlap_groups:
            time_s += functools.reduce(np.maximum, (task_times[t] for t in group))
        total_bytes = sum(task_bytes[t] for t in Task)

        for arr in (time_s, total_bytes):
            arr.flags.writeable = False
        return TileCosts(
            worker_name=worker.name,
            time_s=time_s,
            bytes=total_bytes,
            task_times=task_times,
            task_bytes=task_bytes,
        )

    # ------------------------------------------------------------------
    def _operand_rows(
        self,
        worker: WorkerTraits,
        operand: str,
        tile_nnzs: np.ndarray,
        tile_uniq_ids: np.ndarray,
        tile_extents: np.ndarray,
        first_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Rows accessed for one dense operand, honoring the first-tile mask."""
        steady = worker.din_reuse if operand == "din" else worker.dout_reuse
        rows = dense_rows_accessed(steady, tile_nnzs, tile_uniq_ids, tile_extents)
        if steady is ReuseType.INTER_TILE and first_mask is not None and first_mask.any():
            first_reuse = worker.effective_first_reuse(operand)
            first_rows = dense_rows_accessed(
                first_reuse, tile_nnzs, tile_uniq_ids, tile_extents
            )
            rows = np.where(first_mask, first_rows, rows)
        return rows

    # ------------------------------------------------------------------
    def matrix_flops(self, tiled: TiledMatrix) -> float:
        """Total FLOPs of the kernel: ``2 * K * nnz * ops_per_nnz``."""
        return float(tiled.matrix.nnz) * self.problem.flops_per_nnz
