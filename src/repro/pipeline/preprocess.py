"""The end-to-end HotTiles preprocessing pipeline (paper Fig. 7).

Runs on the host of the heterogeneous architecture: scan the matrix into
tiles, model every tile for both worker types, partition with the
heuristics, and emit the hot and cold sparse formats the accelerators
execute.  Per-stage wall-clock timings are recorded for the Fig. 18
preprocessing-cost study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.partition import HotTilesPartitioner, HotTilesResult
from repro.pipeline.cost import PreprocessCost
from repro.pipeline.formats import AnyFormat, build_format
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix

__all__ = ["PreprocessResult", "HotTilesPreprocessor"]


@dataclass(frozen=True)
class PreprocessResult:
    """Everything the preprocessing produces for one matrix."""

    tiled: TiledMatrix
    partition: HotTilesResult
    hot_format: Optional[AnyFormat]  #: None when no tile is hot
    cold_format: Optional[AnyFormat]  #: None when no tile is cold
    cost: PreprocessCost

    def verify_spmm(self, din: np.ndarray) -> np.ndarray:
        """Execute both partial formats and merge -- the Merger's job."""
        matrix = self.tiled.matrix
        out = np.zeros(
            (matrix.n_rows, din.shape[1]), dtype=np.result_type(matrix.vals, din)
        )
        for fmt in (self.hot_format, self.cold_format):
            if fmt is not None:
                out += fmt.spmm(din)
        return out


class HotTilesPreprocessor:
    """Scan + model + partition + format generation for one architecture."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self.partitioner = HotTilesPartitioner(arch)

    def run(self, matrix: SparseMatrix) -> PreprocessResult:
        """Full pipeline over one sparse matrix.

        Also times the homogeneous-only format generation (the cost any
        single-accelerator software stack pays anyway) so Fig. 18 can
        report the *HotTiles-specific* overhead on top of it.
        """
        t0 = time.perf_counter()
        tiled = TiledMatrix(matrix, self.arch.tile_height, self.arch.tile_width)
        t_scan = time.perf_counter() - t0

        t0 = time.perf_counter()
        partition = self.partitioner.partition(tiled)
        t_partition = time.perf_counter() - t0

        # A block-split plan (partition.chosen.split) still materializes
        # whole-tile formats: the split tile's data lands in the hot-side
        # format and the cold group reads its sub-block from it.  Format
        # bytes are charged per tile either way, so only the simulator
        # (which honors ``split=``) needs the finer granularity.
        assignment = partition.chosen.assignment
        t0 = time.perf_counter()
        hot_format = (
            build_format(tiled, assignment, self.arch.hot.traits)
            if assignment.any()
            else None
        )
        cold_format = (
            build_format(tiled, ~assignment, self.arch.cold.traits)
            if (~assignment).any()
            else None
        )
        t_formats = time.perf_counter() - t0

        # Baseline: what a homogeneous accelerator's pipeline would spend
        # generating its single format for the whole matrix.
        baseline_traits = (
            self.arch.cold.traits if self.arch.cold.count else self.arch.hot.traits
        )
        t0 = time.perf_counter()
        build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), baseline_traits)
        t_homogeneous = time.perf_counter() - t0

        cost = PreprocessCost(
            scan_s=t_scan,
            partition_s=t_partition,
            format_generation_s=t_formats,
            homogeneous_format_s=t_homogeneous,
        )
        return PreprocessResult(
            tiled=tiled,
            partition=partition,
            hot_format=hot_format,
            cold_format=cold_format,
            cost=cost,
        )
