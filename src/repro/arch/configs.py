"""Concrete architecture configurations from the paper's methodology.

Table IV system scales for SPADE-Sextans, the PCIe variant, the PIUMA
machine, and the skewed iso-scale SPADE-Sextans architectures explored in
Sec. VIII-B.

All benchmark matrices are scaled down by ``MATRIX_SCALE_DIVISOR``
(DESIGN.md Sec. 6), so scratchpad capacities -- and hence tile sizes --
scale by the same factor: the paper's 8192x8192 tiles become 128x128 at
the default divisor of 64, keeping the number of row panels and the
per-tile sparsity statistics aligned with the paper's geometry.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.arch.heterogeneous import Architecture, WorkerGroup
from repro.core.problem import ProblemSpec
from repro.workers.piuma import piuma_mtp, piuma_stp
from repro.workers.sextans import sextans, sextans_enhanced, sextans_tile_width
from repro.workers.spade import spade_pe

__all__ = [
    "MATRIX_SCALE_DIVISOR",
    "SPADE_SEXTANS_BW_GBS",
    "PIUMA_BW_GBS",
    "PCIE_BW_GBS",
    "spade_sextans",
    "spade_sextans_iso_scale",
    "spade_sextans_pcie",
    "piuma",
    "ARCHITECTURE_FACTORIES",
    "factory_args",
    "build_architecture",
]

#: Benchmark matrices (and scratchpads/tiles) are shrunk by this factor.
MATRIX_SCALE_DIVISOR = 64

#: Paper Sec. VII-A: maximum theoretical memory-controller bandwidth.
SPADE_SEXTANS_BW_GBS = 205.0

#: PCIe bandwidth in front of the off-chip Sextans (Sec. VII-A).
PCIE_BW_GBS = 32.0

#: Single-die PIUMA memory bandwidth (the paper withholds PIUMA
#: microarchitectural numbers as proprietary; this is a plausible setting
#: that keeps the MTPs memory-bound and the STP DMA traffic contended).
PIUMA_BW_GBS = 128.0

#: Table IV: number of SPADE PEs per system scale unit.
SPADE_PES_PER_SCALE = 4

#: Paper tile size before matrix scaling.
PAPER_TILE_SIZE = 8192


def spade_sextans(
    system_scale: int = 4, matrix_scale_divisor: int = MATRIX_SCALE_DIVISOR
) -> Architecture:
    """SPADE-Sextans at a Table IV system scale (1, 2, 4 or 8).

    ``4 * scale`` SPADE PEs (cold) share the die and the memory controllers
    with one Sextans worker (hot) whose compute throughput and scratchpad
    grow with the scale.  Output races are avoided with private buffers and
    a Merger module, so both Parallel and Serial heuristics apply.
    """
    return spade_sextans_iso_scale(system_scale, system_scale, matrix_scale_divisor)


def spade_sextans_iso_scale(
    cold_scale: int,
    hot_scale: int,
    matrix_scale_divisor: int = MATRIX_SCALE_DIVISOR,
) -> Architecture:
    """A skewed SPADE-Sextans architecture (Sec. VIII-B).

    ``cold_scale`` scales the number of SPADE PEs, ``hot_scale`` scales the
    single Sextans worker; the iso-scale family of Fig. 16 keeps
    ``cold_scale + hot_scale = 8``.  A scale of 0 removes that worker type.
    """
    if cold_scale < 0 or hot_scale < 0 or cold_scale + hot_scale == 0:
        raise ValueError("scales must be non-negative and not both zero")
    problem = ProblemSpec(k=32, value_bytes=4, index_bytes=4)
    tile_height = PAPER_TILE_SIZE // matrix_scale_divisor
    cold = WorkerGroup(spade_pe(), SPADE_PES_PER_SCALE * cold_scale)
    if hot_scale > 0:
        hot_traits = sextans(hot_scale, matrix_scale_divisor)
        hot = WorkerGroup(hot_traits, 1)
        tile_width = sextans_tile_width(hot_traits, problem.dense_row_bytes)
    else:
        hot = WorkerGroup(sextans(1, matrix_scale_divisor), 0)
        tile_width = tile_height  # no scratchpad constraint: square tiles
    name = (
        f"spade-sextans-x{cold_scale}"
        if cold_scale == hot_scale
        else f"spade-sextans-{cold_scale}-{hot_scale}"
    )
    return Architecture(
        name=name,
        hot=hot,
        cold=cold,
        mem_bw_gbs=SPADE_SEXTANS_BW_GBS,
        problem=problem,
        tile_height=tile_height,
        tile_width=tile_width,
        atomic_updates=False,
    )


def spade_sextans_pcie(
    system_scale: int = 4,
    matrix_scale_divisor: int = MATRIX_SCALE_DIVISOR,
    ops_per_nnz: int = 1,
) -> Architecture:
    """SPADE-Sextans with the Sextans behind a 32 GB/s PCIe link.

    The off-chip Sextans is *enhanced*: it processes ``5 * scale`` nonzeros
    per cycle regardless of the kernel's arithmetic intensity, while the
    SPADE PEs need proportionally more cycles as ``ops_per_nnz`` grows
    (the Fig. 14 gSpMM study).
    """
    base = spade_sextans(system_scale, matrix_scale_divisor)
    hot_traits = sextans_enhanced(
        nnz_per_cycle=5.0 * system_scale,
        system_scale=system_scale,
        matrix_scale_divisor=matrix_scale_divisor,
    )
    problem = base.problem.with_ops_per_nnz(ops_per_nnz)
    return Architecture(
        name=f"spade-sextans-pcie-x{system_scale}",
        hot=WorkerGroup(hot_traits, 1),
        cold=base.cold,
        mem_bw_gbs=base.mem_bw_gbs,
        problem=problem,
        tile_height=base.tile_height,
        tile_width=base.tile_width,
        atomic_updates=False,
        pcie_bw_gbs=PCIE_BW_GBS,
    )


def piuma(matrix_scale_divisor: int = MATRIX_SCALE_DIVISOR) -> Architecture:
    """PIUMA: 4 MTPs (cold) + 2 STPs with scratchpads/DMA (hot), fp64.

    The Atomic engine gives race-free read-modify-write, so the worker
    types always run in parallel and only the Parallel heuristics are used.
    """
    problem = ProblemSpec(k=32, value_bytes=8, index_bytes=8)
    tile = PAPER_TILE_SIZE // matrix_scale_divisor
    stp = piuma_stp(matrix_scale_divisor, problem.dense_row_bytes)
    return Architecture(
        name="piuma",
        hot=WorkerGroup(stp, 2),
        cold=WorkerGroup(piuma_mtp(), 4),
        mem_bw_gbs=PIUMA_BW_GBS,
        problem=problem,
        tile_height=tile,
        tile_width=tile,
        atomic_updates=True,
    )


#: Name-based factories for the CLI.
ARCHITECTURE_FACTORIES: Dict[str, Callable[..., Architecture]] = {
    "spade-sextans": spade_sextans,
    "spade-sextans-pcie": spade_sextans_pcie,
    "piuma": piuma,
}


def factory_args(name: str, scale: int) -> Tuple[int, ...]:
    """Positional arguments of ``ARCHITECTURE_FACTORIES[name]`` at system
    scale ``scale``.  PIUMA takes none: it has no system scale, and its
    first positional argument is the matrix scale divisor."""
    return () if name == "piuma" else (scale,)


def build_architecture(name: str, scale: int) -> Architecture:
    """The named architecture at system scale ``scale`` (PIUMA ignores it)."""
    return ARCHITECTURE_FACTORIES[name](*factory_args(name, scale))
