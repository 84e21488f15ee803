"""Worker (processing element) trait descriptions.

The analytical model (Sec. IV) and the simulator (:mod:`repro.sim`) are
both parameterized purely by these traits.  A trait object captures what
the paper's Sec. VI-B lists as user-supplied architecture inputs:
computational throughput, scratchpad sizes, *Din*/*Dout* reuse types,
sparse format, task-overlap behaviour, and the calibrated visible latency
per byte (``vis_lat``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

__all__ = [
    "ReuseType",
    "SparseFormat",
    "Traversal",
    "WorkerKind",
    "Task",
    "OVERLAP_FULL",
    "OVERLAP_NONE",
    "WorkerTraits",
]


class ReuseType(enum.Enum):
    """Dense-row reuse types of Table I."""

    NONE = "none"  #: every nonzero fetches a dense row from memory
    INTRA_TILE_STREAM = "intra_stream"  #: full dense tile streamed to a scratchpad
    INTRA_TILE_DEMAND = "intra_demand"  #: rows fetched once per distinct id (registers/cache)
    INTER_TILE = "inter_tile"  #: rows already resident from an earlier tile in the panel


class SparseFormat(enum.Enum):
    """Sparse-input compression families of Table I (bottom)."""

    COO_LIKE = "coo"  #: 3 data items per nonzero (r_id, c_id, val)
    CSR_LIKE = "csr"  #: row offsets + (c_id, val) per nonzero


class Traversal(enum.Enum):
    """Sparse-matrix traversal orders of Fig. 6."""

    UNTILED_ROW_ORDERED = "untiled"
    TILED_ROW_ORDERED = "tiled"


class WorkerKind(enum.Enum):
    """Hot workers suit compute-bound dense regions; cold workers suit
    memory-bound sparse regions (Sec. III-A)."""

    HOT = "hot"
    COLD = "cold"


class Task(enum.Enum):
    """The five per-tile tasks of the execution-time model (Sec. IV-B)."""

    SPARSE_READ = "sparse_read"
    DIN_READ = "din_read"
    DOUT_READ = "dout_read"
    COMPUTE = "compute"
    DOUT_WRITE = "dout_write"


_ALL_TASKS = frozenset(Task)

#: Worker overlaps all five tasks: tile time = max over task times.
OVERLAP_FULL: Tuple[FrozenSet[Task], ...] = (_ALL_TASKS,)

#: Worker overlaps nothing: tile time = sum over task times.
OVERLAP_NONE: Tuple[FrozenSet[Task], ...] = tuple(frozenset((t,)) for t in Task)


@dataclass(frozen=True)
class WorkerTraits:
    """Full description of one worker (PE) type.

    Model parameters (consumed by :class:`repro.core.model.AnalyticalModel`):

    - ``macs_per_cycle`` / ``simd_width`` / ``frequency_ghz`` -- compute
      throughput; a nonzero costs
      ``ceil(K / simd_width) * ops_per_nnz / macs_per_cycle`` cycles,
    - ``fixed_nnz_per_cycle`` -- when set, the worker processes that many
      nonzeros per cycle *regardless of arithmetic intensity* (the enhanced
      Sextans of the SPADE-Sextans+PCIe study, Sec. VII),
    - ``din_reuse`` / ``dout_reuse`` -- Table III reuse types,
    - ``din_first_tile_reuse`` / ``dout_first_tile_reuse`` -- the reuse type
      charged to the *first* tile of this worker type in a row panel when
      the steady-state type is ``INTER_TILE`` (Sec. IV-C readjustment),
    - ``sparse_format``, ``traversal``, ``overlap_groups``,
    - ``vis_lat_s_per_byte`` -- calibrated visible latency per byte.

    Simulator parameters (consumed by :mod:`repro.sim`, i.e. the stand-in
    for the paper's SST/Sniper ground truth):

    - ``mem_bytes_per_cycle`` -- maximum memory draw rate of one worker,
    - ``scratchpad_bytes`` -- stream-buffer capacity (constrains tile size),
    - ``cache_bytes`` -- demand-reuse cache capacity; the analytical model
      deliberately ignores it (Sec. IV-C limitation 2), the simulator
      honors it.
    """

    name: str
    kind: WorkerKind
    macs_per_cycle: float
    simd_width: int
    frequency_ghz: float
    din_reuse: ReuseType
    dout_reuse: ReuseType
    sparse_format: SparseFormat
    traversal: Traversal
    overlap_groups: Tuple[FrozenSet[Task], ...] = OVERLAP_FULL
    din_first_tile_reuse: Optional[ReuseType] = None
    dout_first_tile_reuse: Optional[ReuseType] = None
    fixed_nnz_per_cycle: Optional[float] = None
    vis_lat_s_per_byte: float = 1e-11
    mem_bytes_per_cycle: float = 16.0
    scratchpad_bytes: Optional[int] = None
    cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.macs_per_cycle <= 0 or self.simd_width <= 0 or self.frequency_ghz <= 0:
            raise ValueError(f"{self.name}: compute parameters must be positive")
        if self.vis_lat_s_per_byte < 0 or self.mem_bytes_per_cycle <= 0:
            raise ValueError(f"{self.name}: memory parameters must be positive")
        covered = frozenset().union(*self.overlap_groups) if self.overlap_groups else frozenset()
        if covered != _ALL_TASKS:
            raise ValueError(f"{self.name}: overlap groups must cover all five tasks")
        total = sum(len(g) for g in self.overlap_groups)
        if total != len(_ALL_TASKS):
            raise ValueError(f"{self.name}: overlap groups must not overlap each other")
        for attr in ("din_first_tile_reuse", "dout_first_tile_reuse"):
            first = getattr(self, attr)
            if first is ReuseType.INTER_TILE:
                raise ValueError(f"{self.name}: {attr} cannot itself be INTER_TILE")

    # ------------------------------------------------------------------
    @property
    def panel_affine(self) -> bool:
        """Whether the scheduler hands this worker whole panels.

        Scratchpad state (tiled traversal, or *Din* reused within a tile)
        is per panel, so all of a panel's tiles of this type run on one
        instance.  Other workers get row blocks of
        :func:`repro.core.contention.block_rows` rows.  The simulator's
        scheduler and the model's granularity floors both read this.
        """
        return self.traversal is Traversal.TILED_ROW_ORDERED or self.din_reuse in (
            ReuseType.INTRA_TILE_STREAM,
            ReuseType.INTRA_TILE_DEMAND,
        )

    def cycles_per_nonzero(self, k: int, ops_per_nnz: int = 1) -> float:
        """Cycles to process one nonzero of an SpMM with ``K = k``.

        A nonzero requires ``ops_per_nnz`` SIMD operations over a K-element
        row (``ops_per_nnz`` = 1 for vanilla SpMM; larger for gSpMM variants
        with heavier monoids, Fig. 14).
        """
        if k <= 0 or ops_per_nnz <= 0:
            raise ValueError("k and ops_per_nnz must be positive")
        if self.fixed_nnz_per_cycle is not None:
            return 1.0 / self.fixed_nnz_per_cycle
        return math.ceil(k / self.simd_width) * ops_per_nnz / self.macs_per_cycle

    def nnz_throughput_per_sec(self, k: int, ops_per_nnz: int = 1) -> float:
        """Peak nonzeros/second of one worker instance."""
        return self.frequency_ghz * 1e9 / self.cycles_per_nonzero(k, ops_per_nnz)

    def peak_gflops(self, k: int, ops_per_nnz: int = 1) -> float:
        """Peak GFLOP/s (2 flops per element per MAC-equivalent op)."""
        flops_per_nnz = 2.0 * k * ops_per_nnz
        return self.nnz_throughput_per_sec(k, ops_per_nnz) * flops_per_nnz / 1e9

    def mem_rate_bytes_per_sec(self) -> float:
        """Maximum memory draw rate of one worker instance (simulator)."""
        return self.mem_bytes_per_cycle * self.frequency_ghz * 1e9

    def effective_first_reuse(self, operand: str) -> ReuseType:
        """Reuse type charged to a panel's first tile for ``din``/``dout``."""
        if operand == "din":
            steady, first = self.din_reuse, self.din_first_tile_reuse
        elif operand == "dout":
            steady, first = self.dout_reuse, self.dout_first_tile_reuse
        else:
            raise ValueError(f"operand must be 'din' or 'dout', got {operand!r}")
        if steady is not ReuseType.INTER_TILE:
            return steady
        if first is None:
            raise ValueError(
                f"{self.name}: {operand}_first_tile_reuse required with INTER_TILE reuse"
            )
        return first

    def with_vis_lat(self, vis_lat: float) -> "WorkerTraits":
        """Copy of these traits with a (re-)calibrated ``vis_lat``."""
        return replace(self, vis_lat_s_per_byte=vis_lat)

    def scaled_compute(self, factor: float) -> "WorkerTraits":
        """Copy with compute throughput scaled by ``factor`` (Fig. 14)."""
        if self.fixed_nnz_per_cycle is not None:
            return replace(self, fixed_nnz_per_cycle=self.fixed_nnz_per_cycle * factor)
        return replace(self, macs_per_cycle=self.macs_per_cycle * factor)
