"""Resilience experiment: makespan inflation under injected faults.

For each target architecture, partition the matrix once with the full
HotTiles pipeline, simulate the fault-free execution, then re-simulate
under seeded :class:`~repro.faults.schedule.FaultSchedule` draws of
increasing intensity (``rate`` = the expected number of events of *each*
type -- failure, slowdown, bandwidth window -- over the fault-free
makespan).  The headline number per cell is the **makespan inflation**
``faulted / fault-free``: how gracefully the heterogeneous execution
degrades when workers straggle, die, or the shared memory channel sags.

Random schedules never kill the last instance of a group (see
:meth:`FaultSchedule.random`), so every cell completes in degraded mode
and reports a finite inflation -- the invariant the resilience tests and
the CI chaos smoke assert.  Rate 0 is included by default as an anchor:
its schedule is empty, takes the bit-identical fault-free path, and must
report an inflation of exactly 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.reporting import format_table
from repro.faults.schedule import FaultSchedule
from repro.sparse.matrix import SparseMatrix

__all__ = [
    "ResilienceRow",
    "ResilienceResult",
    "resilience_sweep",
    "DEFAULT_ARCHES",
    "DEFAULT_RATES",
]

#: The Table IV machines the sweep covers by default.
DEFAULT_ARCHES = ("spade-sextans", "spade-sextans-pcie", "piuma")

#: Expected injected events of each type over the fault-free makespan.
DEFAULT_RATES = (0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class ResilienceRow:
    """One (architecture, fault rate) cell of the sweep."""

    arch: str
    rate: float  #: expected events per fault type over the horizon
    events: int  #: events actually drawn (Poisson realisation)
    failures: int  #: permanent worker failures among them
    reassigned_phases: int  #: work units moved off dead instances
    base_ms: float  #: fault-free makespan
    faulted_ms: float  #: degraded-mode makespan

    @property
    def inflation(self) -> float:
        return self.faulted_ms / self.base_ms if self.base_ms > 0 else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "arch": self.arch,
            "rate": self.rate,
            "events": self.events,
            "failures": self.failures,
            "reassigned_phases": self.reassigned_phases,
            "base_ms": self.base_ms,
            "faulted_ms": self.faulted_ms,
            "inflation": self.inflation,
        }


@dataclass(frozen=True)
class ResilienceResult:
    """The full fault-rate sweep for one matrix."""

    matrix_label: str
    seed: int
    rows: List[ResilienceRow]

    def render(self) -> str:
        table = [
            (
                row.arch,
                row.rate,
                row.events,
                row.failures,
                row.base_ms,
                row.faulted_ms,
                row.inflation,
            )
            for row in self.rows
        ]
        return format_table(
            ["arch", "rate", "events", "failures", "base ms", "faulted ms",
             "inflation"],
            table,
            title=f"Resilience sweep: {self.matrix_label} (seed {self.seed})",
        )

    def max_inflation(self) -> float:
        return max((row.inflation for row in self.rows), default=1.0)

    def all_finite(self) -> bool:
        import math

        return all(math.isfinite(row.inflation) for row in self.rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matrix": self.matrix_label,
            "seed": self.seed,
            "rows": [row.to_dict() for row in self.rows],
            "max_inflation": self.max_inflation(),
        }

    def save_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path


def resilience_sweep(
    matrix: SparseMatrix,
    arches: Sequence[str] = DEFAULT_ARCHES,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    scale: int = 4,
    label: Optional[str] = None,
) -> ResilienceResult:
    """Sweep fault intensity per architecture; see the module docstring."""
    from repro.arch.configs import ARCHITECTURE_FACTORIES, build_architecture
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.sim.engine import simulate

    if not arches:
        raise ValueError("arches must not be empty")
    if not rates or any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative and non-empty")
    unknown = [a for a in arches if a not in ARCHITECTURE_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown architecture(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(ARCHITECTURE_FACTORIES))})"
        )

    rows: List[ResilienceRow] = []
    for arch_i, name in enumerate(arches):
        arch = build_architecture(name, scale)
        preprocess = HotTilesPreprocessor(arch).run(matrix)
        chosen = preprocess.partition.chosen
        base = simulate(
            arch, preprocess.tiled, chosen.assignment, chosen.mode, split=chosen.split
        )
        for rate_i, rate in enumerate(rates):
            # One deterministic sub-seed per cell, independent of the
            # other cells, so subsetting arches/rates keeps draws stable.
            schedule = FaultSchedule.random(
                seed=seed * 100_003 + arch_i * 1_009 + rate_i,
                horizon_s=base.time_s,
                hot_instances=arch.hot.count,
                cold_instances=arch.cold.count,
                failure_rate=rate,
                slowdown_rate=rate,
                bandwidth_rate=rate,
            )
            faulted = simulate(
                arch, preprocess.tiled, chosen.assignment, chosen.mode,
                faults=schedule, split=chosen.split,
            )
            summary = faulted.faults
            rows.append(
                ResilienceRow(
                    arch=name,
                    rate=float(rate),
                    events=len(schedule),
                    failures=summary.failures if summary is not None else 0,
                    reassigned_phases=(
                        summary.reassigned_phases if summary is not None else 0
                    ),
                    base_ms=base.time_s * 1e3,
                    faulted_ms=faulted.time_s * 1e3,
                )
            )
    return ResilienceResult(
        matrix_label=label if label is not None else str(matrix),
        seed=seed,
        rows=rows,
    )
