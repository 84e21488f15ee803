"""Tracked microbenchmarks for the simulator hot path.

The PR that vectorized the plan builder and made the fluid engine
incremental (see ``docs/performance.md``) needs its wins to *stay* won:
this module times the three pipeline stages

- **preprocess**   -- :class:`~repro.sparse.tiling.TiledMatrix`
  construction plus the HotTiles partitioning heuristics,
- **build_plans**  -- :func:`repro.sim.worker_sim.build_plans` against the
  frozen pre-vectorization copy in :mod:`repro.sim._reference`,
- **simulate**     -- :func:`repro.sim.engine.simulate` against the frozen
  full-recompute event loop,

over a fixed set of synthetic matrices and emits a ``BENCH_PERF.json``
report.  ``build_plans`` and ``simulate`` report a *speedup* (frozen
reference wall / live wall, both measured in-process on the same machine,
so the ratio transfers across machines); ``preprocess`` has no frozen
twin, so it reports its wall normalized by the reference simulate wall of
the same case -- also a machine-independent ratio.

:func:`compare` gates a fresh report against a committed baseline using
those ratios only (never raw seconds), so CI stays meaningful on shared
runners.  The regression tolerance lives in :data:`DEFAULT_TOLERANCE`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.arch.configs import spade_sextans
from repro.core.partition import ExecutionMode, HotTilesPartitioner
from repro.sim._reference import build_plans_reference, simulate_reference
from repro.sim.engine import simulate
from repro.sim.worker_sim import build_plans
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "BUILD_PLANS_MIN_SPEEDUP",
    "SIMULATE_MIN_SPEEDUP",
    "FLOORS_CASE",
    "BenchCase",
    "CASES",
    "run_bench",
    "compare",
    "format_report",
    "load_report",
    "write_report",
]

#: Report format identifier; bump on breaking schema changes.
#: ``/2`` added the ``rmat14`` full-mode case.  Dropping its ``backend``
#: field and ``simulate_native`` stage needed no bump: :func:`compare`
#: reads only ``schema`` and the case stages, so older ``/2`` baselines
#: still gate.
SCHEMA = "hottiles-bench-perf/2"

#: Relative slack on the gated ratios before :func:`compare` fails a stage.
#: 25% absorbs timer jitter and CPU-model variance on shared CI runners
#: while still catching a real de-vectorization (the wins being guarded
#: are 3x+); keep in sync with ``.github/workflows/ci.yml``.
DEFAULT_TOLERANCE = 0.25

#: Absolute speedup floors the optimization PRs promised on the
#: ``rmat13`` case (asserted by ``benchmarks/bench_perf_core.py``).
BUILD_PLANS_MIN_SPEEDUP = 3.0
SIMULATE_MIN_SPEEDUP = 2.0


@dataclass(frozen=True)
class BenchCase:
    """One synthetic matrix the harness times end to end."""

    name: str
    make: Callable[[], SparseMatrix]
    quick: bool  #: included in ``--quick`` (CI) runs


#: Deterministic cases, smallest first.  ``rmat13`` is the "largest
#: synthetic matrix" of the optimization PR's acceptance criteria.  The
#: quick (CI) subset deliberately skips ``rmat09``: its stages run in
#: well under a millisecond, where timer jitter alone can breach any
#: reasonable regression tolerance.
CASES: Tuple[BenchCase, ...] = (
    BenchCase("rmat09", lambda: generators.rmat(scale=9, nnz=12_000, seed=7), quick=False),
    BenchCase(
        "banded10", lambda: generators.banded(1024, 10_000, bandwidth=24, seed=7), quick=True
    ),
    BenchCase("rmat11", lambda: generators.rmat(scale=11, nnz=60_000, seed=9), quick=True),
    BenchCase("rmat13", lambda: generators.rmat(scale=13, nnz=200_000, seed=11), quick=False),
    BenchCase("rmat14", lambda: generators.rmat(scale=14, nnz=400_000, seed=13), quick=False),
)

LARGEST_CASE = CASES[-1].name

#: The case the absolute speedup floors are asserted on.  Kept at
#: ``rmat13`` (not the largest case) so the floor history stays
#: comparable across reports that added larger cases.
FLOORS_CASE = "rmat13"

_PathLike = Union[str, Path]


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    """Minimum wall time of ``repeat`` calls (classic microbench practice:
    the minimum is the least noisy estimator of the true cost)."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_case(case: BenchCase, arch, repeat: int) -> Dict[str, object]:
    matrix = case.make()

    def preprocess() -> Tuple[TiledMatrix, np.ndarray, ExecutionMode]:
        tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
        chosen = HotTilesPartitioner(arch).partition(tiled).chosen
        return tiled, chosen.assignment, chosen.mode

    pre_wall = _best_of(preprocess, repeat)
    tiled, assignment, mode = preprocess()

    build_wall = _best_of(lambda: build_plans(arch, tiled, assignment), repeat)
    build_ref_wall = _best_of(
        lambda: build_plans_reference(arch, tiled, assignment), repeat
    )
    sim_wall = _best_of(lambda: simulate(arch, tiled, assignment, mode), repeat)
    sim_ref_wall = _best_of(
        lambda: simulate_reference(arch, tiled, assignment, mode), repeat
    )

    stages: Dict[str, object] = {
        "preprocess": {
            "wall_s": pre_wall,
            # Gated ratio: preprocess cost in units of the frozen
            # simulate cost on the same matrix/machine.
            "normalized": pre_wall / sim_ref_wall,
        },
        "build_plans": {
            "wall_s": build_wall,
            "reference_wall_s": build_ref_wall,
            "speedup": build_ref_wall / build_wall,
        },
        "simulate": {
            "wall_s": sim_wall,
            "reference_wall_s": sim_ref_wall,
            "speedup": sim_ref_wall / sim_wall,
        },
    }

    return {
        "name": case.name,
        "n_rows": int(matrix.n_rows),
        "n_cols": int(matrix.n_cols),
        "nnz": int(matrix.nnz),
        "n_tiles": int(tiled.n_tiles),
        "mode": mode.value,
        "stages": stages,
    }


def run_bench(quick: bool = False, repeat: int = 5) -> Dict[str, object]:
    """Time every (selected) case and return the report dict.

    ``quick`` restricts to the small CI cases; ``repeat`` is the
    best-of-N repetition count per stage.
    """
    arch = spade_sextans(4)
    cases = [c for c in CASES if c.quick or not quick]
    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "repeat": int(repeat),
        "arch": "spade_sextans(4)",
        "tile": [int(arch.tile_height), int(arch.tile_width)],
        "targets": {
            "build_plans_min_speedup": BUILD_PLANS_MIN_SPEEDUP,
            "simulate_min_speedup": SIMULATE_MIN_SPEEDUP,
            "floors_case": FLOORS_CASE,
            "largest_case": LARGEST_CASE,
        },
        "cases": [_bench_case(c, arch, repeat) for c in cases],
    }


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
def compare(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regression check: list of human-readable failures (empty == pass).

    Only machine-independent ratios are gated:

    - stages with a ``speedup`` fail when the current speedup drops below
      ``baseline_speedup * (1 - tolerance)``,
    - ``preprocess`` fails when its ``normalized`` cost exceeds
      ``baseline_normalized * (1 + tolerance)``.

    A case present in the baseline but missing from the current report is
    itself a failure (a silently dropped case must not pass CI).
    """
    failures: List[str] = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current {current.get('schema')!r} "
            f"vs baseline {baseline.get('schema')!r}"
        )
        return failures

    by_name = {c["name"]: c for c in current.get("cases", [])}
    for base_case in baseline.get("cases", []):
        name = base_case["name"]
        cur_case = by_name.get(name)
        if cur_case is None:
            failures.append(f"{name}: case missing from current report")
            continue
        for stage, base_stage in base_case["stages"].items():
            cur_stage = cur_case["stages"].get(stage)
            if cur_stage is None:
                failures.append(f"{name}/{stage}: stage missing from current report")
                continue
            if "speedup" in base_stage:
                floor = base_stage["speedup"] * (1.0 - tolerance)
                if cur_stage["speedup"] < floor:
                    failures.append(
                        f"{name}/{stage}: speedup {cur_stage['speedup']:.2f}x "
                        f"below floor {floor:.2f}x "
                        f"(baseline {base_stage['speedup']:.2f}x - {tolerance:.0%})"
                    )
            else:
                ceiling = base_stage["normalized"] * (1.0 + tolerance)
                if cur_stage["normalized"] > ceiling:
                    failures.append(
                        f"{name}/{stage}: normalized cost "
                        f"{cur_stage['normalized']:.3f} above ceiling {ceiling:.3f} "
                        f"(baseline {base_stage['normalized']:.3f} + {tolerance:.0%})"
                    )
    return failures


def format_report(report: Dict[str, object]) -> str:
    """Fixed-width per-case, per-stage table for terminal output."""
    lines = [
        f"perf bench ({report['mode']}, best of {report['repeat']}, "
        f"arch {report['arch']})",
        f"{'case':<10} {'stage':<16} {'wall':>10} {'reference':>10} {'metric':>14}",
    ]
    for case in report["cases"]:
        for stage, data in case["stages"].items():
            ref = data.get("reference_wall_s")
            if "speedup" in data:
                metric = f"{data['speedup']:.2f}x speedup"
            else:
                metric = f"{data['normalized']:.3f} norm"
            lines.append(
                f"{case['name']:<10} {stage:<16} "
                f"{data['wall_s'] * 1e3:>8.2f}ms "
                f"{'' if ref is None else f'{ref * 1e3:.2f}ms':>10} "
                f"{metric:>14}"
            )
    return "\n".join(lines)


def load_report(path: _PathLike) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_report(report: Dict[str, object], path: _PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
