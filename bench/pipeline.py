"""The pipeline path: matrix -> plan -> simulated result, in process.

One pass is what a user of the library does for a (matrix, architecture)
pair: tile the matrix, partition the tiles, build the hot and cold
formats, and simulate the chosen plan.  The passes of a workload run in a
closed loop, round-robin over its (matrix, architecture) cases.
"""

from __future__ import annotations

import math
import os
import time
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.configs import ARCHITECTURE_FACTORIES
from repro.arch.heterogeneous import Architecture
from repro.core.partition import HotTilesPartitioner, HotTilesResult
from repro.core.traits import WorkerKind
from repro.experiments.matrices import profiling_matrices
from repro.experiments.runner import calibrated, clear_calibration_cache
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.pipeline.formats import AnyFormat, build_format
from repro.sim.engine import SimResult, simulate, simulate_homogeneous
from repro.sim.worker_sim import build_plans
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix

from bench import trace_summary
from bench.common import (
    WARMUP_S,
    WORK_CPU,
    Op,
    WorkloadRun,
    latency_metrics,
    own_peak_rss_mb,
    pct,
    quality_metrics,
    repeat_setup,
)

ARCHS = tuple(ARCHITECTURE_FACTORIES)

Recipe = Callable[[int], SparseMatrix]


def _rmat(scale: int, nnz: int, a: float) -> Recipe:
    b = c = (1.0 - a) / 2.0 - 0.05
    return lambda seed: generators.rmat(scale=scale, nnz=nnz, a=a, b=b, c=c, seed=seed)


#: The ``ski``/``wik``/``del`` recipes of ``repro.experiments.matrices``,
#: reseeded: 32k-46k tiles of about 10 nonzeros each, so the per-tile
#: layers (model, partition, plan building, fluid engine) do most work.
GRAPH_RECIPES: Dict[str, Recipe] = {
    "ski": _rmat(15, 344_000, 0.57),
    "wik": _rmat(15, 453_000, 0.65),
    "del": lambda seed: generators.banded(
        65536, 390_000, bandwidth=24, scatter_fraction=0.12, seed=seed
    ),
}

#: Few, full tiles (at most 4k tiles of 100-1100 nonzeros), so the
#: per-nonzero layers (tiling, formats) dominate.  ``mou``/``nd2`` keep
#: their recipes' block geometry at 250k nonzeros: at the catalogue's
#: 450k the blocks saturate and generation alone takes 8 s.
DENSE_RECIPES: Dict[str, Recipe] = {
    "myc": lambda seed: generators.mycielskian(13),
    "mou": lambda seed: generators.dense_blocks(
        1408, 250_000, 12, 176, background_fraction=0.12, seed=seed
    ),
    "nd2": lambda seed: generators.dense_blocks(
        2250, 250_000, 24, 128, background_fraction=0.12, seed=seed
    ),
    "pap": lambda seed: generators.community_blocks(
        6656, 500_000, 48, intra_fraction=0.85, seed=seed
    ),
    "kro": _rmat(13, 660_000, 0.57),
}


@dataclass(frozen=True)
class Case:
    """One (matrix, architecture) pair a pipeline workload plans."""

    label: str
    matrix: SparseMatrix
    arch: Architecture


@dataclass(frozen=True)
class PassOutput:
    tiled: TiledMatrix
    partitioner: HotTilesPartitioner
    result: HotTilesResult
    hot: AnyFormat
    cold: AnyFormat
    sim: SimResult


def setup(recipes: Dict[str, Recipe], seed: int) -> List[Case]:
    """Generate the matrices and calibrate the architectures from scratch."""
    clear_calibration_cache()
    profiling_matrices.cache_clear()
    archs = [calibrated(ARCHITECTURE_FACTORIES[name]()) for name in ARCHS]
    cases = []
    for i, (name, make) in enumerate(recipes.items()):
        matrix = make(seed * 1000 + i)
        cases += [Case(f"{name}/{arch.name}", matrix, arch) for arch in archs]
    return cases


def run_pass(case: Case, op: int) -> PassOutput:
    """One matrix -> plan -> simulated result pass, a span per layer."""
    tracer = get_tracer()
    arch = case.arch
    with tracer.span("sparse.tiling", cat="bench", op=op):
        tiled = TiledMatrix(case.matrix, arch.tile_height, arch.tile_width)
    partitioner = HotTilesPartitioner(arch)
    with tracer.span("core.partition", cat="bench", op=op):
        result = partitioner.partition(tiled)
    chosen = result.chosen
    with tracer.span("pipeline.formats", cat="bench", op=op):
        hot = build_format(tiled, chosen.assignment, arch.hot.traits)
    with tracer.span("pipeline.formats", cat="bench", op=op):
        cold = build_format(tiled, ~chosen.assignment, arch.cold.traits)
    with tracer.span("sim.engine", cat="bench", op=op):
        sim = simulate(arch, tiled, chosen.assignment, chosen.mode, split=chosen.split)
    return PassOutput(tiled, partitioner, result, hot, cold, sim)


def probe_layers(out: PassOutput, op: int) -> None:
    """Time the layers a pass only reaches from inside another layer.

    Runs outside the pass span: the tile-cost model (inside
    ``partition``), plan building (inside ``simulate``) and one
    final-runtime score per candidate.
    """
    tracer = get_tracer()
    arch = out.partitioner.arch
    chosen = out.result.chosen
    with tracer.span("core.model", cat="probe", op=op):
        out.partitioner.tile_costs(out.tiled)
    with tracer.span("sim.worker_sim", cat="probe", op=op):
        build_plans(arch, out.tiled, chosen.assignment, split=chosen.split)
    for candidate in out.result.candidates.values():
        with tracer.span("core.partition.score", cat="probe", op=op):
            out.partitioner.predicted_runtime(out.tiled, candidate.assignment, candidate.mode)


def pass_facts(out: PassOutput) -> trace_summary.PassFacts:
    arch = out.partitioner.arch
    nnz = out.tiled.matrix.nnz
    return trace_summary.PassFacts(
        nnz=nnz,
        tiles=out.tiled.n_tiles,
        split_won=out.result.chosen.split is not None,
        hot_nnz_frac=out.result.chosen.hot_nnz_fraction(out.tiled),
        cache_lines_per_nnz=out.sim.cache_lines_per_nnz(nnz),
        bw_util_frac=out.sim.bandwidth_utilization_bytes_per_sec / arch.mem_bw_bytes_per_sec,
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _crc(arrays: Sequence[np.ndarray]) -> int:
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def _format_arrays(fmt: AnyFormat) -> List[np.ndarray]:
    return [getattr(fmt, f.name) for f in fields(fmt) if isinstance(getattr(fmt, f.name), np.ndarray)]


def fingerprint(out: PassOutput) -> Tuple:
    """Everything a pass outputs, condensed; equal across correct passes."""
    chosen = out.result.chosen
    return (
        chosen.label,
        chosen.mode,
        chosen.predicted_time_s,
        chosen.split,
        _crc([chosen.assignment]),
        _crc(_format_arrays(out.hot)),
        _crc(_format_arrays(out.cold)),
        out.sim.time_s,
    )


def conservation_problems(label: str, nnz: int, out: PassOutput) -> List[str]:
    problems = []
    if out.hot.nnz + out.cold.nnz != nnz:
        problems.append(f"{label}: formats hold {out.hot.nnz}+{out.cold.nnz} of {nnz} nonzeros")
    if out.sim.hot.nnz + out.sim.cold.nnz != nnz:
        problems.append(
            f"{label}: simulation ran {out.sim.hot.nnz}+{out.sim.cold.nnz} of {nnz} nonzeros"
        )
    return problems


def spmm_problems(label: str, matrix: SparseMatrix, out: PassOutput) -> List[str]:
    """Hot plus cold format SpMM must equal ``matrix @ din``."""
    din = np.random.default_rng(matrix.nnz).standard_normal((matrix.n_cols, 4))
    got = out.hot.spmm(din) + out.cold.spmm(din)
    if np.allclose(got, matrix.spmm(din), rtol=1e-9, atol=1e-9):
        return []
    return [f"{label}: hot+cold SpMM differs from matrix @ din"]


def speedup_and_error(arch: Architecture, out: PassOutput) -> Tuple[float, List[float]]:
    """Simulated HotTiles speedup over the best homogeneous run (Figs. 10
    and 11), and the model's relative errors ``|pred - sim| / sim`` for
    the chosen plan, HotOnly and ColdOnly (Fig. 17)."""
    sim_s = out.sim.time_s
    homogeneous = []
    errors = [abs(out.result.chosen.predicted_time_s - sim_s) / sim_s]
    for kind in (WorkerKind.HOT, WorkerKind.COLD):
        kind_s = simulate_homogeneous(arch, out.tiled, kind).time_s
        homogeneous.append(kind_s)
        errors.append(abs(out.partitioner.predict_homogeneous(out.tiled, kind) - kind_s) / kind_s)
    return min(homogeneous) / sim_s, errors


# ----------------------------------------------------------------------
# The workload loop
# ----------------------------------------------------------------------
class _Loop:
    """Round-robin closed loop over the cases.

    The first pass of each case is verified in full (SpMM, conservation)
    and scored against the homogeneous runs; every later pass must
    reproduce its outputs exactly.
    """

    def __init__(self, run: WorkloadRun, cases: List[Case]) -> None:
        self.run = run
        self.cases = cases
        self.refs: Dict[str, Tuple] = {}
        self.speedups: List[float] = []
        self.errors: List[float] = []
        self.next = 0

    def step(self, traced: bool) -> Tuple[Op, Optional[trace_summary.PassFacts]]:
        op_id = self.next
        case = self.cases[op_id % len(self.cases)]
        self.next += 1
        self.run.clock.probe()
        start = time.perf_counter()
        with get_tracer().span("bench.pass", cat="bench", op=op_id, case=case.label):
            out = run_pass(case, op_id)
        done = time.perf_counter()
        problems = conservation_problems(case.label, case.matrix.nnz, out)
        ref = self.refs.get(case.label)
        if ref is None:
            problems += spmm_problems(case.label, case.matrix, out)
            self.refs[case.label] = fingerprint(out)
            speedup, errors = speedup_and_error(case.arch, out)
            self.speedups.append(speedup)
            self.errors += errors
        elif fingerprint(out) != ref:
            problems.append(f"{case.label}: plan or outputs differ from the first pass")
        ok = self.run.check(problems)
        facts = None
        if traced:
            probe_layers(out, op_id)
            facts = pass_facts(out)
        return Op("pass", start, start, done, ok, nnz=case.matrix.nnz), facts

    def window(
        self, traced: bool, seconds: float = math.inf, passes: Optional[int] = None
    ) -> Tuple[List[Op], List, List[float]]:
        """Passes until ``seconds`` elapse or ``passes`` ran: ops, their
        facts, and the bench's own gaps between consecutive passes."""
        ops, facts = [], []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end and len(ops) != passes:
            op, fact = self.step(traced)
            ops.append(op)
            facts.append(fact)
        gaps = [b.sent - a.done for a, b in zip(ops, ops[1:])]
        return ops, facts, gaps


def run_workload(
    run: WorkloadRun,
    recipes: Dict[str, Recipe],
    seed: int,
    seconds: float,
    trace_dir: Optional[Path],
) -> None:
    os.sched_setaffinity(0, {WORK_CPU})
    cases = repeat_setup(run, lambda: setup(recipes, seed), lambda cases: None)
    loop = _Loop(run, cases)
    end = time.perf_counter() + WARMUP_S
    while loop.next < len(cases) or time.perf_counter() < end:
        loop.step(traced=False)
    ops, _, gaps = loop.window(traced=False, seconds=seconds)
    latency_metrics(run, ops)
    run.extra["bench.gen_late_ms_p90"] = pct([g * 1e3 for g in gaps], 90)
    quality_metrics(run, loop.speedups, loop.errors)
    run.metrics["peak_rss_mb"] = own_peak_rss_mb()

    if trace_dir is not None:
        # Two passes per case: enough for every layer, while a traced
        # large pass records tens of thousands of simulator events.
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            traced_ops, facts, _ = loop.window(traced=True, passes=2 * len(cases))
        run.layers.update(trace_summary.pipeline_layers(tracer, facts))
        run.layers.update(trace_summary.bench_health(run, traced_ops))
        trace_summary.save_bench_trace(run, tracer, trace_dir)
