"""Tracing-enabled vs tracing-disabled simulation must be bit-identical.

The acceptance criterion of the observability layer: instrumentation
observes the fluid engine, it never feeds back into the arithmetic.
Every matrix in ``tests/conftest.py`` is simulated both ways and every
``SimResult`` field is compared with exact equality -- no tolerances --
with and without a fault schedule.  The narration of faulted runs (the
``faults`` track, chunks finished by an heir) is pinned as well.
"""

import numpy as np
import pytest

from repro.core.partition import ExecutionMode
from repro.faults.schedule import (
    BandwidthWindow,
    FaultSchedule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.obs import Tracer, use_tracer
from repro.sim.engine import _instance_labels, simulate, simulate_homogeneous
from repro.sim.worker_sim import build_plans
from repro.core.traits import WorkerKind
from repro.sparse.tiling import TiledMatrix

MATRIX_FIXTURES = ["tiny_matrix", "small_rmat", "small_uniform", "small_banded"]


def _assignment(tiled, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(tiled.n_tiles) < 0.5


def _assert_bit_identical(traced, plain):
    assert traced.time_s == plain.time_s
    assert traced.merge_time_s == plain.merge_time_s
    assert traced.mode == plain.mode
    assert traced.hot == plain.hot  # instances, nnz, flops, bytes, busy_s
    assert traced.cold == plain.cold
    assert traced.bandwidth_profile == plain.bandwidth_profile
    assert traced.bytes_total == plain.bytes_total


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
def test_tracing_does_not_perturb_simulate(fixture, mode, request, spade_sextans_arch):
    matrix = request.getfixturevalue(fixture)
    arch = spade_sextans_arch
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)

    plain = simulate(arch, tiled, assignment, mode)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(arch, tiled, assignment, mode)

    assert len(tracer) > 0, "tracer recorded nothing with tracing enabled"
    _assert_bit_identical(traced, plain)


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_tracing_does_not_perturb_homogeneous(fixture, request, piuma_arch):
    matrix = request.getfixturevalue(fixture)
    tiled = TiledMatrix(matrix, piuma_arch.tile_height, piuma_arch.tile_width)

    plain = simulate_homogeneous(piuma_arch, tiled, WorkerKind.COLD)
    with use_tracer(Tracer(enabled=True)):
        traced = simulate_homogeneous(piuma_arch, tiled, WorkerKind.COLD)
    _assert_bit_identical(traced, plain)


def test_traced_run_narrates_chunks_and_bandwidth(small_rmat, spade_sextans_arch):
    """The sim tracks carry the expected record kinds and totals."""
    arch = spade_sextans_arch
    tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)
    with use_tracer(Tracer(enabled=True)) as tracer:
        result = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)

    sim_spans = [s for s in tracer.spans() if s.process == "sim"]
    assert sim_spans, "no virtual-time spans recorded"
    # Chunk spans land inside the makespan and cover each group's work.
    for span in sim_spans:
        assert span.ts >= 0.0
        assert span.end <= result.time_s + 1e-12
    chunk_bytes = sum(
        s.args["bytes"] for s in sim_spans if s.name.startswith("chunk")
    )
    assert chunk_bytes == pytest.approx(result.bytes_total)
    # Bandwidth counter samples exist and end at zero.
    counters = [c for c in tracer.counters() if c.name == "bandwidth"]
    assert counters and counters[-1].value == 0.0
    # One rebalance event per fluid-engine interval (plus none spurious).
    rebalances = [e for e in tracer.events() if e.name == "rebalance"]
    assert len(rebalances) == len(result.bandwidth_profile) - (
        1 if result.merge_time_s > 0 else 0
    )


# ----------------------------------------------------------------------
# Faulted runs
# ----------------------------------------------------------------------
def _schedule(clean, victim=1, fail_at=0.25):
    """All three event kinds, aimed at the cold group while it runs in
    the fault-free execution ``clean``."""
    start = clean.hot.busy_s if clean.mode is ExecutionMode.SERIAL else 0.0
    span = clean.cold.busy_s
    return FaultSchedule(
        [
            WorkerSlowdown(t_s=start, kind="cold", index=0, factor=2.0),
            WorkerFailure(t_s=start + fail_at * span, kind="cold", index=victim),
            BandwidthWindow(t_start_s=start, t_end_s=start + 0.5 * span, factor=0.5),
        ]
    )


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
def test_tracing_does_not_perturb_faulted_simulate(
    fixture, mode, request, spade_sextans_arch
):
    matrix = request.getfixturevalue(fixture)
    arch = spade_sextans_arch
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)
    schedule = _schedule(simulate(arch, tiled, assignment, mode))

    plain = simulate(arch, tiled, assignment, mode, faults=schedule)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(arch, tiled, assignment, mode, faults=schedule)

    assert len(tracer) > 0
    assert plain.faults is not None
    _assert_bit_identical(traced, plain)
    assert traced == plain  # the FaultSummary included


def _faulted_traced_run(small_rmat, arch, mode, victim=1, fail_at=0.25):
    tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)
    clean = simulate(arch, tiled, assignment, mode)
    schedule = _schedule(clean, victim, fail_at)
    with use_tracer(Tracer(enabled=True)) as tracer:
        result = simulate(arch, tiled, assignment, mode, faults=schedule)
    return tiled, assignment, clean, result, tracer


def test_faults_track_pins_event_names_and_args(small_rmat, spade_sextans_arch):
    _, _, clean, result, tracer = _faulted_traced_run(
        small_rmat, spade_sextans_arch, ExecutionMode.PARALLEL
    )
    span = clean.cold.busy_s
    faults = [e for e in tracer.events() if e.track == "faults"]
    assert all(e.process == "sim" and e.cat == "fault" for e in faults)
    assert [e.name for e in faults] == [
        "fault.slowdown",
        "fault.bandwidth",
        "fault.failure",
        "fault.recovery",
        "fault.bandwidth",
    ]
    slowdown, squeeze, failure, recovery, restore = faults
    assert slowdown.args == {"instance": "cold-0", "factor": 2.0}
    assert squeeze.args == {"factor": 0.5}
    assert failure.args == {"instance": "cold-1"}
    heir = recovery.args["heir"]
    assert recovery.args == {
        "dead": "cold-1", "heir": heir, "phases": result.faults.reassigned_phases
    }
    assert heir.startswith("cold-") and heir != "cold-1"
    assert restore.args == {"factor": 1.0}
    # Each event lands where the schedule put it (the next event edge
    # caps the fluid interval, so the clock stops there).
    assert slowdown.ts == squeeze.ts == 0.0
    assert failure.ts == recovery.ts == pytest.approx(0.25 * span, rel=1e-9)
    assert restore.ts == pytest.approx(0.5 * span, rel=1e-9)
    assert result.faults.failed_instances == ("cold-1",)


# Late, the slowed straggler's death finds heirs that have finished.
@pytest.mark.parametrize("victim, fail_at", [(1, 0.25), (0, 0.9)])
@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
def test_faulted_trace_narrates_chunks_and_inheritance(
    small_rmat, spade_sextans_arch, mode, victim, fail_at
):
    arch = spade_sextans_arch
    dead = f"cold-{victim}"
    tiled, assignment, _, result, tracer = _faulted_traced_run(
        small_rmat, arch, mode, victim, fail_at
    )
    hot_plans, cold_plans = build_plans(arch, tiled, assignment)
    plans = dict(zip(_instance_labels(hot_plans, cold_plans), hot_plans + cold_plans))

    sim_spans = [s for s in tracer.spans() if s.process == "sim"]
    for span in sim_spans:
        assert span.ts >= 0.0
        assert span.end <= result.time_s + 1e-12
    chunks = [s for s in sim_spans if s.name.startswith("chunk")]
    (failure,) = [e for e in tracer.events() if e.name == "fault.failure"]
    (recovery,) = [e for e in tracer.events() if e.name == "fault.recovery"]
    # The dead instance stops at the failure ...
    assert all(s.end <= failure.ts for s in chunks if s.track == dead)
    # ... and its unfinished chunks finish on the heir's track, named and
    # described by the dead instance's own plan.
    inherited = [s for s in chunks if s.name.endswith(f" ({dead})")]
    assert inherited
    for span in inherited:
        assert span.track == recovery.args["heir"]
        assert span.ts >= failure.ts
        ci = int(span.name[len("chunk"):].split()[0])
        plan = plans[dead]
        assert span.args["panel"] == plan.chunk_panel[ci]
        assert span.args["nnz"] == plan.chunk_nnz[ci]
        assert span.args["bytes"] == plan.chunk_bytes[ci]
    # Every chunk is narrated exactly once.
    assert sum(s.args["bytes"] for s in chunks) == pytest.approx(result.bytes_total)
    # The clean run's narration is all there too.
    counters = [c for c in tracer.counters() if c.name == "bandwidth"]
    assert counters and counters[-1].value == 0.0
    rebalances = [e for e in tracer.events() if e.name == "rebalance"]
    assert len(rebalances) == len(result.bandwidth_profile) - (
        1 if result.merge_time_s > 0 else 0
    )
    merges = [s for s in sim_spans if s.name == "merge"]
    assert len(merges) == (1 if result.merge_time_s > 0 else 0)
