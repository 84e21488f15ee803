"""Tracing-enabled vs tracing-disabled simulation must be bit-identical.

The acceptance criterion of the observability layer: instrumentation
observes the fluid engine, it never feeds back into the arithmetic.
Every matrix in ``tests/conftest.py`` is simulated both ways and every
``SimResult`` field is compared with exact equality -- no tolerances.
"""

import numpy as np
import pytest

from repro.core.partition import ExecutionMode
from repro.obs import Tracer, use_tracer
from repro.sim.engine import simulate, simulate_homogeneous
from repro.sim.worker_sim import build_plans
from repro.core.traits import WorkerKind
from repro.sparse.tiling import TiledMatrix

MATRIX_FIXTURES = ["tiny_matrix", "small_rmat", "small_uniform", "small_banded"]
ARCH_FIXTURES = ["spade_sextans_arch", "piuma_arch", "pcie_arch"]


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
    # One rebalance event and one bandwidth sample per change of the
    # granted rate along the fluid intervals (the merge entry excluded),
    # at the start of the interval that changes it, then a closing zero.
    fluid = result.bandwidth_profile[
        : len(result.bandwidth_profile) - (1 if result.merge_time_s > 0 else 0)
    ]
    starts = [0.0] + [end for end, _ in fluid[:-1]]
    changes = [
        (start, rate)
        for i, (start, (_, rate)) in enumerate(zip(starts, fluid))
        if i == 0 or rate != fluid[i - 1][1]
    ]
    assert 1 < len(changes) < len(fluid)
    rebalances = [e for e in tracer.events() if e.name == "rebalance"]
    assert [(e.ts, e.args["granted_bytes_per_s"]) for e in rebalances] == changes
    counters = [c for c in tracer.counters() if c.name == "bandwidth"]
    assert [(c.ts, c.value) for c in counters] == changes + [(fluid[-1][0], 0.0)]


def _chunks_with_work(plan):
    """The chunks with a phase above the engine's epsilon; a chunk of
    empty phases is skipped without running, so it gets no span."""
    work = (plan.phase_c > 1e-18) | (plan.phase_b > 1e-18)
    off = plan.chunk_phase_off.tolist()
    return [k for k in range(len(off) - 1) if work[off[k] : off[k + 1]].any()]


@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
@pytest.mark.parametrize("arch_fixture", ARCH_FIXTURES)
@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_chunk_spans_narrate_each_plan_in_order(fixture, arch_fixture, mode, request):
    """Each instance's track carries one span per chunk it runs, in chunk
    order and back to back, from its group's start to the group's busy
    time, with the chunk's panel, nonzeros and bytes."""
    matrix = request.getfixturevalue(fixture)
    arch = request.getfixturevalue(arch_fixture)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)
    hot, cold = build_plans(arch, tiled, assignment)

    plain = simulate(arch, tiled, assignment, mode)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(arch, tiled, assignment, mode)
    _assert_bit_identical(traced, plain)

    by_track = {}
    for span in tracer.spans():
        if span.process == "sim" and span.name.startswith("chunk"):
            by_track.setdefault(span.track, []).append(span)
    # Serial mode starts the cold group when the hot group is done.
    cold_start = traced.hot.busy_s if mode is ExecutionMode.SERIAL else 0.0
    tracks = set()
    for kind, plans, start, stats in (
        ("hot", hot, 0.0, traced.hot),
        ("cold", cold, cold_start, traced.cold),
    ):
        ends = []
        for i, plan in enumerate(plans):
            track = f"{kind}-{i}"
            spans = by_track.get(track, [])
            ran = _chunks_with_work(plan)
            assert [s.name for s in spans] == [f"chunk{k}" for k in ran]
            assert [s.args for s in spans] == [
                {
                    "panel": int(plan.chunk_panel[k]),
                    "nnz": int(plan.chunk_nnz[k]),
                    "bytes": float(plan.chunk_bytes[k]),
                }
                for k in ran
            ]
            if not spans:
                continue
            tracks.add(track)
            assert spans[0].ts == start
            for prev, span in zip(spans, spans[1:]):
                assert span.ts == pytest.approx(prev.end, rel=1e-12)
            ends.append(spans[-1].end)
        if ends:
            assert max(ends) == pytest.approx(start + stats.busy_s, rel=1e-12)
    assert set(by_track) == tracks
