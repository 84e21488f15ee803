"""Optimized plan builder / engine vs the frozen pre-optimization copy.

The vectorized ``build_plans`` and the incremental fluid engine must be
*bit-identical* to the per-tile-Python-loop / full-recompute originals
frozen in ``reference_sim.py`` -- every plan field, every phase
tuple, every ``SimResult`` field, with tracing enabled and disabled.
Exact ``==`` throughout, no tolerances: the optimizations were chosen so
that every floating-point reduction associates identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core.contention import UNTILED_BLOCK_DIVISOR
from repro.core.partition import ExecutionMode
from repro.obs import Tracer, use_tracer
from tests.sim import reference_sim as _reference
from tests.sim.reference_sim import (
    Chunk,
    build_plans_reference,
    run_fluid_reference,
    simulate_reference,
)
from repro.sim.engine import _run_fluid, simulate
from repro.sim.worker_sim import InstancePlan, build_plans
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix

#: The shared sparse fixtures, then the dense-tile families of the
#: benchmark's dense-few-tiles workload at test size.
MATRIX_FIXTURES = [
    "tiny_matrix",
    "small_rmat",
    "small_uniform",
    "small_banded",
    "small_mycielskian",
    "small_dense_blocks",
    "small_community",
]
ASSIGNMENT_FRACS = [0.0, 0.3, 1.0]

ARCH_FIXTURES = ["spade_sextans_arch", "piuma_arch", "pcie_arch"]


def _assignment(tiled, frac, seed=5):
    if frac == 0.0:
        return np.zeros(tiled.n_tiles, dtype=bool)
    if frac == 1.0:
        return np.ones(tiled.n_tiles, dtype=bool)
    rng = np.random.default_rng(seed)
    return rng.random(tiled.n_tiles) < frac


def _chunks(plan):
    """An array plan's chunks in the frozen reference's shape."""
    off = plan.chunk_phase_off.tolist()
    phase_c = plan.phase_c.tolist()
    phase_b = plan.phase_b.tolist()
    return [
        Chunk(
            panel=panel,
            phases=list(zip(phase_c[lo:hi], phase_b[lo:hi])),
            nnz=nnz,
            bytes_total=nbytes,
        )
        for panel, nnz, nbytes, lo, hi in zip(
            plan.chunk_panel.tolist(),
            plan.chunk_nnz.tolist(),
            plan.chunk_bytes.tolist(),
            off[:-1],
            off[1:],
        )
    ]


def _assert_plans_identical(new_plans, ref_plans):
    assert len(new_plans) == len(ref_plans)
    for new, ref in zip(new_plans, ref_plans):
        assert new.kind == ref.kind
        assert new.traits is ref.traits or new.traits == ref.traits
        assert new.nnz_total == ref.nnz_total
        assert new.flops_total == ref.flops_total
        assert new.bytes_total == ref.bytes_total
        assert len(new.chunk_nnz) == len(ref.chunks)
        for nc, rc in zip(_chunks(new), ref.chunks):
            assert nc.panel == rc.panel
            assert nc.nnz == rc.nnz
            assert nc.bytes_total == rc.bytes_total
            assert nc.phases == rc.phases  # exact tuple-by-tuple equality


def _assert_results_identical(new, ref):
    assert new.time_s == ref.time_s
    assert new.merge_time_s == ref.merge_time_s
    assert new.mode == ref.mode
    assert new.hot == ref.hot
    assert new.cold == ref.cold
    assert new.bandwidth_profile == ref.bandwidth_profile


@pytest.mark.parametrize("frac", ASSIGNMENT_FRACS)
@pytest.mark.parametrize("arch_fixture", ARCH_FIXTURES)
@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_build_plans_bit_identical(fixture, arch_fixture, frac, request):
    matrix = request.getfixturevalue(fixture)
    arch = request.getfixturevalue(arch_fixture)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled, frac)

    new_hot, new_cold = build_plans(arch, tiled, assignment)
    ref_hot, ref_cold = build_plans_reference(arch, tiled, assignment)
    _assert_plans_identical(new_hot, ref_hot)
    _assert_plans_identical(new_cold, ref_cold)


@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
@pytest.mark.parametrize("arch_fixture", ARCH_FIXTURES)
@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_simulate_bit_identical(fixture, arch_fixture, mode, request):
    matrix = request.getfixturevalue(fixture)
    arch = request.getfixturevalue(arch_fixture)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled, 0.3)

    new = simulate(arch, tiled, assignment, mode)
    ref = simulate_reference(arch, tiled, assignment, mode)
    _assert_results_identical(new, ref)


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_simulate_bit_identical_with_tracing(fixture, request, spade_sextans_arch):
    """The reference has no tracing hooks; the live engine with tracing
    enabled must still match it exactly."""
    matrix = request.getfixturevalue(fixture)
    arch = spade_sextans_arch
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled, 0.3)

    ref = simulate_reference(arch, tiled, assignment, ExecutionMode.PARALLEL)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
    assert len(tracer) > 0
    _assert_results_identical(traced, ref)


@pytest.mark.parametrize("block_rows", [16, 64])
def test_untiled_block_override_bit_identical(
    small_rmat, spade_sextans_arch, block_rows
):
    """Untiled workers' row blocks of other sizes go through the vectorized
    sort-free path; pin them against the reference too.  The block size
    follows the tile height."""
    arch = spade_sextans_arch
    tiled = TiledMatrix(small_rmat, block_rows * UNTILED_BLOCK_DIVISOR, arch.tile_width)
    assignment = _assignment(tiled, 0.3)

    new = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
    ref = simulate_reference(arch, tiled, assignment, ExecutionMode.PARALLEL)
    _assert_results_identical(new, ref)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------
def _matrix(n_rows, n_cols, rows, cols):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.ones(len(rows), dtype=np.float32)
    return SparseMatrix(n_rows, n_cols, rows, cols, vals)


def _dense_tile():
    r, c = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
    return _matrix(256, 256, r.ravel(), c.ravel())


DEGENERATE = {
    "0x0": lambda: _matrix(0, 0, [], []),
    "empty-64x64": lambda: _matrix(64, 64, [], []),
    "one-nonzero": lambda: _matrix(64, 64, [5], [7]),
    "one-dense-tile": _dense_tile,
    "one-row": lambda: _matrix(512, 512, [3] * 256, range(0, 512, 2)),
}


@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
@pytest.mark.parametrize("arch_fixture", ARCH_FIXTURES)
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0], ids=["all-cold", "half", "all-hot"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs_bit_identical(name, frac, arch_fixture, mode, request):
    """Empty matrices, a lone nonzero, one dense tile and one row, with
    every tile cold, half of them hot, or every tile hot."""
    arch = request.getfixturevalue(arch_fixture)
    tiled = TiledMatrix(DEGENERATE[name](), arch.tile_height, arch.tile_width)
    assignment = np.arange(tiled.n_tiles) < round(frac * tiled.n_tiles)

    new = simulate(arch, tiled, assignment, mode)
    assert new == simulate_reference(arch, tiled, assignment, mode)


# ----------------------------------------------------------------------
# Loop level: hand-made plans
# ----------------------------------------------------------------------
LOOP_ARCHS = {
    "spade": spade_sextans(4), "pcie": spade_sextans_pcie(4), "piuma": piuma()
}


def _plan_pair(traits, chunk_phases):
    """One instance plan in the live and the frozen shape, whose chunk
    ``k`` runs the phases ``chunk_phases[k]`` (1 nonzero, 1 byte, panel
    ``k``)."""
    phases = [p for chunk in chunk_phases for p in chunk]
    n = len(chunk_phases)
    plan = InstancePlan(
        kind=traits.kind,
        traits=traits,
        phase_c=np.array([c for c, _ in phases], dtype=np.float64),
        phase_b=np.array([b for _, b in phases], dtype=np.float64),
        chunk_phase_off=np.cumsum([0] + [len(c) for c in chunk_phases]),
        chunk_panel=np.arange(n),
        chunk_nnz=np.ones(n, dtype=np.int64),
        chunk_bytes=np.ones(n),
        nnz_total=n,
        flops_total=float(n),
        bytes_total=float(n),
    )
    ref = _reference.InstancePlan(
        kind=traits.kind,
        traits=traits,
        chunks=[
            Chunk(panel=k, phases=list(chunk), nnz=1, bytes_total=1.0)
            for k, chunk in enumerate(chunk_phases)
        ],
        nnz_total=n,
        flops_total=float(n),
        bytes_total=float(n),
    )
    return plan, ref


def _assert_loop_matches(arch, hot, cold, t_offset=0.0):
    """``_run_fluid`` vs the frozen loop on the same plans: makespan, every
    completion time and the profile, with ``==``, traced and untraced.
    ``hot``/``cold`` hold one list of chunks per instance, a chunk being
    a list of (compute s, bytes) phases."""
    pairs = [_plan_pair(arch.hot.traits, p) for p in hot]
    pairs += [_plan_pair(arch.cold.traits, p) for p in cold]
    plans = [plan for plan, _ in pairs]
    makespan, completions, profile = run_fluid_reference(arch, [r for _, r in pairs])
    for tracer in (None, Tracer(enabled=True)):
        got = _run_fluid(arch, plans, tracer, None, t_offset)
        assert got[0] == makespan
        assert got[1].tolist() == completions.tolist()
        assert got[2] == profile


#: name -> (hot instances, cold instances).
LOOP_CASES = {
    "all-idle": ([[[(0.0, 0.0)]]], [[]]),
    "compute-only": ([], [[[(1e-5, 0.0)]]]),
    "memory-only": ([], [[[(0.0, 1e5)]]]),
    # Work exactly at the engine's epsilon counts as none.
    "compute-at-epsilon": ([], [[[(1e-18, 1e4)]], [[(1e-18, 0.0), (1e-6, 0.0)]]]),
    "sub-epsilon-phases-skipped": ([], [[[(4e-19, 0.0), (0.0, 7e-19)], [(1e-5, 1e4)]]]),
    "sub-epsilon-compute-beside-bytes": ([], [[[(4e-19, 1e4), (1e-5, 0.0)]]]),
    "instance-without-work": ([[[(0.0, 0.0)], []]], [[[(1e-6, 5e4)]]]),
    "plan-without-chunks": ([[]], [[[(2e-6, 1e3)]]]),
    "hot-and-cold-share-bandwidth": (
        [[[(1e-6, 1e5), (2e-6, 3e4)]], [[(0.0, 8e4)]]],
        [[[(0.0, 2e5)]], [[(1e-5, 1e3)], [(0.0, 4e4)]]],
    ),
    "demand-set-changes": (
        [],
        [
            [[(0.0, 1e5), (3e-6, 0.0), (0.0, 1e5)]],
            [[(5e-6, 0.0), (0.0, 2e5)]],
            [[(0.0, 5e4)] * 3],
        ],
    ),
    "many-short-phases": (
        [[[(2e-7, 5e2)] * 25]],
        [[[(1e-7 * (k % 3), 1e3 * (k % 2)) for k in range(40)]]],
    ),
}


@pytest.mark.parametrize("arch_name", sorted(LOOP_ARCHS))
@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_fluid_loop_bit_identical_on_hand_made_plans(name, arch_name):
    """Idle instances, empty plans, phases at and below epsilon, and
    demand sets that change mid-run, on every architecture."""
    hot, cold = LOOP_CASES[name]
    _assert_loop_matches(LOOP_ARCHS[arch_name], hot, cold, t_offset=3e-5)


_PHASE_C = st.sampled_from([0.0, 4e-19, 1e-18]) | st.floats(1e-7, 1e-4)
_PHASE_B = st.sampled_from([0.0, 7e-19]) | st.floats(1e2, 1e5)


@st.composite
def plan_cases(draw):
    """Hand-made instance plans: phases at, below and above the engine's
    epsilon, and a trace offset as in serial mode's cold run."""
    arch = LOOP_ARCHS[draw(st.sampled_from(sorted(LOOP_ARCHS)))]
    groups = []
    for group in (arch.hot, arch.cold):
        groups.append([
            [
                draw(st.lists(st.tuples(_PHASE_C, _PHASE_B), max_size=4))
                for _ in range(draw(st.integers(0, 3)))
            ]
            for _ in range(draw(st.integers(0, group.count)))
        ])
    t_offset = draw(st.sampled_from([0.0, 3e-5]) | st.floats(1e-9, 1e-3))
    return arch, groups, t_offset


@settings(max_examples=150, deadline=None)
@given(case=plan_cases())
def test_fluid_loop_bit_identical_on_random_plans(case):
    arch, (hot, cold), t_offset = case
    _assert_loop_matches(arch, hot, cold, t_offset)
