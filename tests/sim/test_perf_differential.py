"""Optimized plan builder / engine vs the frozen pre-optimization copy.

The vectorized ``build_plans`` and the incremental fluid engine must be
*bit-identical* to the per-tile-Python-loop / full-recompute originals
frozen in :mod:`repro.sim._reference` -- every plan field, every phase
tuple, every ``SimResult`` field, with tracing enabled and disabled.
Exact ``==`` throughout, no tolerances: the optimizations were chosen so
that every floating-point reduction associates identically.
"""

import numpy as np
import pytest

from repro.arch.configs import spade_sextans_pcie
from repro.core.contention import UNTILED_BLOCK_DIVISOR
from repro.core.partition import ExecutionMode
from repro.obs import Tracer, use_tracer
from repro.sim._reference import Chunk, build_plans_reference, simulate_reference
from repro.sim.engine import simulate
from repro.sim.worker_sim import build_plans
from repro.sparse.tiling import TiledMatrix

MATRIX_FIXTURES = ["tiny_matrix", "small_rmat", "small_uniform", "small_banded"]
ASSIGNMENT_FRACS = [0.0, 0.3, 1.0]


@pytest.fixture(scope="session")
def pcie_arch():
    return spade_sextans_pcie(4)


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
