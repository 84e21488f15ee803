"""Array plans vs the frozen object-per-chunk plan builder.

``repro.sim.worker_sim.build_plans`` returns each instance's work as flat
arrays; ``reference_worker_sim.py`` is the builder that made one ``Chunk``
object per unit.  Every array element must equal the oracle's matching
chunk field -- each phase's compute and bytes, each chunk's panel,
nonzeros and bytes, each instance's totals -- and simulating the array
plans must give the ``SimResult`` the frozen fluid loop gives on the
oracle's plans.  Exact ``==`` throughout, no tolerances.

The inputs are R-MAT, uniform and banded matrices on both SPADE-Sextans
systems, PIUMA and one-group tiny architectures, plus the features with
their own costing branches: SDDMM's per-nonzero output writes, the
no-overlap and PIUMA STP overlap groups, other row-block sizes, block
splits and the degenerate matrices.  Byte widths of 1.3 and 0.7 bytes
make every byte count fractional, so a byte sum taken in another order
shows up as a changed bit instead of hiding behind exact integer
arithmetic.
"""

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.arch.heterogeneous import Architecture, WorkerGroup
from repro.core.contention import UNTILED_BLOCK_DIVISOR
from repro.core.partition import ExecutionMode, TileSplit
from repro.core.problem import ProblemSpec
from repro.core.traits import OVERLAP_NONE
from repro.sim.engine import SimResult, _group_stats, simulate
from repro.sim.worker_sim import _balance, build_plans
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from tests.core.test_model import PROBLEM, cold_worker, hot_worker
from tests.core.test_partition import tiny_arch
from tests.sim import reference_worker_sim
from tests.sim.reference_sim import run_fluid_reference

MATRICES = {
    "rmat": lambda seed: generators.rmat(scale=9, nnz=3_000, seed=seed),
    "uniform": lambda seed: generators.uniform_random(512, 512, 2_500, seed=seed),
    "banded": lambda seed: generators.banded(512, 3_000, bandwidth=24, seed=seed),
}

#: name -> (architecture, hot fractions it accepts)
ARCHS = {
    "spade-sextans": (spade_sextans(4), (0.0, 0.4, 1.0)),
    "spade-sextans-pcie": (spade_sextans_pcie(4), (0.0, 0.4, 1.0)),
    "piuma": (piuma(), (0.0, 0.4, 1.0)),
    "tiny-no-hot": (tiny_arch(n_hot=0), (0.0,)),
    "tiny-no-cold": (tiny_arch(n_cold=0), (1.0,)),
}

#: Fractional byte widths: every byte count stops being an integer.
FRACTIONAL = ProblemSpec(k=32, value_bytes=1.3, index_bytes=0.7)

MODES = [ExecutionMode.PARALLEL, ExecutionMode.SERIAL]


def _assignment(n_tiles, frac, seed):
    if frac in (0.0, 1.0):
        return np.full(n_tiles, frac == 1.0, dtype=bool)
    return np.random.default_rng(seed).random(n_tiles) < frac


def _chunks(plan):
    """An array plan as (panel, nnz, bytes, phases) per chunk."""
    off = plan.chunk_phase_off.tolist()
    phases = list(zip(plan.phase_c.tolist(), plan.phase_b.tolist()))
    return [
        (panel, nnz, nbytes, phases[lo:hi])
        for panel, nnz, nbytes, lo, hi in zip(
            plan.chunk_panel.tolist(),
            plan.chunk_nnz.tolist(),
            plan.chunk_bytes.tolist(),
            off[:-1],
            off[1:],
        )
    ]


def assert_plans_equal(new_plans, ref_plans):
    assert len(new_plans) == len(ref_plans)
    for new, ref in zip(new_plans, ref_plans):
        assert new.kind is ref.kind
        assert new.traits is ref.traits
        assert new.phase_c.dtype == new.phase_b.dtype == np.float64
        assert new.chunk_phase_off[0] == 0
        assert new.chunk_phase_off[-1] == new.phase_c.shape[0] == new.phase_b.shape[0]
        assert _chunks(new) == [(c.panel, c.nnz, c.bytes_total, c.phases) for c in ref.chunks]
        assert (new.nnz_total, new.flops_total, new.bytes_total) == (
            ref.nnz_total, ref.flops_total, ref.bytes_total
        )
        assert type(new.nnz_total) is int
        assert type(new.bytes_total) is float


def oracle_simulate(arch, tiled, assignment, mode, split=None):
    """``simulate`` composed from the oracle's plans and the frozen loop."""
    hot, cold = reference_worker_sim.build_plans(arch, tiled, assignment, split=split)
    if mode is ExecutionMode.PARALLEL:
        makespan, completions, profile = run_fluid_reference(arch, hot + cold)
        merge = 0.0
        if hot and cold and not arch.atomic_updates:
            merge = arch.merge_time_s(tiled.matrix.n_rows)
            profile = profile + ((makespan + merge, arch.mem_bw_bytes_per_sec),)
        return SimResult(
            time_s=makespan + merge,
            merge_time_s=merge,
            mode=mode,
            hot=_group_stats(hot, completions[: len(hot)]),
            cold=_group_stats(cold, completions[len(hot) :]),
            bandwidth_profile=profile,
        )
    hot_span, hot_done, hot_profile = run_fluid_reference(arch, hot)
    cold_span, cold_done, cold_profile = run_fluid_reference(arch, cold)
    return SimResult(
        time_s=hot_span + cold_span,
        merge_time_s=0.0,
        mode=mode,
        hot=_group_stats(hot, hot_done),
        cold=_group_stats(cold, cold_done),
        bandwidth_profile=hot_profile + tuple((t + hot_span, bw) for t, bw in cold_profile),
    )


def assert_matches_oracle(arch, tiled, assignment, split=None):
    new_hot, new_cold = build_plans(arch, tiled, assignment, split=split)
    ref_hot, ref_cold = reference_worker_sim.build_plans(
        arch, tiled, assignment, split=split
    )
    assert_plans_equal(new_hot, ref_hot)
    assert_plans_equal(new_cold, ref_cold)
    for mode in MODES:
        got = simulate(arch, tiled, assignment, mode, split=split)
        assert got == oracle_simulate(arch, tiled, assignment, mode, split)


def _arch_cases():
    for name, (arch, fracs) in ARCHS.items():
        for frac in fracs:
            yield pytest.param(name, frac, id=f"{name}-{frac}")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("arch_name, frac", list(_arch_cases()))
def test_array_plans_match_frozen_builder(matrix, seed, arch_name, frac):
    arch = ARCHS[arch_name][0]
    tiled = TiledMatrix(MATRICES[matrix](seed), arch.tile_height, arch.tile_width)
    assert_matches_oracle(arch, tiled, _assignment(tiled.n_tiles, frac, seed))


@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("arch_name", ["spade-sextans", "piuma"])
def test_sddmm_output_writes(matrix, arch_name):
    """SDDMM writes one value per nonzero instead of the Dout rows it read."""
    arch = ARCHS[arch_name][0].with_problem(ProblemSpec.sddmm())
    tiled = TiledMatrix(MATRICES[matrix](3), arch.tile_height, arch.tile_width)
    assert_matches_oracle(arch, tiled, _assignment(tiled.n_tiles, 0.4, 3))


@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize(
    "arch_name", ["spade-sextans", "piuma", "tiny-no-hot", "tiny-no-cold"]
)
def test_fractional_byte_widths(matrix, arch_name):
    arch, fracs = ARCHS[arch_name]
    arch = arch.with_problem(FRACTIONAL)
    tiled = TiledMatrix(MATRICES[matrix](4), arch.tile_height, arch.tile_width)
    for frac in fracs:
        assert_matches_oracle(arch, tiled, _assignment(tiled.n_tiles, frac, 4))


def _no_overlap_arch(n_hot, n_cold, problem=PROBLEM):
    return Architecture(
        name="no-overlap",
        hot=WorkerGroup(hot_worker(overlap_groups=OVERLAP_NONE), n_hot),
        cold=WorkerGroup(cold_worker(overlap_groups=OVERLAP_NONE, cache_bytes=64), n_cold),
        mem_bw_gbs=100.0,
        problem=problem,
        tile_height=16,
        tile_width=16,
    )


@pytest.mark.parametrize("problem", [PROBLEM, FRACTIONAL, ProblemSpec.sddmm(k=4)])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_no_overlap_phases(matrix, problem):
    """One phase per task: up to five phases per chunk, empty ones dropped."""
    arch = _no_overlap_arch(2, 3, problem)
    tiled = TiledMatrix(MATRICES[matrix](5), arch.tile_height, arch.tile_width)
    assert_matches_oracle(arch, tiled, _assignment(tiled.n_tiles, 0.5, 5))


@pytest.mark.parametrize("block_rows", [1, 3, 64])
@pytest.mark.parametrize("arch_name", ["spade-sextans", "piuma", "tiny-no-hot"])
def test_untiled_block_rows_override(arch_name, block_rows):
    """Row blocks of ``block_rows`` rows, chosen through the tile height."""
    arch, fracs = ARCHS[arch_name]
    height = block_rows * UNTILED_BLOCK_DIVISOR
    tiled = TiledMatrix(MATRICES["rmat"](6), height, arch.tile_width)
    assignment = _assignment(tiled.n_tiles, 0.4 if len(fracs) > 1 else fracs[0], 6)
    assert_matches_oracle(arch, tiled, assignment)


def _split_of(tiled, tile):
    """A split of ``tile`` at its first row boundary."""
    lo, hi = int(tiled.tile_offsets[tile]), int(tiled.tile_offsets[tile + 1])
    rows = tiled.rows[lo:hi]
    cut = lo + int(np.flatnonzero(rows[1:] != rows[:-1])[0]) + 1
    return TileSplit(tile, cut - lo, hi - cut, int(tiled.rows[cut]))


@pytest.mark.parametrize("frac", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("arch_name", ["spade-sextans", "spade-sextans-pcie", "piuma"])
def test_block_split_tiles(arch_name, frac):
    """The split tile's prefix runs hot, its suffix cold, in both oracles."""
    arch = ARCHS[arch_name][0]
    tiled = TiledMatrix(MATRICES["rmat"](7), arch.tile_height, arch.tile_width)
    tile = int(np.argmax(tiled.stats.uniq_rids))
    assignment = _assignment(tiled.n_tiles, frac, 7)
    assignment[tile] = True
    assert_matches_oracle(arch, tiled, assignment, split=_split_of(tiled, tile))


DEGENERATE = {
    "no-nonzeros": SparseMatrix(64, 64, np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    "one-nonzero": SparseMatrix(64, 64, np.array([37]), np.array([5])),
    "one-tile": SparseMatrix(
        64, 64, np.array([0, 0, 1, 2, 2, 3]), np.array([0, 3, 1, 0, 2, 3])
    ),
}


@pytest.mark.parametrize("frac", [0.0, 1.0])
@pytest.mark.parametrize("arch_name", ["spade-sextans", "piuma", "tiny"])
@pytest.mark.parametrize("matrix", sorted(DEGENERATE))
def test_degenerate_inputs(matrix, arch_name, frac):
    arch = tiny_arch() if arch_name == "tiny" else ARCHS[arch_name][0]
    tiled = TiledMatrix(DEGENERATE[matrix], arch.tile_height, arch.tile_width)
    assert_matches_oracle(arch, tiled, _assignment(tiled.n_tiles, frac, 0))


def test_balance_breaks_ties_by_lowest_instance():
    """Equal-size units go to instances 0, 1, 2, ... in turn."""
    assert _balance(np.full(7, 5), 3).tolist() == [0, 1, 2, 0, 1, 2, 0]
    # A lighter instance wins; among equal loads, the lowest index.
    assert _balance(np.array([4, 1, 1, 2, 3]), 3).tolist() == [0, 1, 2, 1, 2]
