"""Fluid engine tests: analytically solvable scenarios."""

import numpy as np
import pytest

from repro.arch.heterogeneous import Architecture, WorkerGroup
from repro.core.contention import UNTILED_BLOCK_DIVISOR
from repro.core.partition import ExecutionMode
from repro.core.traits import WorkerKind
from repro.sim.engine import simulate, simulate_homogeneous
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from tests.core.test_model import PROBLEM, cold_worker, hot_worker
from tests.core.test_partition import mixed_tiled, tiny_arch


def single_tile():
    """One 4x4 tile with 4 nonzeros in distinct rows/cols."""
    m = SparseMatrix(4, 4, [0, 1, 2, 3], [0, 1, 2, 3])
    return TiledMatrix(m, 4, 4)


def arch_with(cold=None, hot=None, n_cold=1, n_hot=1, bw_gbs=100.0, atomic=False, pcie=None):
    return Architecture(
        name="e",
        hot=WorkerGroup(hot or hot_worker(), n_hot),
        cold=WorkerGroup(cold or cold_worker(), n_cold),
        mem_bw_gbs=bw_gbs,
        problem=PROBLEM,
        tile_height=4,
        tile_width=4,
        atomic_updates=atomic,
        pcie_bw_gbs=pcie,
    )


class TestSingleWorker:
    def test_memory_bound_time(self):
        """One cold worker, no contention: time = bytes / worker rate."""
        tiled = single_tile()
        # Worker rate: 10 B/cycle at 1 GHz = 10 GB/s, below the 100 GB/s BW.
        cold = cold_worker(mem_bytes_per_cycle=10.0, cache_bytes=0)
        arch = arch_with(cold=cold)
        result = simulate_homogeneous(arch, tiled, WorkerKind.COLD)
        # Bytes: sparse 4*12 + din 4*16 + dout 2*uniq_rids(4)*16 = 240.
        assert result.bytes_total == pytest.approx(240.0)
        expected = 240.0 / 10e9
        assert result.time_s == pytest.approx(expected, rel=1e-9)

    def test_compute_bound_time(self):
        """Slow compute dominates when memory is fast."""
        tiled = single_tile()
        cold = cold_worker(
            macs_per_cycle=0.001, mem_bytes_per_cycle=1000.0, cache_bytes=0
        )
        arch = arch_with(cold=cold)
        result = simulate_homogeneous(arch, tiled, WorkerKind.COLD)
        cycles = cold.cycles_per_nonzero(PROBLEM.k) * 4
        assert result.time_s == pytest.approx(cycles / 1e9, rel=1e-9)

    def test_bandwidth_cap_binds(self):
        """Worker rate above system BW: system BW is the limit."""
        tiled = single_tile()
        cold = cold_worker(mem_bytes_per_cycle=1e6, cache_bytes=0)
        arch = arch_with(cold=cold, bw_gbs=1.0)
        result = simulate_homogeneous(arch, tiled, WorkerKind.COLD)
        assert result.time_s == pytest.approx(240.0 / 1e9, rel=1e-9)

    def test_empty_matrix(self):
        tiled = TiledMatrix(SparseMatrix.empty(8, 8), 4, 4)
        result = simulate(arch_with(), tiled, np.zeros(0, dtype=bool))
        assert result.time_s == 0.0
        assert result.bytes_total == 0.0


class TestContention:
    def test_two_workers_share_bandwidth(self):
        """Two identical cold workers on disjoint panels, BW half their
        combined demand: runtime doubles vs unconstrained."""
        rows = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        cols = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        tiled = TiledMatrix(SparseMatrix(8, 4, rows, cols), 4, 4)
        cold = cold_worker(mem_bytes_per_cycle=10.0, cache_bytes=0)
        free = simulate_homogeneous(
            arch_with(cold=cold, n_cold=2, bw_gbs=1000.0), tiled, WorkerKind.COLD
        )
        squeezed = simulate_homogeneous(
            arch_with(cold=cold, n_cold=2, bw_gbs=10.0), tiled, WorkerKind.COLD
        )
        assert squeezed.time_s == pytest.approx(2 * free.time_s, rel=1e-6)

    def test_pcie_throttles_hot_worker(self):
        tiled = single_tile()
        fast = simulate_homogeneous(arch_with(), tiled, WorkerKind.HOT)
        slow = simulate_homogeneous(
            arch_with(pcie=0.5), tiled, WorkerKind.HOT
        )
        assert slow.time_s > fast.time_s


class TestModes:
    def test_parallel_adds_merge(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        assignment = np.zeros(tiled.n_tiles, dtype=bool)
        assignment[np.argmax(tiled.stats.nnz)] = True
        result = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
        assert result.merge_time_s == pytest.approx(
            arch.merge_time_s(tiled.matrix.n_rows)
        )

    def test_atomic_arch_skips_merge(self):
        tiled = mixed_tiled()
        arch = tiny_arch(atomic=True)
        assignment = np.zeros(tiled.n_tiles, dtype=bool)
        assignment[0] = True
        result = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
        assert result.merge_time_s == 0.0

    def test_homogeneous_skips_merge(self):
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        assert result.merge_time_s == 0.0

    def test_serial_has_no_merge_and_consistent_bytes(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        assignment = tiled.stats.nnz > np.median(tiled.stats.nnz)
        serial = simulate(arch, tiled, assignment, ExecutionMode.SERIAL)
        assert serial.merge_time_s == 0.0
        assert serial.time_s > 0
        assert serial.hot.bytes + serial.cold.bytes == pytest.approx(
            serial.bytes_total
        )

    def test_serial_matches_manual_two_phase(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        assignment = tiled.stats.nnz > np.median(tiled.stats.nnz)
        if not assignment.any() or assignment.all():
            pytest.skip("degenerate split")
        serial = simulate(arch, tiled, assignment, ExecutionMode.SERIAL)
        # The hot phase alone: give the cold side nothing.
        from repro.sim.worker_sim import build_plans
        from repro.sim.engine import _run_fluid

        hot_plans, cold_plans = build_plans(arch, tiled, assignment)
        t_hot, _, _ = _run_fluid(arch, hot_plans)
        t_cold, _, _ = _run_fluid(arch, cold_plans)
        assert serial.time_s == pytest.approx(t_hot + t_cold, rel=1e-9)


def _all_cold_with_block_rows(arch, matrix, block_rows):
    """Simulate ``matrix`` all-cold, tiled so cold row blocks hold
    ``block_rows`` rows (the block size follows the tile height)."""
    tiled = TiledMatrix(matrix, block_rows * UNTILED_BLOCK_DIVISOR, 4)
    assignment = np.zeros(tiled.n_tiles, dtype=bool)
    return simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)


class TestRowBlockGranularity:
    def test_finer_blocks_never_slow_cold_execution(self):
        """Row-block scheduling exists to spread heavy panels; finer
        blocks can only improve (or match) the cold makespan."""
        rng = np.random.default_rng(11)
        # One hub panel holding most nonzeros.
        rows = np.concatenate([rng.integers(0, 4, 600), rng.integers(0, 64, 200)])
        cols = rng.integers(0, 64, 800)
        matrix = SparseMatrix(64, 64, rows, cols)
        arch = tiny_arch(n_cold=4)
        coarse = _all_cold_with_block_rows(arch, matrix, 4)
        fine = _all_cold_with_block_rows(arch, matrix, 1)
        assert fine.time_s <= coarse.time_s * 1.01
        # Traffic is invariant: row blocks partition the rows.
        assert fine.bytes_total == pytest.approx(coarse.bytes_total, rel=1e-9)

    def test_block_granularity_preserves_bytes(self):
        matrix = mixed_tiled().matrix
        arch = tiny_arch(n_cold=3)
        results = [_all_cold_with_block_rows(arch, matrix, b) for b in (1, 2, 4)]
        for r in results[1:]:
            assert r.bytes_total == pytest.approx(results[0].bytes_total, rel=1e-9)


class TestStats:
    def test_bandwidth_utilization(self):
        tiled = single_tile()
        cold = cold_worker(mem_bytes_per_cycle=10.0, cache_bytes=0)
        result = simulate_homogeneous(arch_with(cold=cold), tiled, WorkerKind.COLD)
        assert result.bandwidth_utilization_bytes_per_sec == pytest.approx(10e9, rel=1e-6)

    def test_cache_lines_per_nnz(self):
        tiled = single_tile()
        result = simulate_homogeneous(arch_with(), tiled, WorkerKind.COLD)
        assert result.cache_lines_per_nnz(4) == pytest.approx(result.bytes_total / 64 / 4)

    def test_busy_gflops(self):
        tiled = single_tile()
        result = simulate_homogeneous(arch_with(), tiled, WorkerKind.COLD)
        assert result.cold.busy_gflops > 0
        assert result.hot.busy_gflops == 0.0

    def test_group_bytes_split(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        assignment = np.zeros(tiled.n_tiles, dtype=bool)
        assignment[0] = True
        result = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
        assert result.hot.bytes > 0
        assert result.cold.bytes > 0
