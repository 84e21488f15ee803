"""Partitioning heuristic tests: hand cases, invariants, oracle bounds."""

import numpy as np
import pytest

from repro.arch.heterogeneous import Architecture, WorkerGroup
from repro.core.partition import (
    ExecutionMode,
    Heuristic,
    HotTilesPartitioner,
    exhaustive_partition,
    first_of_type_masks,
    _cutoff_sweep,
    _prefix,
    _suffix,
)
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from tests.core.test_model import PROBLEM, cold_worker, hot_worker


def tiny_arch(n_hot=1, n_cold=2, atomic=False, bw_gbs=100.0, pcie_gbs=None):
    return Architecture(
        name="tiny",
        hot=WorkerGroup(hot_worker(), n_hot),
        cold=WorkerGroup(cold_worker(), n_cold),
        mem_bw_gbs=bw_gbs,
        problem=PROBLEM,
        tile_height=4,
        tile_width=4,
        atomic_updates=atomic,
        pcie_bw_gbs=pcie_gbs,
    )


def mixed_tiled(seed=0, n=64, nnz=600):
    rng = np.random.default_rng(seed)
    # A dense block plus scattered background: guarantees both tile kinds.
    r_dense = rng.integers(0, 8, nnz // 2)
    c_dense = rng.integers(0, 8, nnz // 2)
    r_bg = rng.integers(0, n, nnz // 2)
    c_bg = rng.integers(0, n, nnz // 2)
    m = SparseMatrix(n, n, np.concatenate([r_dense, r_bg]), np.concatenate([c_dense, c_bg]))
    return TiledMatrix(m, 4, 4)


class TestHelpers:
    def test_prefix_suffix(self):
        v = np.array([1.0, 2.0, 3.0])
        assert _prefix(v).tolist() == [0.0, 1.0, 3.0, 6.0]
        assert _suffix(v).tolist() == [6.0, 5.0, 3.0, 0.0]

    def test_cutoff_sweep_finds_minimum(self):
        assert _cutoff_sweep(np.array([5.0, 3.0, 2.0, 4.0, 1.0])) == 2

    def test_cutoff_sweep_all_increasing(self):
        assert _cutoff_sweep(np.array([1.0, 2.0, 3.0])) == 0

    def test_cutoff_sweep_all_decreasing(self):
        assert _cutoff_sweep(np.array([3.0, 2.0, 1.0])) == 2

    def test_cutoff_sweep_stops_at_plateau(self):
        assert _cutoff_sweep(np.array([2.0, 2.0, 0.0])) == 0

    def test_cutoff_sweep_is_a_hill_climb_not_a_global_search(self):
        # MinTime Serial with th = (100, 120), tc = (20, 40), N_hw = 4 and
        # N_cw = 1: the sort key th - tc ties, the objective rises before
        # it falls, and the sweep keeps its first local minimum.
        th, tc = np.array([100.0, 120.0]), np.array([20.0, 40.0])
        objective = _prefix(th / 4) + _suffix(tc / 1)
        assert objective.tolist() == [60.0, 65.0, 55.0]
        assert _cutoff_sweep(objective) == 0
        assert int(np.argmin(objective)) == 2


class TestFirstOfTypeMasks:
    def test_hand_case(self):
        # 2 panels; panel 0 holds tiles 0,1,2 and panel 1 holds tiles 3,4.
        m = SparseMatrix(
            8, 12, [0, 0, 0, 4, 4], [0, 4, 8, 0, 4]
        )
        tiled = TiledMatrix(m, 4, 4)
        assignment = np.array([False, True, True, True, False])
        hot_first, cold_first = first_of_type_masks(tiled, assignment)
        assert hot_first.tolist() == [False, True, False, True, False]
        assert cold_first.tolist() == [True, False, False, False, True]

    def test_all_one_type(self):
        tiled = mixed_tiled()
        hot_first, cold_first = first_of_type_masks(
            tiled, np.zeros(tiled.n_tiles, dtype=bool)
        )
        assert not hot_first.any()
        # One cold-first per non-empty panel.
        assert cold_first.sum() == len(list(tiled.iter_panels()))

    def test_shape_check(self):
        tiled = mixed_tiled()
        with pytest.raises(ValueError, match="assignment"):
            first_of_type_masks(tiled, np.array([True]))


class TestPartitioning:
    def test_dense_tiles_go_hot(self):
        tiled = mixed_tiled()
        result = HotTilesPartitioner(tiny_arch()).partition(tiled)
        nnz = tiled.stats.nnz
        assignment = result.chosen.assignment
        if assignment.any() and (~assignment).any():
            assert nnz[assignment].mean() > nnz[~assignment].mean()

    def test_four_candidates_by_default(self):
        result = HotTilesPartitioner(tiny_arch()).partition(mixed_tiled())
        assert set(result.candidates) == set(Heuristic)

    def test_atomic_arch_parallel_only(self):
        result = HotTilesPartitioner(tiny_arch(atomic=True)).partition(mixed_tiled())
        assert set(result.candidates) == {
            Heuristic.MIN_TIME_PARALLEL,
            Heuristic.MIN_BYTE_PARALLEL,
            Heuristic.BLOCK_SPLIT,
        }
        assert all(
            r.mode is ExecutionMode.PARALLEL for r in result.candidates.values()
        )

    def test_chosen_is_minimum_candidate(self):
        result = HotTilesPartitioner(tiny_arch()).partition(mixed_tiled())
        best = min(r.predicted_time_s for r in result.candidates.values())
        assert result.chosen.predicted_time_s == pytest.approx(best)

    def test_minbyte_variants_share_assignment(self):
        result = HotTilesPartitioner(tiny_arch()).partition(mixed_tiled())
        a = result.candidates[Heuristic.MIN_BYTE_PARALLEL].assignment
        b = result.candidates[Heuristic.MIN_BYTE_SERIAL].assignment
        assert np.array_equal(a, b)

    def test_no_hot_workers_all_cold(self):
        arch = tiny_arch(n_hot=0, n_cold=2)
        tiled = mixed_tiled()
        result = HotTilesPartitioner(arch).partition(tiled)
        assert not result.chosen.assignment.any()
        assert result.candidates == {}

    def test_no_cold_workers_all_hot(self):
        arch = tiny_arch(n_hot=1, n_cold=0)
        result = HotTilesPartitioner(arch).partition(mixed_tiled())
        assert result.chosen.assignment.all()

    def test_hot_nnz_fraction_bounds(self):
        tiled = mixed_tiled()
        result = HotTilesPartitioner(tiny_arch()).partition(tiled)
        frac = result.chosen.hot_nnz_fraction(tiled)
        assert 0.0 <= frac <= 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_heuristics_near_exhaustive_oracle(self, seed):
        """On tiny instances the chosen heuristic should be close to the
        model-optimal partitioning (and never better, by optimality)."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 12, 30)
        cols = rng.integers(0, 12, 30)
        tiled = TiledMatrix(SparseMatrix(12, 12, rows, cols), 4, 4)
        assert tiled.n_tiles <= 9
        partitioner = HotTilesPartitioner(tiny_arch())
        oracle = exhaustive_partition(partitioner, tiled)
        result = partitioner.partition(tiled)
        # The oracle enumerates whole-tile assignments only, so compare it
        # against the best whole-tile candidate; a block split may beat it.
        whole = min(
            r.predicted_time_s
            for h, r in result.candidates.items()
            if h is not Heuristic.BLOCK_SPLIT
        )
        assert whole >= oracle.predicted_time_s - 1e-15
        assert whole <= 1.6 * oracle.predicted_time_s
        assert result.chosen.predicted_time_s <= whole

    def test_exhaustive_rejects_large_instances(self):
        partitioner = HotTilesPartitioner(tiny_arch())
        tiled = mixed_tiled()
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_partition(partitioner, tiled, max_tiles=4)


class TestPredictedRuntime:
    def test_serial_formula_hand_case(self):
        """Single-tile matrix: serial runtime = hot side + cold side where
        the empty cold side contributes zero."""
        m = SparseMatrix(4, 4, [0, 1], [0, 1])
        tiled = TiledMatrix(m, 4, 4)
        arch = tiny_arch()
        partitioner = HotTilesPartitioner(arch)
        assignment = np.array([True])
        t_serial, totals = partitioner.predicted_runtime(
            tiled, assignment, ExecutionMode.SERIAL
        )
        assert totals.tc_total == 0.0
        bw = arch.mem_bw_bytes_per_sec
        assert t_serial == pytest.approx(max(totals.th_total, totals.bh_total / bw))

    def test_parallel_adds_merge_when_both_sides_active(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        partitioner = HotTilesPartitioner(arch)
        assignment = np.zeros(tiled.n_tiles, dtype=bool)
        assignment[0] = True
        _, totals = partitioner.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        assert totals.t_merge == pytest.approx(arch.merge_time_s(tiled.matrix.n_rows))

    def test_no_merge_for_homogeneous_assignment(self):
        tiled = mixed_tiled()
        partitioner = HotTilesPartitioner(tiny_arch())
        _, totals = partitioner.predicted_runtime(
            tiled, np.zeros(tiled.n_tiles, dtype=bool), ExecutionMode.PARALLEL
        )
        assert totals.t_merge == 0.0

    def test_no_merge_on_atomic_arch(self):
        tiled = mixed_tiled()
        partitioner = HotTilesPartitioner(tiny_arch(atomic=True))
        assignment = np.zeros(tiled.n_tiles, dtype=bool)
        assignment[0] = True
        _, totals = partitioner.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        assert totals.t_merge == 0.0

    def test_pcie_limits_hot_side(self):
        tiled = mixed_tiled()
        fast = HotTilesPartitioner(tiny_arch())
        slow = HotTilesPartitioner(tiny_arch(pcie_gbs=0.001))
        assignment = np.ones(tiled.n_tiles, dtype=bool)
        t_fast, _ = fast.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        t_slow, totals = slow.predicted_runtime(tiled, assignment, ExecutionMode.PARALLEL)
        assert t_slow > t_fast
        assert t_slow == pytest.approx(totals.bh_total / (0.001 * 1e9))

    def test_predict_homogeneous_matches_assignment_paths(self, tiled_rmat):
        from repro.core.traits import WorkerKind
        from repro.arch.configs import spade_sextans

        partitioner = HotTilesPartitioner(spade_sextans(4))
        t_hot = partitioner.predict_homogeneous(tiled_rmat, WorkerKind.HOT)
        t_direct, _ = partitioner.predicted_runtime(
            tiled_rmat, np.ones(tiled_rmat.n_tiles, dtype=bool), ExecutionMode.PARALLEL
        )
        assert t_hot == pytest.approx(t_direct)

    def test_more_cold_workers_reduce_cold_time(self):
        tiled = mixed_tiled()
        t2, _ = HotTilesPartitioner(tiny_arch(n_cold=2)).predicted_runtime(
            tiled, np.zeros(tiled.n_tiles, dtype=bool), ExecutionMode.PARALLEL
        )
        t4, _ = HotTilesPartitioner(tiny_arch(n_cold=4)).predicted_runtime(
            tiled, np.zeros(tiled.n_tiles, dtype=bool), ExecutionMode.PARALLEL
        )
        assert t4 <= t2
