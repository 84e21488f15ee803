"""Worker-plan construction tests: scheduling and actual-byte accounting."""

import numpy as np
import pytest

from repro.arch.heterogeneous import Architecture, WorkerGroup
from repro.core.traits import ReuseType, WorkerKind
from repro.sim import worker_sim
from repro.sim.cache import windowed_lru_misses
from repro.sim.engine import simulate_homogeneous
from repro.sim.worker_sim import build_plans
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix, concat_ranges
from tests.core.test_model import PROBLEM, cold_worker, hot_worker
from tests.core.test_partition import tiny_arch


@pytest.fixture()
def panel_matrix():
    """Two panels; panel 0 has tiles at cols 0,1 and panel 1 one tile."""
    rows = np.array([0, 1, 0, 5])
    cols = np.array([0, 1, 4, 2])
    m = SparseMatrix(8, 8, rows, cols)
    return TiledMatrix(m, 4, 4)


class TestScheduling:
    def test_hot_panel_affinity(self, panel_matrix):
        """All hot tiles of one panel land on the same hot instance (the
        scratchpad's panel state cannot be split)."""
        arch = tiny_arch(n_hot=2)
        hot_plans, _ = build_plans(
            arch, panel_matrix, np.ones(panel_matrix.n_tiles, dtype=bool)
        )
        seen_panels = {}
        for i, plan in enumerate(hot_plans):
            for panel in plan.chunk_panel.tolist():
                assert seen_panels.setdefault(panel, i) == i

    def test_cold_instances_never_share_output_rows(self):
        """Untiled workers are scheduled in row blocks: no two cold
        instances may touch the same Dout row (race freedom)."""
        rng = np.random.default_rng(8)
        m = SparseMatrix(64, 64, rng.integers(0, 64, 1500), rng.integers(0, 64, 1500))
        tiled = TiledMatrix(m, 16, 8)  # 2-row blocks
        arch = tiny_arch(n_cold=4)
        _, cold_plans = build_plans(arch, tiled, np.zeros(tiled.n_tiles, dtype=bool))
        # Recover each instance's row set through the block scheduler.
        from repro.sim.worker_sim import _balance, _work_units

        units = _work_units(tiled, np.ones(tiled.n_tiles, dtype=bool), arch.cold.traits)
        owner = _balance(units.sizes, 4)
        row_owner = {}
        for i, lo, hi in zip(owner.tolist(), units.start.tolist(), units.end.tolist()):
            for row in np.unique(units.rows[units.nnz_idx[lo:hi]]).tolist():
                assert row_owner.setdefault(row, i) == i

    def test_row_blocks_improve_balance_over_panels(self):
        """A single heavy panel no longer serializes on one instance."""
        # All nonzeros in rows 0-7 of one panel.
        rng = np.random.default_rng(9)
        m = SparseMatrix(64, 64, rng.integers(0, 8, 800), rng.integers(0, 64, 800))
        tiled = TiledMatrix(m, 16, 8)  # 2-row blocks
        arch = tiny_arch(n_cold=4)
        _, cold_plans = build_plans(arch, tiled, np.zeros(tiled.n_tiles, dtype=bool))
        assert len(cold_plans) >= 2  # the panel's rows spread across instances

    def test_load_balancing_by_nnz(self):
        """Panels spread across instances roughly evenly by nonzeros."""
        rng = np.random.default_rng(3)
        m = SparseMatrix(64, 64, rng.integers(0, 64, 2000), rng.integers(0, 64, 2000))
        tiled = TiledMatrix(m, 4, 4)
        arch = tiny_arch(n_cold=4)
        _, cold_plans = build_plans(arch, tiled, np.zeros(tiled.n_tiles, dtype=bool))
        loads = sorted(p.nnz_total for p in cold_plans)
        assert loads[-1] < 2.5 * max(loads[0], 1)

    def test_nnz_conserved_across_groups(self, panel_matrix):
        arch = tiny_arch(n_cold=2)
        assignment = np.zeros(panel_matrix.n_tiles, dtype=bool)
        assignment[0] = True
        hot_plans, cold_plans = build_plans(arch, panel_matrix, assignment)
        total = sum(p.nnz_total for p in hot_plans) + sum(p.nnz_total for p in cold_plans)
        assert total == panel_matrix.matrix.nnz

    def test_assignment_shape_check(self, panel_matrix):
        with pytest.raises(ValueError, match="assignment"):
            build_plans(tiny_arch(), panel_matrix, np.array([True]))

    def test_hot_tiles_without_hot_workers_rejected(self, panel_matrix):
        arch = tiny_arch(n_hot=0)
        with pytest.raises(ValueError, match="hot"):
            build_plans(arch, panel_matrix, np.ones(panel_matrix.n_tiles, dtype=bool))


class TestActualBytes:
    def test_cold_din_without_cache_charges_per_nnz(self, panel_matrix):
        arch = tiny_arch()
        arch = Architecture(
            name="nc",
            hot=arch.hot,
            cold=WorkerGroup(cold_worker(cache_bytes=0), 1),
            mem_bw_gbs=arch.mem_bw_gbs,
            problem=PROBLEM,
            tile_height=4,
            tile_width=4,
        )
        _, cold_plans = build_plans(
            arch, panel_matrix, np.zeros(panel_matrix.n_tiles, dtype=bool)
        )
        # Din traffic = nnz * 16 B; plus sparse 12 B/nnz; plus Dout demand
        # (unique rids per panel-chunk) * 2 * 16 B.
        plan = cold_plans[0]
        total_nnz = plan.nnz_total
        din = total_nnz * 16
        sparse = total_nnz * 12
        # Panel 0: rows {0, 1} across both tiles -> 2 unique; panel 1: 1.
        dout = (2 + 1) * 2 * 16
        assert plan.bytes_total == pytest.approx(din + sparse + dout)

    def test_cold_din_with_cache_reduces_traffic(self):
        """A repeated column pattern is cached; model-level NONE reuse
        would charge every nonzero."""
        rows = np.arange(16) % 4
        cols = np.zeros(16, dtype=np.int64)  # always column 0
        m = SparseMatrix(4, 4, np.repeat(np.arange(4), 1), cols[:4])
        m = SparseMatrix(4, 4, np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0]))
        tiled = TiledMatrix(m, 4, 4)
        cached = tiny_arch()
        cached = Architecture(
            name="c",
            hot=cached.hot,
            cold=WorkerGroup(cold_worker(cache_bytes=64), 1),  # 4 rows of 16 B
            mem_bw_gbs=100.0,
            problem=PROBLEM,
            tile_height=4,
            tile_width=4,
        )
        _, plans = build_plans(cached, tiled, np.zeros(1, dtype=bool))
        # One miss + three hits -> 16 B of Din instead of 64 B.
        din_bytes = plans[0].bytes_total - 4 * 12 - 2 * 4 * 16
        assert din_bytes == pytest.approx(16.0)

    def test_hot_streams_tile_widths(self, panel_matrix):
        arch = tiny_arch()
        hot_plans, _ = build_plans(
            arch, panel_matrix, np.ones(panel_matrix.n_tiles, dtype=bool)
        )
        plan = hot_plans[0]
        # Din: 3 tiles * 4 rows * 16 B = 192.  Dout: stream-per-panel
        # (height 4 rows * 16 B read+write) per panel chunk = 2 * 128.
        # Sparse: 4 nnz * 12 B = 48.
        assert plan.bytes_total == pytest.approx(192 + 256 + 48)

    def test_phase_structure_follows_overlap_groups(self, panel_matrix):
        from repro.core.traits import OVERLAP_NONE

        arch = Architecture(
            name="p",
            hot=WorkerGroup(hot_worker(), 1),
            cold=WorkerGroup(cold_worker(overlap_groups=OVERLAP_NONE), 1),
            mem_bw_gbs=100.0,
            problem=PROBLEM,
            tile_height=4,
            tile_width=4,
        )
        _, cold_plans = build_plans(
            arch, panel_matrix, np.zeros(panel_matrix.n_tiles, dtype=bool)
        )
        # No overlap: each chunk splits into up to 5 single-task phases
        # (empty ones dropped).
        plan = cold_plans[0]
        off = plan.chunk_phase_off.tolist()
        for lo, hi in zip(off[:-1], off[1:]):
            assert 1 <= hi - lo <= 5
            compute_phases = [c for c in plan.phase_c[lo:hi].tolist() if c > 0]
            assert len(compute_phases) == 1

    def test_flops_accounting(self, panel_matrix):
        arch = tiny_arch()
        _, cold_plans = build_plans(
            arch, panel_matrix, np.zeros(panel_matrix.n_tiles, dtype=bool)
        )
        plan = cold_plans[0]
        assert plan.flops_total == pytest.approx(plan.nnz_total * PROBLEM.flops_per_nnz)


def _one_pass_din_bytes(tiled, traits, units, owner, order, row_bytes):
    """Earlier versions' demand-cache *Din* bytes: one windowed-LRU pass
    over every instance's accesses, instance-major."""
    sizes = units.sizes
    run_sizes = sizes[order]
    seq = units.nnz_idx[concat_ranges(units.start[order], run_sizes)]
    span = np.int64(max(tiled.matrix.n_cols, 1))
    keys = np.repeat(owner[order], run_sizes) * span + units.cols[seq]
    misses = windowed_lru_misses(keys, int(traits.cache_bytes // row_bytes))
    run_starts = np.concatenate(([0], np.cumsum(run_sizes)[:-1]))
    per_unit = np.empty(sizes.shape[0], dtype=np.int64)
    per_unit[order] = np.add.reduceat(misses, run_starts, dtype=np.int64)
    return per_unit.astype(np.float64) * row_bytes


class TestDemandCacheRuns:
    """The demand cache's windowed-LRU pass runs once per run of whole
    instances; keys of different instances never match, so the bytes are
    those of one pass over the whole instance-major sequence."""

    @pytest.mark.parametrize("arch_name", ["spade_sextans_arch", "piuma_arch"])
    @pytest.mark.parametrize("budget", ["one-run", "several-runs", "instance-above"])
    def test_runs_equal_one_pass(self, request, monkeypatch, small_rmat, arch_name, budget):
        arch = request.getfixturevalue(arch_name)
        traits, count = arch.cold.traits, arch.cold.count
        assert traits.din_reuse is ReuseType.NONE and traits.cache_bytes > 0
        tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
        units = worker_sim._work_units(tiled, np.ones(tiled.n_tiles, dtype=bool), traits)
        owner = worker_sim._balance(units.sizes, count)
        order = np.argsort(owner, kind="stable")
        row_bytes = float(arch.problem.dense_row_bytes)
        load = np.bincount(owner, weights=units.sizes, minlength=count).astype(np.int64)
        assert load.min() > 0 and load.max() > load.min()
        limit = {
            "one-run": worker_sim.DEMAND_RUN_ACCESSES,
            "several-runs": int(load.max()),
            "instance-above": int(load.max()) - 1,
        }[budget]
        monkeypatch.setattr(worker_sim, "DEMAND_RUN_ACCESSES", limit)
        passes = []

        def recording(keys, capacity_rows):
            passes.append(keys // max(tiled.matrix.n_cols, 1))
            return windowed_lru_misses(keys, capacity_rows)

        monkeypatch.setattr(worker_sim, "windowed_lru_misses", recording)
        got = worker_sim._din_bytes(tiled, traits, units, owner, order, row_bytes)
        want = _one_pass_din_bytes(tiled, traits, units, owner, order, row_bytes)
        assert np.array_equal(got, want)

        # Every pass takes whole instances, in instance order, and stays
        # within the budget unless it holds a single instance.
        owners = [np.unique(p) for p in passes]
        assert np.array_equal(np.concatenate(owners), np.arange(count))
        for p, held in zip(passes, owners):
            assert p.shape[0] == load[held].sum()
            assert p.shape[0] <= limit or held.size == 1
        if budget == "one-run":
            assert load.sum() <= limit and len(passes) == 1
        else:
            assert len(passes) > 1
        if budget == "instance-above":
            assert any(p.shape[0] > limit for p in passes)

    def test_cold_only_simulation_peak(self, spade_sextans_arch, traced_peak):
        """ColdOnly on mycielskian(12) (407,200 nonzeros): one pass over
        every access peaked at 20.8 MB traced, about 51 B per nonzero;
        runs of at most 2**18 accesses keep it near 32 B."""
        m = generators.mycielskian(12)
        arch = spade_sextans_arch
        tiled = TiledMatrix(m, arch.tile_height, arch.tile_width)
        want = simulate_homogeneous(arch, tiled, WorkerKind.COLD)  # warms tiling caches
        got, peak = traced_peak(lambda: simulate_homogeneous(arch, tiled, WorkerKind.COLD))
        assert got.time_s == want.time_s
        assert peak < 40 * m.nnz
