"""Analytical model tests with hand-computed per-tile costs."""

import numpy as np
import pytest

from repro.core.model import AnalyticalModel
from repro.core.problem import ProblemSpec
from repro.core.traits import (
    OVERLAP_FULL,
    OVERLAP_NONE,
    ReuseType,
    SparseFormat,
    Task,
    Traversal,
    WorkerKind,
    WorkerTraits,
)
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix

#: K=4, 4-byte values/indices -> dense rows are 16 bytes.
PROBLEM = ProblemSpec(k=4, value_bytes=4, index_bytes=4)
VIS_LAT = 1e-9  # exaggerated so memory dominates hand calculations


def cold_worker(**overrides):
    defaults = dict(
        name="cold",
        kind=WorkerKind.COLD,
        macs_per_cycle=1.0,
        simd_width=4,  # 1 cycle per nonzero at K=4
        frequency_ghz=1.0,
        din_reuse=ReuseType.NONE,
        dout_reuse=ReuseType.INTER_TILE,
        dout_first_tile_reuse=ReuseType.INTRA_TILE_DEMAND,
        sparse_format=SparseFormat.COO_LIKE,
        traversal=Traversal.UNTILED_ROW_ORDERED,
        overlap_groups=OVERLAP_FULL,
        vis_lat_s_per_byte=VIS_LAT,
    )
    defaults.update(overrides)
    return WorkerTraits(**defaults)


def hot_worker(**overrides):
    return cold_worker(
        name="hot",
        kind=WorkerKind.HOT,
        din_reuse=ReuseType.INTRA_TILE_STREAM,
        dout_first_tile_reuse=ReuseType.INTRA_TILE_STREAM,
        traversal=Traversal.TILED_ROW_ORDERED,
        **overrides,
    )


@pytest.fixture(scope="module")
def two_tile_matrix():
    """One 4x4 row panel, two tiles: T0 has 3 nnz (2 rows, 2 cols), T1 has
    1 nnz."""
    rows = np.array([0, 0, 1, 2])
    cols = np.array([0, 1, 0, 5])
    m = SparseMatrix(4, 8, rows, cols)
    return TiledMatrix(m, 4, 4)


class TestTileCosts:
    def test_cold_bytes_hand_computed(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        costs = model.tile_costs(two_tile_matrix, cold_worker())
        # T0: sparse 3 nnz * 12 B = 36; Din none-reuse 3 rows * 16 B = 48;
        # Dout inter-tile = 0 under max reuse.
        assert costs.bytes[0] == pytest.approx(36 + 48)
        # T1: sparse 12, Din 16.
        assert costs.bytes[1] == pytest.approx(12 + 16)

    def test_cold_time_is_max_of_tasks(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        costs = model.tile_costs(two_tile_matrix, cold_worker())
        # Full overlap: max(sparse 36ns, din 48ns, compute 3ns) = 48ns.
        assert costs.time_s[0] == pytest.approx(48e-9)
        assert costs.time_s[1] == pytest.approx(16e-9)

    def test_no_overlap_sums_tasks(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        costs = model.tile_costs(two_tile_matrix, cold_worker(overlap_groups=OVERLAP_NONE))
        # Sum: sparse 36 + din 48 + compute 3 = 87 ns for T0.
        assert costs.time_s[0] == pytest.approx(87e-9)

    def test_hot_streams_full_tile_width(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        costs = model.tile_costs(two_tile_matrix, hot_worker())
        # Both tiles stream 4 Din rows = 64 B regardless of nnz.
        assert costs.task_bytes[Task.DIN_READ].tolist() == [64.0, 64.0]

    def test_first_mask_charges_dout(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        first = np.array([True, False])
        costs = model.tile_costs(two_tile_matrix, cold_worker(), first_mask=first)
        # T0 is first of its type in the panel: demand reuse charges its 2
        # unique r_ids for read and write (2 * 16 B each way).
        assert costs.task_bytes[Task.DOUT_READ].tolist() == [32.0, 0.0]
        assert costs.task_bytes[Task.DOUT_WRITE].tolist() == [32.0, 0.0]

    def test_first_mask_stream_variant(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        first = np.array([False, True])
        costs = model.tile_costs(two_tile_matrix, hot_worker(), first_mask=first)
        # Streamed Dout tile: 4 rows * 16 B.
        assert costs.task_bytes[Task.DOUT_READ].tolist() == [0.0, 64.0]

    def test_first_mask_shape_check(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        with pytest.raises(ValueError, match="first_mask"):
            model.tile_costs(two_tile_matrix, cold_worker(), first_mask=np.array([True]))

    def test_compute_time_scales_with_ops(self, two_tile_matrix):
        heavy = AnalyticalModel(PROBLEM.with_ops_per_nnz(8))
        light = AnalyticalModel(PROBLEM)
        w = cold_worker()
        t_heavy = heavy.tile_costs(two_tile_matrix, w).task_times[Task.COMPUTE]
        t_light = light.tile_costs(two_tile_matrix, w).task_times[Task.COMPUTE]
        np.testing.assert_allclose(t_heavy, 8 * t_light)

    def test_csr_sparse_bytes(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        w = cold_worker(sparse_format=SparseFormat.CSR_LIKE)
        costs = model.tile_costs(two_tile_matrix, w)
        # T0: height 4 * 4 B + 3 nnz * 8 B = 40.
        assert costs.task_bytes[Task.SPARSE_READ][0] == pytest.approx(40.0)

    def test_sddmm_writes_scalars(self, two_tile_matrix):
        model = AnalyticalModel(ProblemSpec.sddmm(k=4))
        costs = model.tile_costs(two_tile_matrix, cold_worker())
        assert costs.task_bytes[Task.DOUT_WRITE].tolist() == [3 * 4.0, 1 * 4.0]

    def test_totals_with_mask(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        costs = model.tile_costs(two_tile_matrix, cold_worker())
        mask = np.array([True, False])
        assert costs.total_time(mask) == pytest.approx(costs.time_s[0])
        assert costs.total_bytes() == pytest.approx(costs.bytes.sum())

    def test_matrix_flops(self, two_tile_matrix):
        model = AnalyticalModel(PROBLEM)
        assert model.matrix_flops(two_tile_matrix) == pytest.approx(4 * 2 * 4)

    def test_costs_ignore_cache_bytes(self, two_tile_matrix):
        """Limitation 2 of Sec. IV-C: the model charges no cache reuse."""
        model = AnalyticalModel(PROBLEM)
        for worker in (cold_worker, hot_worker):
            without = model.tile_costs(two_tile_matrix, worker(cache_bytes=0))
            with_cache = model.tile_costs(two_tile_matrix, worker(cache_bytes=1024))
            np.testing.assert_array_equal(with_cache.time_s, without.time_s)
            np.testing.assert_array_equal(with_cache.bytes, without.bytes)


class TestEdgeTiles:
    def test_stream_charge_clipped_at_matrix_edge(self):
        # 4x6 matrix with 4-wide tiles: the second tile is only 2 wide.
        m = SparseMatrix(4, 6, [0, 0], [0, 5])
        tiled = TiledMatrix(m, 4, 4)
        costs = AnalyticalModel(PROBLEM).tile_costs(tiled, hot_worker())
        assert costs.task_bytes[Task.DIN_READ].tolist() == [64.0, 32.0]
