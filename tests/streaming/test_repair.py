"""Incremental plan repair: parity with from-scratch partitioning."""

import numpy as np
import pytest

from repro.core.partition import HotTilesPartitioner, plan_cache_from, repair_plan
from repro.experiments.deltastream import delta_replay
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_tiled
from repro.streaming.delta import DeltaBatch

EPSILON = 0.01


def make_tiled(matrix, arch):
    return TiledMatrix(matrix, arch.tile_height, arch.tile_width)


def assert_same_choice(repaired, scratch):
    """Repair and scratch partitioning run one search over equal tables."""
    assert repaired.label == scratch.label
    np.testing.assert_array_equal(repaired.assignment, scratch.assignment)
    assert repaired.split == scratch.split
    assert repaired.predicted_time_s == scratch.predicted_time_s


class TestRepairParity:
    @pytest.mark.parametrize("arch_fixture", ["spade_sextans_arch", "piuma_arch"])
    def test_all_dirty_repair_reproduces_partition(
        self, request, small_rmat, arch_fixture
    ):
        # Marking every tile dirty removes all pinning: the repair must
        # then be the N log N heuristic itself, bit for bit.
        arch = request.getfixturevalue(arch_fixture)
        partitioner = HotTilesPartitioner(arch)
        tiled = make_tiled(small_rmat, arch)
        full = partitioner.partition(tiled)
        cache = plan_cache_from(partitioner, tiled)
        outcome = repair_plan(partitioner, tiled, cache, cache.tile_keys)
        assert outcome.stats.tiles_repaired == cache.n_tiles
        assert outcome.result.chosen.label == full.chosen.label
        assert (
            outcome.result.chosen.predicted_time_s == full.chosen.predicted_time_s
        )
        np.testing.assert_array_equal(
            outcome.result.chosen.assignment, full.chosen.assignment
        )
        assert set(outcome.result.candidates) == set(full.candidates)
        for heuristic, repaired in outcome.result.candidates.items():
            scratch = full.candidates[heuristic]
            assert repaired.predicted_time_s == scratch.predicted_time_s
            np.testing.assert_array_equal(repaired.assignment, scratch.assignment)

    def test_no_dirty_tiles_pins_everything(self, small_rmat, spade_sextans_arch):
        partitioner = HotTilesPartitioner(spade_sextans_arch)
        tiled = make_tiled(small_rmat, spade_sextans_arch)
        full = partitioner.partition(tiled)
        cache = plan_cache_from(partitioner, tiled)
        outcome = repair_plan(
            partitioner, tiled, cache, np.empty(0, dtype=cache.tile_keys.dtype)
        )
        assert outcome.stats.tiles_repaired == 0
        assert outcome.stats.tiles_pinned == cache.n_tiles
        np.testing.assert_array_equal(
            outcome.result.chosen.assignment, full.chosen.assignment
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streamed_repair_within_epsilon(
        self, small_rmat, spade_sextans_arch, seed
    ):
        # The acceptance gate: across a chained stream, the repaired
        # plan's predicted runtime stays within EPSILON of from-scratch
        # replanning while repairing strictly fewer than all tiles.
        arch = spade_sextans_arch
        partitioner = HotTilesPartitioner(arch)
        tiled = make_tiled(small_rmat, arch)
        cache = plan_cache_from(partitioner, tiled)
        for step in range(4):
            delta = DeltaBatch.random(
                tiled.matrix, inserts=60, deletes=40, seed=seed * 1_000_003 + step
            )
            tiled, report = apply_delta_tiled(tiled, delta)
            outcome = repair_plan(partitioner, tiled, cache, report.dirty_tile_keys)
            cache = outcome.cache
            scratch = partitioner.partition(make_tiled(tiled.matrix, arch))
            rel = abs(
                outcome.result.chosen.predicted_time_s
                - scratch.chosen.predicted_time_s
            ) / scratch.chosen.predicted_time_s
            assert rel <= EPSILON
            assert_same_choice(outcome.result.chosen, scratch.chosen)
            assert outcome.stats.repaired_fraction < 1.0

    def test_hot_concentrated_churn(self, small_rmat, spade_sextans_arch):
        # Concentrate inserts inside the hottest tile: the dirty set stays
        # small and the repaired plan still tracks from-scratch.
        arch = spade_sextans_arch
        partitioner = HotTilesPartitioner(arch)
        tiled = make_tiled(small_rmat, arch)
        cache = plan_cache_from(partitioner, tiled)
        hottest = int(np.argmax(tiled.stats.nnz))
        tr = int(tiled.stats.tile_row[hottest])
        tc = int(tiled.stats.tile_col[hottest])
        region = (
            tr * arch.tile_height,
            min((tr + 1) * arch.tile_height, tiled.matrix.n_rows),
            tc * arch.tile_width,
            min((tc + 1) * arch.tile_width, tiled.matrix.n_cols),
        )
        for step in range(3):
            delta = DeltaBatch.random(
                tiled.matrix, inserts=80, deletes=0, seed=step, insert_region=region
            )
            tiled, report = apply_delta_tiled(tiled, delta)
            outcome = repair_plan(partitioner, tiled, cache, report.dirty_tile_keys)
            cache = outcome.cache
            assert outcome.stats.tiles_repaired <= 1
            scratch = partitioner.partition(make_tiled(tiled.matrix, arch))
            rel = abs(
                outcome.result.chosen.predicted_time_s
                - scratch.chosen.predicted_time_s
            ) / scratch.chosen.predicted_time_s
            assert rel <= EPSILON
            assert_same_choice(outcome.result.chosen, scratch.chosen)


class TestDeltaReplayExperiment:
    def test_gate_passes_on_rmat(self, small_rmat):
        result = delta_replay(
            small_rmat, steps=3, inserts=60, deletes=40, seed=0, label="rmat10"
        )
        assert result.passes()
        assert result.all_bit_identical()
        assert result.max_rel_err() <= result.epsilon
        assert 0.0 < result.mean_repaired_fraction() < 1.0
        assert len(result.rows) == 3

    def test_json_report_round_trips(self, small_uniform, tmp_path):
        import json

        result = delta_replay(small_uniform, steps=2, seed=1, label="uniform")
        path = result.save_json(str(tmp_path / "replay.json"))
        with open(path) as f:
            data = json.loads(f.read())
        assert data["passes"] is True
        assert len(data["rows"]) == 2
        assert data["rows"][0]["bit_identical"] is True

    def test_unknown_arch_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            delta_replay(small_rmat, arch_name="tpu")
