"""Block-level hot-tile splitting: invariants, wins, and plumbing.

The fifth heuristic (``Heuristic.BLOCK_SPLIT``) refines the best
whole-tile candidate by cutting one dominating tile at a row boundary.
Pinned here: the candidate never loses its comparison (fallback is the
relabeled base), it *wins* on a committed skew-heavy matrix (both in
predicted and simulated time), nonzeros are conserved across the cut,
``repair_plan`` reproduces the split bit for bit, and
``worker_sim._apply_split`` rejects every malformed split.
"""

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans_pcie
from repro.core.partition import (
    Heuristic,
    HotTilesPartitioner,
    TileSplit,
    plan_cache_from,
    repair_plan,
)
from repro.sim.engine import simulate
from repro.sim.worker_sim import _apply_split, build_plans
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.sparse import generators


# Canonical recipe lives with the fidelity sweep (same committed case).
from repro.experiments.fidelity import skew_heavy_matrix  # noqa: E402


@pytest.fixture(scope="module")
def skew_matrix():
    return skew_heavy_matrix()


def _others_best(result):
    return min(
        r.predicted_time_s
        for h, r in result.candidates.items()
        if h is not Heuristic.BLOCK_SPLIT
    )


class TestNeverLoses:
    @pytest.mark.parametrize("arch_fn", [piuma, lambda: spade_sextans_pcie(4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidate_never_above_base(self, arch_fn, seed):
        arch = arch_fn()
        rng = np.random.default_rng(seed)
        m = generators.rmat(scale=10, nnz=6000, seed=int(rng.integers(1 << 30)))
        tiled = TiledMatrix(m, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        bs = result.candidates[Heuristic.BLOCK_SPLIT]
        assert bs.predicted_time_s <= _others_best(result)
        assert result.chosen.predicted_time_s <= bs.predicted_time_s

    def test_fallback_relabels_base_without_split(self):
        # A uniform matrix offers no skew worth splitting: the candidate
        # must degrade to the base assignment with split=None.
        arch = piuma()
        m = generators.uniform_random(512, 512, 4000, seed=11)
        tiled = TiledMatrix(m, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        bs = result.candidates[Heuristic.BLOCK_SPLIT]
        if bs.split is None:
            assert bs.predicted_time_s == _others_best(result)
            assert bs.label == Heuristic.BLOCK_SPLIT.value


class TestSkewHeavyWin:
    @pytest.mark.parametrize("arch_fn", [piuma, lambda: spade_sextans_pcie(4)])
    def test_split_chosen_and_strictly_better(self, skew_matrix, arch_fn):
        arch = arch_fn()
        tiled = TiledMatrix(skew_matrix, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        chosen = result.chosen
        assert chosen.split is not None
        assert chosen.label == Heuristic.BLOCK_SPLIT.value
        assert chosen.predicted_time_s < _others_best(result)

    def test_simulated_time_improves(self, skew_matrix):
        arch = piuma()
        tiled = TiledMatrix(skew_matrix, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        chosen = result.chosen
        assert chosen.split is not None
        with_split = simulate(
            arch, tiled, chosen.assignment, chosen.mode, split=chosen.split
        )
        without = simulate(arch, tiled, chosen.assignment, chosen.mode)
        assert with_split.time_s < without.time_s

    def test_split_conserves_nnz_and_cuts_on_row(self, skew_matrix):
        arch = piuma()
        tiled = TiledMatrix(skew_matrix, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        split = result.chosen.split
        assert split is not None
        lo = int(tiled.tile_offsets[split.tile])
        hi = int(tiled.tile_offsets[split.tile + 1])
        assert split.hot_nnz > 0 and split.cold_nnz > 0
        assert split.hot_nnz + split.cold_nnz == hi - lo
        cut = lo + split.hot_nnz
        # Row-aligned: last hot row strictly below the first cold row.
        assert int(tiled.rows[cut - 1]) < int(tiled.rows[cut]) == split.row_cut
        # Prefix-hot convention.
        assert bool(result.chosen.assignment[split.tile])

    def test_hot_nnz_fraction_subtracts_cold_side(self, skew_matrix):
        arch = piuma()
        tiled = TiledMatrix(skew_matrix, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        chosen = result.chosen
        assert chosen.split is not None
        whole_tile_hot = int(tiled.stats.nnz[chosen.assignment].sum())
        expected = (whole_tile_hot - chosen.split.cold_nnz) / tiled.stats.nnz.sum()
        assert chosen.hot_nnz_fraction(tiled) == pytest.approx(expected)

    def test_repair_reproduces_split_bit_for_bit(self, skew_matrix):
        arch = piuma()
        tiled = TiledMatrix(skew_matrix, arch.tile_height, arch.tile_width)
        partitioner = HotTilesPartitioner(arch)
        fresh = partitioner.partition(tiled)
        cache = plan_cache_from(partitioner, tiled)
        outcome = repair_plan(
            partitioner, tiled, cache, np.zeros(0, dtype=np.int64)
        )
        assert outcome.stats.tiles_repaired == 0
        repaired = outcome.result.chosen
        assert repaired.predicted_time_s == fresh.chosen.predicted_time_s
        assert repaired.split == fresh.chosen.split
        assert repaired.assignment.tolist() == fresh.chosen.assignment.tolist()


class TestApplySplitValidation:
    """``_apply_split`` on a hand-built one-tile matrix (2 nnz per row)."""

    @pytest.fixture()
    def tiled(self):
        rows = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        cols = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        return TiledMatrix(SparseMatrix(8, 8, rows, cols), 4, 4)

    @pytest.fixture()
    def assignment(self, tiled):
        return np.ones(tiled.n_tiles, dtype=bool)

    def test_valid_split_expands_tiling(self, tiled, assignment):
        split = TileSplit(tile=0, hot_nnz=4, cold_nnz=4, row_cut=2)
        view, expanded = _apply_split(tiled, assignment, split)
        assert view.n_tiles == tiled.n_tiles + 1
        assert expanded.tolist() == [True, False] + [True] * (tiled.n_tiles - 1)
        assert view.tile_offsets.tolist()[:3] == [0, 4, 8]
        # Honest per-part stats: 2 rows / 2 cols each side.
        assert view.stats.nnz[0] == 4 and view.stats.nnz[1] == 4

    def test_build_plans_covers_all_nnz(self, tiled, assignment):
        arch = spade_sextans_pcie(2)
        split = TileSplit(tile=0, hot_nnz=4, cold_nnz=4, row_cut=2)
        hot, cold = build_plans(arch, tiled, assignment, split=split)
        assert sum(p.nnz_total for p in hot) == 4
        assert sum(p.nnz_total for p in hot + cold) == 8

    def test_tile_out_of_range(self, tiled, assignment):
        split = TileSplit(tile=tiled.n_tiles, hot_nnz=4, cold_nnz=4, row_cut=2)
        with pytest.raises(ValueError, match="out of range"):
            _apply_split(tiled, assignment, split)

    def test_sizes_must_sum_to_tile_nnz(self, tiled, assignment):
        split = TileSplit(tile=0, hot_nnz=4, cold_nnz=3, row_cut=2)
        with pytest.raises(ValueError, match="sum to tile nnz"):
            _apply_split(tiled, assignment, split)

    def test_empty_side_rejected(self, tiled, assignment):
        split = TileSplit(tile=0, hot_nnz=0, cold_nnz=8, row_cut=0)
        with pytest.raises(ValueError, match="positive"):
            _apply_split(tiled, assignment, split)

    def test_cut_inside_a_row_rejected(self, tiled, assignment):
        # Offset 3 lands between the two nonzeros of row 1.
        split = TileSplit(tile=0, hot_nnz=3, cold_nnz=5, row_cut=1)
        with pytest.raises(ValueError, match="row boundary"):
            _apply_split(tiled, assignment, split)

    def test_row_cut_must_match_data(self, tiled, assignment):
        split = TileSplit(tile=0, hot_nnz=4, cold_nnz=4, row_cut=3)
        with pytest.raises(ValueError, match="disagrees"):
            _apply_split(tiled, assignment, split)

    def test_split_tile_must_be_hot(self, tiled):
        cold = np.zeros(tiled.n_tiles, dtype=bool)
        split = TileSplit(tile=0, hot_nnz=4, cold_nnz=4, row_cut=2)
        with pytest.raises(ValueError, match="assigned hot"):
            _apply_split(tiled, cold, split)
