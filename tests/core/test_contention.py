"""The contention-aware runtime evaluator: properties, wiring, and guards.

Pinned here:

- ``contended_runtime >= naive_runtime`` on every random instance --
  modeling contention can only slow a prediction down, never speed it up.
- Bit-equality with the naive Fig. 8 closed forms when no PCIe link is
  configured (scalar and batch), and partitioner-level bit-equality of
  ``contention_aware=True`` vs ``False`` on non-PCIe architectures.
- Batch evaluators agree element-wise with their scalar twins.
- The recorded PCIe mispredict stays fixed: on the committed skew-heavy
  matrix the contention-aware scorer's choice simulates at least as fast
  as the naive scorer's, and predicted/simulated split deltas agree in
  sign (the BLOCK_SPLIT never-loses invariant under the new scorer).
- ``_SplitPartsView`` rejects degenerate cuts (``hot_nnz`` of 0 or the
  whole tile) that would read the next tile's first row -- or past the
  array on the last tile.
- The panel-affine granularity floor equals, bit for bit, a frozen copy
  of its earlier form that stable-sorted the selected tiles by panel.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core import contention
from repro.core.partition import (
    Heuristic,
    HotTilesPartitioner,
    _SplitPartsView,
)
from repro.experiments.fidelity import skew_heavy_matrix
from repro.sim.engine import simulate
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix


def _random_totals(rng):
    return SimpleNamespace(
        th_total=float(rng.uniform(0, 1e-3)),
        tc_total=float(rng.uniform(0, 1e-3)),
        bh_total=float(rng.uniform(0, 1e6)),
        bc_total=float(rng.uniform(0, 1e6)),
        t_merge=float(rng.uniform(0, 1e-4)),
    )


class TestEvaluatorProperties:
    @pytest.mark.parametrize("serial", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_contention_never_faster_than_naive(self, serial, seed):
        arch = spade_sextans_pcie(4)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            totals = _random_totals(rng)
            floors = (float(rng.uniform(0, 2e-4)), float(rng.uniform(0, 2e-4)))
            naive = contention.naive_runtime(arch, totals, serial)
            contended = contention.contended_runtime(
                arch, totals, serial, hot_floor=floors[0], cold_floor=floors[1]
            )
            assert contended >= naive

    @pytest.mark.parametrize("serial", [False, True])
    def test_bit_equal_without_pcie(self, serial):
        for arch in (spade_sextans(4), piuma()):
            assert arch.pcie_bw_bytes_per_sec is None
            rng = np.random.default_rng(7)
            for _ in range(50):
                totals = _random_totals(rng)
                naive = contention.naive_runtime(arch, totals, serial)
                contended = contention.contended_runtime(
                    arch, totals, serial, hot_floor=1e-3, cold_floor=1e-3
                )
                assert contended == naive

    @pytest.mark.parametrize("serial", [False, True])
    @pytest.mark.parametrize("arch_fn", [lambda: spade_sextans_pcie(4), piuma])
    def test_batch_matches_scalar(self, serial, arch_fn):
        arch = arch_fn()
        rng = np.random.default_rng(3)
        n = 64
        th = rng.uniform(0, 1e-3, n)
        tc = rng.uniform(0, 1e-3, n)
        bh = rng.uniform(0, 1e6, n)
        bc = rng.uniform(0, 1e6, n)
        t_merge = rng.uniform(0, 1e-4, n)
        hot_floor = rng.uniform(0, 2e-4, n)
        cold_floor = rng.uniform(0, 2e-4, n)
        batch = contention.contended_runtime_batch(
            arch, th, tc, bh, bc, t_merge, serial,
            hot_floor=hot_floor, cold_floor=cold_floor,
        )
        naive_batch = contention.naive_runtime_batch(
            arch, th, tc, bh, bc, t_merge, serial
        )
        for i in range(n):
            totals = SimpleNamespace(
                th_total=th[i], tc_total=tc[i], bh_total=bh[i],
                bc_total=bc[i], t_merge=t_merge[i],
            )
            scalar = contention.contended_runtime(
                arch, totals, serial,
                hot_floor=float(hot_floor[i]), cold_floor=float(cold_floor[i]),
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12, abs=0.0)
            assert naive_batch[i] == contention.naive_runtime(arch, totals, serial)

    def test_effective_bw_plain_without_pcie(self):
        arch = piuma()
        assert contention.effective_hot_bw(arch) == arch.mem_bw_bytes_per_sec
        assert contention.effective_cold_bw(arch) == arch.mem_bw_bytes_per_sec
        pcie_arch = spade_sextans_pcie(4)
        assert (
            contention.effective_hot_bw(pcie_arch)
            <= pcie_arch.pcie_bw_bytes_per_sec
        )

    def test_floor_zero_for_single_instance(self):
        times = np.array([1e-4, 2e-4])
        panels = np.array([0, 1])
        selected = np.array([True, True])
        traits = piuma().cold.traits
        floor = contention.granularity_floor(
            times, None, panels, selected, traits=traits, n_instances=1,
        )
        assert floor == 0.0


def _argsort_panel_floor(times, panels, selected):
    """Frozen panel-affine floor from before the sort was dropped: it
    stable-sorted the selected tiles by panel id, then summed segments."""
    t = times[selected]
    p = panels[selected]
    order = np.argsort(p, kind="stable")
    ts = t[order]
    ps = p[order]
    starts = np.flatnonzero(np.concatenate(([True], ps[1:] != ps[:-1])))
    return float(np.add.reduceat(ts, starts).max())


class TestPanelFloor:
    @pytest.mark.parametrize("seed", range(24))
    def test_equals_frozen_argsort_version(self, seed):
        # Callers pass non-decreasing panel ids: tile_row, or a split's
        # expanded panels, which repeat the split tile's id in place.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        panels = np.sort(rng.integers(0, max(1, n // 4), size=n))
        times = rng.exponential(1e-5, size=n)
        selected = rng.random(n) < rng.uniform(0.05, 1.0)
        selected[rng.integers(n)] = True
        arch = piuma()
        assert arch.hot.traits.panel_affine and arch.hot.count > 1
        floor = contention.granularity_floor(
            times, None, panels, selected,
            traits=arch.hot.traits, n_instances=arch.hot.count,
        )
        assert floor == _argsort_panel_floor(times, panels, selected)


class TestPartitionerWiring:
    @pytest.mark.parametrize("arch_fn", [lambda: spade_sextans(4), piuma])
    def test_non_pcie_flag_is_inert(self, arch_fn, small_rmat, small_uniform,
                                    small_banded):
        arch = arch_fn()
        for matrix in (small_rmat, small_uniform, small_banded):
            tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
            on = HotTilesPartitioner(arch, contention_aware=True).partition(tiled)
            off = HotTilesPartitioner(arch, contention_aware=False).partition(tiled)
            assert on.chosen.predicted_time_s == off.chosen.predicted_time_s
            assert on.chosen.split == off.chosen.split
            assert on.chosen.assignment.tolist() == off.chosen.assignment.tolist()
            assert on.chosen.scorer == "naive"
            for h in on.candidates:
                assert (
                    on.candidates[h].predicted_time_s
                    == off.candidates[h].predicted_time_s
                )

    def test_scorer_and_naive_time_recorded(self, small_rmat):
        arch = spade_sextans_pcie(4)
        tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        assert result.chosen.scorer == "contention"
        assert result.chosen.naive_time_s is not None
        # Contention can only add terms under a max: never below naive.
        assert result.chosen.predicted_time_s >= result.chosen.naive_time_s

    def test_unit_capacities_computed_once_per_cost_table(self, monkeypatch, small_rmat):
        """The whole-tile candidates share one capacity array, and the
        split probes one more over the expanded tiling plus one over their
        parts' rows; only the untiled cold group reads capacities."""
        arch = spade_sextans_pcie(4)
        assert arch.hot.traits.panel_affine and not arch.cold.traits.panel_affine
        tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
        capacity_calls, floor_calls = [], []
        unit_capacity, group_floors = contention._unit_capacity, contention.group_floors

        def count_capacity(uniq_rids, *args):
            capacity_calls.append(uniq_rids.shape[0])
            return unit_capacity(uniq_rids, *args)

        def count_floors(*args):
            floor_calls.append(args[4].shape[0])
            return group_floors(*args)

        monkeypatch.setattr(contention, "_unit_capacity", count_capacity)
        monkeypatch.setattr(contention, "group_floors", count_floors)
        result = HotTilesPartitioner(arch).partition(tiled)
        n_probed = floor_calls.count(tiled.n_tiles + 1)
        assert n_probed > 0 and len(floor_calls) == 3 + n_probed
        assert capacity_calls == [tiled.n_tiles, tiled.n_tiles + 1, 2 * n_probed]
        assert result.chosen.scorer == "contention"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_split_never_loses_under_contention(self, seed, small_rmat,
                                                      small_uniform, small_banded):
        arch = spade_sextans_pcie(4)
        matrices = {
            0: small_rmat, 1: small_uniform, 2: small_banded,
        }
        tiled = TiledMatrix(matrices[seed], arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        bs = result.candidates[Heuristic.BLOCK_SPLIT]
        others_best = min(
            r.predicted_time_s
            for h, r in result.candidates.items()
            if h is not Heuristic.BLOCK_SPLIT
        )
        assert bs.predicted_time_s <= others_best
        assert result.chosen.predicted_time_s <= bs.predicted_time_s


class TestPcieFlipCase:
    @pytest.fixture(scope="class")
    def skew(self):
        return skew_heavy_matrix()

    def test_contention_choice_simulates_no_worse(self, skew):
        arch = spade_sextans_pcie(4)
        tiled = TiledMatrix(skew, arch.tile_height, arch.tile_width)
        on = HotTilesPartitioner(arch, contention_aware=True).partition(tiled)
        off = HotTilesPartitioner(arch, contention_aware=False).partition(tiled)
        sim_on = simulate(
            arch, tiled, on.chosen.assignment, on.chosen.mode, split=on.chosen.split
        ).time_s
        sim_off = simulate(
            arch, tiled, off.chosen.assignment, off.chosen.mode,
            split=off.chosen.split,
        ).time_s
        assert sim_on <= sim_off

    def test_predicted_and_simulated_split_deltas_agree(self, skew):
        arch = spade_sextans_pcie(4)
        tiled = TiledMatrix(skew, arch.tile_height, arch.tile_width)
        result = HotTilesPartitioner(arch).partition(tiled)
        bs = result.candidates[Heuristic.BLOCK_SPLIT]
        assert bs.split is not None
        base = min(
            (r for h, r in result.candidates.items()
             if h is not Heuristic.BLOCK_SPLIT),
            key=lambda r: r.predicted_time_s,
        )
        pred_delta = bs.predicted_time_s - base.predicted_time_s
        sim_bs = simulate(
            arch, tiled, bs.assignment, bs.mode, split=bs.split
        ).time_s
        sim_base = simulate(
            arch, tiled, base.assignment, base.mode, split=base.split
        ).time_s
        assert np.sign(pred_delta) == np.sign(sim_bs - sim_base)


class TestDegenerateCutGuard:
    """A cut of 0 or tile-nnz used to read ``tiled.rows[lo + hot_nnz]`` --
    the next tile's first row, or one past the array on the last tile."""

    @pytest.fixture()
    def tiled(self):
        # Two tiles side by side; tile 1 is the *last* tile, so a
        # whole-tile cut there indexes one past ``tiled.rows``.
        rows = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        cols = np.array([0, 1, 0, 1, 4, 5, 4, 5])
        return TiledMatrix(SparseMatrix(4, 8, rows, cols), 4, 4)

    def test_zero_cut_rejected(self, tiled):
        with pytest.raises(ValueError, match="degenerate split"):
            _SplitPartsView(tiled, 0, [0])

    def test_whole_tile_cut_rejected(self, tiled):
        nnz = int(tiled.tile_offsets[1] - tiled.tile_offsets[0])
        with pytest.raises(ValueError, match="degenerate split"):
            _SplitPartsView(tiled, 0, [nnz])

    def test_whole_tile_cut_on_last_tile_rejected(self, tiled):
        last = tiled.n_tiles - 1
        nnz = int(tiled.tile_offsets[last + 1] - tiled.tile_offsets[last])
        with pytest.raises(ValueError, match="degenerate split"):
            _SplitPartsView(tiled, last, [nnz])

    def test_degenerate_cut_among_several_rejected(self, tiled):
        nnz = int(tiled.tile_offsets[1] - tiled.tile_offsets[0])
        with pytest.raises(ValueError, match="degenerate split"):
            _SplitPartsView(tiled, 0, [2, nnz])

    def test_interior_cut_accepted(self, tiled):
        view = _SplitPartsView(tiled, tiled.n_tiles - 1, [2])
        assert int(view.stats.nnz.sum()) == 4
