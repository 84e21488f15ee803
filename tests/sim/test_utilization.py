"""Utilization aggregation tests (:mod:`repro.sim.utilization`)."""

import numpy as np
import pytest

from repro.core.partition import ExecutionMode
from repro.core.traits import WorkerKind
from repro.sim.engine import GroupStats, SimResult, simulate, simulate_homogeneous
from repro.sim.utilization import (
    bandwidth_sparkline,
    geomean,
    utilization_row,
)
from tests.core.test_partition import mixed_tiled, tiny_arch


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_all_zero(self):
        assert geomean([0.0, 0.0]) == 0.0

    def test_mixed_zero_floored(self):
        # One idle entry must not annihilate the aggregate.
        assert geomean([0.0, 100.0], floor=1.0) == pytest.approx(10.0)


class TestUtilizationRow:
    def test_row_fields(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        results = [
            simulate_homogeneous(arch, tiled, WorkerKind.COLD),
            simulate_homogeneous(arch, tiled, WorkerKind.COLD),
        ]
        row = utilization_row("cold-only", results, [tiled.matrix.nnz] * 2)
        assert row.strategy == "cold-only"
        assert row.bandwidth_gbs > 0
        assert row.cache_lines_per_nnz > 0
        assert row.cold_gflops > 0
        assert row.hot_gflops == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one nnz count"):
            utilization_row("x", [], [])

    def test_zero_nnz_yields_zero_lines_per_nnz(self):
        # An empty matrix moved bytes per nonzero is defined as 0, and the
        # geomean of all-zero samples must stay 0 rather than the floor.
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        row = utilization_row("cold-only", [result], [0])
        assert row.cache_lines_per_nnz == 0.0

    def test_single_result(self):
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        row = utilization_row("cold-only", [result], [tiled.matrix.nnz])
        # Geomean of one sample is the sample itself.
        assert row.bandwidth_gbs == pytest.approx(
            result.bandwidth_utilization_bytes_per_sec / 1e9
        )
        assert row.cold_gflops == pytest.approx(result.cold.busy_gflops)


def _result(profile, time_s=1.0, busy=True):
    stats = (
        GroupStats(instances=1, nnz=10, flops=1.0, bytes=5.0, busy_s=1.0)
        if busy
        else GroupStats(instances=0, nnz=0, flops=0.0, bytes=0.0, busy_s=0.0)
    )
    return SimResult(
        time_s=time_s,
        merge_time_s=0.0,
        mode=ExecutionMode.PARALLEL,
        hot=stats,
        cold=stats,
        bandwidth_profile=profile,
    )


class TestBandwidthProfile:
    def test_profile_recorded_and_consistent(self):
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        profile = result.bandwidth_profile
        assert profile
        # Interval ends are increasing and finish at the makespan.
        ends = [t for t, _ in profile]
        assert all(a <= b + 1e-15 for a, b in zip(ends, ends[1:]))
        assert ends[-1] == pytest.approx(result.time_s)
        # Integrating the profile recovers the total bytes moved.
        total = 0.0
        prev = 0.0
        for t, bw in profile:
            total += (t - prev) * bw
            prev = t
        assert total == pytest.approx(result.bytes_total, rel=1e-6)

    def test_sparkline_shape(self):
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        line = bandwidth_sparkline(result, buckets=30)
        assert len(line) == 30
        assert any(c != " " for c in line)

    def test_sparkline_validates_buckets(self):
        tiled = mixed_tiled()
        result = simulate_homogeneous(tiny_arch(), tiled, WorkerKind.COLD)
        with pytest.raises(ValueError, match="buckets"):
            bandwidth_sparkline(result, buckets=0)

    def test_sparkline_empty_profile_is_blank(self):
        line = bandwidth_sparkline(_result((), time_s=0.0, busy=False), buckets=12)
        assert line == " " * 12

    def test_sparkline_zero_peak_is_blank(self):
        result = _result(((1.0, 0.0),))
        assert bandwidth_sparkline(result, buckets=8) == " " * 8

    def test_sparkline_single_interval_is_flat_peak(self):
        result = _result(((1.0, 5.0),))
        line = bandwidth_sparkline(result, buckets=10)
        # One constant-rate interval at the peak: every bucket renders the
        # top glyph.
        assert line == "@" * 10

    def test_sparkline_collapsed_profile_renders_last_rate(self):
        # Regression: a profile whose every interval ends at t=0 (an
        # instantaneous run with a nonzero reported makespan) used to
        # render blank because the zero-width overlaps carried no weight.
        # It now renders the final recorded rate flat across the line.
        result = _result(((0.0, 5.0),))
        assert bandwidth_sparkline(result, buckets=10) == "@" * 10

    def test_sparkline_collapsed_profile_ending_idle_is_blank(self):
        result = _result(((0.0, 5.0), (0.0, 0.0)))
        assert bandwidth_sparkline(result, buckets=10) == " " * 10

    def test_serial_profile_spans_both_phases(self):
        tiled = mixed_tiled()
        arch = tiny_arch()
        assignment = tiled.stats.nnz > np.median(tiled.stats.nnz)
        result = simulate(arch, tiled, assignment, ExecutionMode.SERIAL)
        ends = [t for t, _ in result.bandwidth_profile]
        assert ends[-1] == pytest.approx(result.time_s)
