"""Aggregate utilization statistics over simulated runs (Table VII).

The paper reports geometric means across the benchmark matrices of the
memory bandwidth utilization, the cache lines fetched per nonzero, and the
per-worker-type busy GFLOP/s.  These helpers compute the same aggregates
from a set of :class:`~repro.sim.engine.SimResult` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.engine import SimResult

__all__ = ["UtilizationRow", "geomean", "utilization_row", "bandwidth_sparkline"]

_SPARK_LEVELS = " .:-=+*#%@"


def bandwidth_sparkline(result: SimResult, buckets: int = 40) -> str:
    """Text sparkline of achieved bandwidth over time.

    Resamples the piecewise-constant ``bandwidth_profile`` into equal-time
    buckets and renders one character per bucket, scaled to the peak rate
    in the run.  Useful for eyeballing where a run is bandwidth-bound and
    where a straggler leaves the memory system idle.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    profile = result.bandwidth_profile
    if not profile or result.time_s <= 0:
        return " " * buckets
    peak = max(bw for _, bw in profile)
    if peak <= 0:
        return " " * buckets
    edges = np.linspace(0.0, result.time_s, buckets + 1)
    ends = np.array([t for t, _ in profile])
    rates = np.array([bw for _, bw in profile])
    if ends[-1] <= 0.0:
        # Degenerate profile: every interval collapsed onto t=0 (a
        # single-entry profile from an instantaneous run).  The
        # time-weighted resampling below would divide by zero-width
        # overlaps, and ``np.interp`` needs increasing sample points,
        # which collapsed edges are not -- render the last recorded rate
        # flat across the run instead.
        level = int(round(float(rates[-1]) / peak * (len(_SPARK_LEVELS) - 1)))
        return _SPARK_LEVELS[level] * buckets
    starts = np.concatenate(([0.0], ends[:-1]))
    chars = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        overlap = np.minimum(ends, hi) - np.maximum(starts, lo)
        weights = np.clip(overlap, 0.0, None)
        total = weights.sum()
        avg = float((weights * rates).sum() / total) if total > 0 else 0.0
        level = int(round(avg / peak * (len(_SPARK_LEVELS) - 1)))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def geomean(values: Sequence[float], floor: float = 1e-12) -> float:
    """Geometric mean; zero entries are floored so idle groups don't zero
    out the aggregate (the paper reports 0.00 for unused worker types,
    which we preserve by flooring only when some entries are positive)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    if np.all(arr <= 0):
        return 0.0
    return float(np.exp(np.log(np.maximum(arr, floor)).mean()))


@dataclass(frozen=True)
class UtilizationRow:
    """One Table VII row: geomean utilization stats of one strategy."""

    strategy: str
    bandwidth_gbs: float
    cache_lines_per_nnz: float
    cold_gflops: float
    hot_gflops: float


def utilization_row(
    strategy: str, results: Sequence[SimResult], nnzs: Sequence[int]
) -> UtilizationRow:
    """Aggregate one strategy's simulated runs into a Table VII row."""
    if len(results) != len(nnzs) or not results:
        raise ValueError("need one nnz count per result")
    return UtilizationRow(
        strategy=strategy,
        bandwidth_gbs=geomean(
            [r.bandwidth_utilization_bytes_per_sec / 1e9 for r in results]
        ),
        cache_lines_per_nnz=geomean([r.cache_lines_per_nnz(n) for r, n in zip(results, nnzs)]),
        cold_gflops=geomean([r.cold.busy_gflops for r in results]),
        hot_gflops=geomean([r.hot.busy_gflops for r in results]),
    )
