"""Contention-aware closed-form runtime evaluation.

The Fig. 8 final-runtime formulas (:func:`naive_runtime`) treat every
bandwidth resource as a free-standing ``max`` term: the PCIe link in
front of the hot group appears only as ``bh / BW_pcie``, and shared main
memory only as ``b_total / BW``.  The fluid simulator is stricter: its
:class:`~repro.sim.memory.RateAllocator` water-fills per-*instance*
traffic through the PCIe link and main memory in series, so a worker
group can never drain bytes faster than its instances' own memory ports,
the link in front of it, or the DRAM share the other group leaves over.
On the PCIe machine this gap made the model over-credit the hot side of
a block split (a recorded 14.9%-predicted-win / 5.6%-simulated-loss
case) -- the model believed shaving hot bytes shaved the makespan 1:1
while the displaced work throttled the cold group.

:func:`contended_runtime` closes the gap with a closed-form evaluation
over the same group totals, mirroring ``RateAllocator``'s resource model
without running the event loop:

1. **Serialized drain rates.**  Group ``g`` drains bytes at
   ``rho_g = min(N_g * r_g, links_g..., BW)`` -- its instances' aggregate
   port rate, any link in front of it (PCIe for the hot group), and DRAM
   in *series*, exactly the per-instance rate caps + PCIe + DRAM
   resources the allocator water-fills.
2. **Scheduling-granularity floors.**  The allocator grants bandwidth
   per instance, and an instance only demands for work it owns.  The
   simulator's scheduler hands panel-affine (scratchpad) workers whole
   panels and the others row blocks of :func:`block_rows` rows, so a
   tile reaching ``k`` schedulable units can occupy at most ``k``
   instances: its time can never drop below ``tile_time / min(N_g, k)``
   (:func:`granularity_floor`).  This is the term that catches the
   recorded PCIe mispredict -- the split's cold sub-block spans too few
   row blocks to spread over the whole cold group.
3. **Two-phase water-fill.**  While both groups demand, DRAM is shared
   max-min with per-instance fairness (``N_g`` users at the group's
   smeared per-instance demand).  When the first group drains its bytes
   it releases its bandwidth -- compute-bound phases do not occupy the
   memory system -- and the survivor finishes at its own serialized
   rate (:func:`_two_phase_makespan`).

Two properties are load-bearing and pinned by tests:

- ``contended_runtime >= naive_runtime`` on every instance (contention
  never speeds anything up): every naive term reappears under a ``max``.
- When ``pcie_bw_gbs is None`` the function *returns the naive value
  bit-for-bit* -- non-PCIe architectures are unaffected by the flag.

The scalar forms score one candidate; the ``*_batch`` variants evaluate
whole assignment enumerations at once for
:func:`~repro.core.partition.exhaustive_partition`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.heterogeneous import Architecture
from repro.core.traits import WorkerTraits

__all__ = [
    "UNTILED_BLOCK_DIVISOR",
    "block_rows",
    "naive_runtime",
    "naive_runtime_batch",
    "contended_runtime",
    "contended_runtime_batch",
    "granularity_floor",
    "granularity_floor_batch",
    "group_floors",
    "effective_hot_bw",
    "effective_cold_bw",
]

#: Row-block granularity of the scheduler for workers that are not
#: panel-affine: blocks of ``tile_height // UNTILED_BLOCK_DIVISOR`` rows.
#: The paper's 64-row SPADE chunks are 1/128 of its 8192-row panels; 1/8
#: keeps simulator event counts manageable.
UNTILED_BLOCK_DIVISOR = 8


def block_rows(tile_height: int) -> int:
    """Rows per scheduling block of a worker that is not panel-affine.

    The one definition both :mod:`repro.sim.worker_sim`'s scheduler and
    the granularity floors below use.
    """
    return max(1, tile_height // UNTILED_BLOCK_DIVISOR)


# ----------------------------------------------------------------------
# Naive Fig. 8 formulas (the documented fallback)
# ----------------------------------------------------------------------
def naive_runtime(arch: Architecture, totals, serial: bool) -> float:
    """The Fig. 8 final-runtime formulas over readjusted totals.

    ``totals`` is any object with ``th_total`` / ``tc_total`` /
    ``bh_total`` / ``bc_total`` / ``t_merge`` attributes
    (:class:`~repro.core.partition.PredictedTotals` in practice).  This
    is the pre-contention model, kept bit-identical as the documented
    fallback and as the ``pcie_bw_gbs is None`` behavior.
    """
    bw = arch.mem_bw_bytes_per_sec
    pcie = arch.pcie_bw_bytes_per_sec
    hot_pcie_time = totals.bh_total / pcie if pcie else 0.0
    if not serial:
        return max(
            max(totals.th_total, totals.tc_total),
            (totals.bh_total + totals.bc_total) / bw,
            hot_pcie_time,
        ) + totals.t_merge
    hot_side = max(totals.th_total, totals.bh_total / bw, hot_pcie_time)
    cold_side = max(totals.tc_total, totals.bc_total / bw)
    return hot_side + cold_side


def naive_runtime_batch(
    arch: Architecture,
    th: np.ndarray,
    tc: np.ndarray,
    bh: np.ndarray,
    bc: np.ndarray,
    t_merge: np.ndarray,
    serial: bool,
) -> np.ndarray:
    """Vectorized :func:`naive_runtime` (same operations, element-wise)."""
    bw = arch.mem_bw_bytes_per_sec
    pcie = arch.pcie_bw_bytes_per_sec
    hot_pcie_time = bh / pcie if pcie else np.zeros_like(bh)
    if not serial:
        return (
            np.maximum(np.maximum(th, tc), np.maximum((bh + bc) / bw, hot_pcie_time))
            + t_merge
        )
    return np.maximum(np.maximum(th, bh / bw), hot_pcie_time) + np.maximum(tc, bc / bw)


# ----------------------------------------------------------------------
# Serialized group drain rates
# ----------------------------------------------------------------------
def effective_hot_bw(arch: Architecture) -> float:
    """Bytes/s the hot group can actually drain: ports, PCIe, DRAM in series.

    Equals plain ``mem_bw_bytes_per_sec`` when no PCIe link is configured,
    so scoring on a non-PCIe machine keeps the naive Fig. 8 forms.
    """
    bw = arch.mem_bw_bytes_per_sec
    pcie = arch.pcie_bw_bytes_per_sec
    if pcie is None:
        return bw
    rho = min(pcie, bw)
    if arch.hot.count > 0:
        rho = min(rho, arch.hot.peak_mem_rate_bytes_per_sec)
    return rho


def effective_cold_bw(arch: Architecture) -> float:
    """Bytes/s the cold group can actually drain (ports and DRAM in series).

    Gated on the PCIe link being present for the same reason as
    :func:`effective_hot_bw`: the contention model only refines
    architectures whose recorded fidelity gap it closes.
    """
    bw = arch.mem_bw_bytes_per_sec
    if arch.pcie_bw_bytes_per_sec is None:
        return bw
    if arch.cold.count > 0:
        return min(bw, arch.cold.peak_mem_rate_bytes_per_sec)
    return bw


# ----------------------------------------------------------------------
# Scheduling-granularity floors
# ----------------------------------------------------------------------
def _unit_capacity(
    uniq_rids: np.ndarray, n_instances: int, tile_height: int
) -> np.ndarray:
    """Max instances an untiled tile's work can spread over.

    A tile touching ``u`` distinct rows occupies at least
    ``ceil(u / block_rows(tile_height))`` of the scheduler's aligned row
    blocks, and each block lands on exactly one instance.
    """
    blocks = np.maximum(np.ceil(uniq_rids / block_rows(tile_height)), 1.0)
    return np.minimum(float(n_instances), blocks)


def granularity_floor(
    times: np.ndarray,
    uniq_rids: np.ndarray,
    panels: np.ndarray,
    selected: np.ndarray,
    *,
    traits: WorkerTraits,
    n_instances: int,
    tile_height: int,
) -> float:
    """Lower bound on one group's time from scheduling granularity.

    ``times`` are the group's per-tile (first-of-type readjusted) model
    times, ``selected`` the tiles assigned to it.  Panel-affine workers
    process all of a panel's selected tiles on one instance, so the
    floor is the largest per-panel time sum; untiled workers are bounded
    by the most indivisible single tile, ``time / min(N, row blocks)``.
    Zero when the group has at most one instance (its total time already
    is the exact serialization) or no work.

    ``panels`` must be non-decreasing, as ``TiledMatrix.stats.tile_row``
    is and as a split candidate's expanded panels are.  A panel's
    selected tiles are then one contiguous run, found without a sort.
    """
    if n_instances <= 1 or not selected.any():
        return 0.0
    t = times[selected]
    if traits.panel_affine:
        p = panels[selected]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        return float(np.add.reduceat(t, starts).max())
    capacity = _unit_capacity(uniq_rids[selected], n_instances, tile_height)
    return float((t / capacity).max())


def granularity_floor_batch(
    times: np.ndarray,
    selected: np.ndarray,
    uniq_rids: np.ndarray,
    panel_starts: np.ndarray,
    *,
    traits: WorkerTraits,
    n_instances: int,
    tile_height: int,
) -> np.ndarray:
    """Vectorized :func:`granularity_floor` over an assignment enumeration.

    ``times`` and ``selected`` are ``(n_assignments, n_tiles)``;
    ``panel_starts`` are the first tile indices of each panel (tiles are
    stored panel-major, so panels are contiguous column ranges).
    """
    m = times.shape[0]
    if n_instances <= 1 or times.shape[1] == 0:
        return np.zeros(m)
    contrib = np.where(selected, times, 0.0)
    if traits.panel_affine:
        return np.add.reduceat(contrib, panel_starts, axis=1).max(axis=1)
    capacity = _unit_capacity(uniq_rids, n_instances, tile_height)
    return (contrib / capacity[None, :]).max(axis=1)


def group_floors(
    arch: Architecture,
    hot_times: np.ndarray,
    cold_times: np.ndarray,
    uniq_rids: np.ndarray,
    panels: np.ndarray,
    assignment: np.ndarray,
) -> Tuple[float, float]:
    """Granularity floors for both groups of one candidate assignment."""
    hot = granularity_floor(
        hot_times, uniq_rids, panels, assignment,
        traits=arch.hot.traits, n_instances=arch.hot.count,
        tile_height=arch.tile_height,
    )
    cold = granularity_floor(
        cold_times, uniq_rids, panels, ~assignment,
        traits=arch.cold.traits, n_instances=arch.cold.count,
        tile_height=arch.tile_height,
    )
    return hot, cold


# ----------------------------------------------------------------------
# Two-phase group water-fill
# ----------------------------------------------------------------------
def _waterfill_two_groups(
    d_h: float, n_h: int, d_c: float, n_c: int, bw: float
) -> Tuple[float, float]:
    """Max-min DRAM grants for two groups of uniformly-demanding users.

    Group ``g`` holds ``n_g`` users each demanding ``d_g / n_g``;
    progressive filling against total budget ``bw``, exactly the
    semantics of :func:`repro.sim.memory.allocate_rates` collapsed to
    two user classes.  Only meaningful when ``d_h + d_c > bw``.
    """
    n_h = max(n_h, 1)
    n_c = max(n_c, 1)
    cap_h = d_h / n_h
    cap_c = d_c / n_c
    level = bw / (n_h + n_c)
    if level <= min(cap_h, cap_c):
        return n_h * level, n_c * level
    if cap_h <= cap_c:
        grant_h = d_h
        return grant_h, min(d_c, bw - grant_h)
    grant_c = d_c
    return min(d_h, bw - grant_c), grant_c


def _two_phase_makespan(
    hot_solo: float,
    cold_solo: float,
    bh: float,
    bc: float,
    rho_h: float,
    rho_c: float,
    n_h: int,
    n_c: int,
    bw: float,
) -> float:
    """Parallel-mode makespan of the smeared two-group fluid system.

    Each group smears its bytes over its serialized solo duration
    (demand ``d_g = b_g / solo_g``, never above ``rho_g``).  If the
    demands fit in DRAM there is no contention and the groups run at
    their solo durations.  Otherwise both run at their max-min grants
    until the first drains and releases its bandwidth; the survivor
    finishes the remainder at its own serialized rate.
    """
    d_h = bh / hot_solo if hot_solo > 0.0 else 0.0
    d_c = bc / cold_solo if cold_solo > 0.0 else 0.0
    if d_h + d_c <= bw:
        return max(hot_solo, cold_solo)
    a_h, a_c = _waterfill_two_groups(d_h, n_h, d_c, n_c, bw)
    finish_h = bh / a_h if a_h > 0.0 else 0.0
    finish_c = bc / a_c if a_c > 0.0 else 0.0
    if finish_h <= finish_c:
        remaining = bc - a_c * finish_h
        return max(cold_solo, finish_h + remaining / rho_c)
    remaining = bh - a_h * finish_c
    return max(hot_solo, finish_c + remaining / rho_h)


# ----------------------------------------------------------------------
# The contention-aware evaluator
# ----------------------------------------------------------------------
def contended_runtime(
    arch: Architecture,
    totals,
    serial: bool,
    hot_floor: float = 0.0,
    cold_floor: float = 0.0,
) -> float:
    """Contention-aware final runtime over readjusted group totals.

    Falls back to :func:`naive_runtime` bit-for-bit when no PCIe link is
    configured.  Otherwise every naive term survives under a ``max`` --
    the result is provably ``>= naive_runtime`` -- with three additions
    mirroring ``RateAllocator``: serialized drain rates, scheduling
    granularity floors, and the two-phase water-fill (module docstring).
    """
    if arch.pcie_bw_bytes_per_sec is None:
        return naive_runtime(arch, totals, serial)
    bw = arch.mem_bw_bytes_per_sec
    rho_h = effective_hot_bw(arch)
    rho_c = effective_cold_bw(arch)
    bh, bc = totals.bh_total, totals.bc_total
    hot_solo = max(totals.th_total, bh / rho_h, hot_floor)
    cold_solo = max(totals.tc_total, bc / rho_c, cold_floor)
    if serial:
        return max(hot_solo, bh / bw) + max(cold_solo, bc / bw)
    makespan = _two_phase_makespan(
        hot_solo, cold_solo, bh, bc, rho_h, rho_c,
        arch.hot.count, arch.cold.count, bw,
    )
    return max(makespan, (bh + bc) / bw) + totals.t_merge


def contended_runtime_batch(
    arch: Architecture,
    th: np.ndarray,
    tc: np.ndarray,
    bh: np.ndarray,
    bc: np.ndarray,
    t_merge: np.ndarray,
    serial: bool,
    hot_floor: Optional[np.ndarray] = None,
    cold_floor: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized :func:`contended_runtime` over parallel total arrays."""
    if arch.pcie_bw_bytes_per_sec is None:
        return naive_runtime_batch(arch, th, tc, bh, bc, t_merge, serial)
    bw = arch.mem_bw_bytes_per_sec
    rho_h = effective_hot_bw(arch)
    rho_c = effective_cold_bw(arch)
    hot_solo = np.maximum(th, bh / rho_h)
    cold_solo = np.maximum(tc, bc / rho_c)
    if hot_floor is not None:
        hot_solo = np.maximum(hot_solo, hot_floor)
    if cold_floor is not None:
        cold_solo = np.maximum(cold_solo, cold_floor)
    if serial:
        return np.maximum(hot_solo, bh / bw) + np.maximum(cold_solo, bc / bw)

    with np.errstate(divide="ignore", invalid="ignore"):
        d_h = np.where(hot_solo > 0.0, bh / hot_solo, 0.0)
        d_c = np.where(cold_solo > 0.0, bc / cold_solo, 0.0)
        over = d_h + d_c > bw
        # Water-fill grants for the contended rows (harmless elsewhere).
        n_h = max(arch.hot.count, 1)
        n_c = max(arch.cold.count, 1)
        cap_h = d_h / n_h
        cap_c = d_c / n_c
        level = bw / (n_h + n_c)
        uniform = level <= np.minimum(cap_h, cap_c)
        hot_smaller = cap_h <= cap_c
        a_h = np.where(
            uniform, n_h * level, np.where(hot_smaller, d_h, np.minimum(d_h, bw - d_c))
        )
        a_c = np.where(
            uniform, n_c * level, np.where(hot_smaller, np.minimum(d_c, bw - d_h), d_c)
        )
        finish_h = np.where(a_h > 0.0, bh / a_h, 0.0)
        finish_c = np.where(a_c > 0.0, bc / a_c, 0.0)
        hot_first = finish_h <= finish_c
        survivor = np.where(
            hot_first,
            np.maximum(cold_solo, finish_h + (bc - a_c * finish_h) / rho_c),
            np.maximum(hot_solo, finish_c + (bh - a_h * finish_c) / rho_h),
        )
    makespan = np.where(over, survivor, np.maximum(hot_solo, cold_solo))
    return np.maximum(makespan, (bh + bc) / bw) + t_merge
