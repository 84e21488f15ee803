"""Compiled backend for the simulator's two hottest loops.

This package hosts the native twins of ``engine._run_fluid`` (the fluid
event core) and ``cache.windowed_lru_misses`` (the windowed-LRU miss
kernel).  The kernel *sources* live in :mod:`repro.sim._native.kernels`
as plain njit-compatible Python; :mod:`repro.sim._native.compiled` JIT
compiles those same function objects when numba is present.  Selection
between the compiled and pure-Python engines is the job of
:mod:`repro.sim.backend` (``HOTTILES_BACKEND={auto,python,native}``) --
this package only provides the mechanics.

Bit-identity contract: every result produced here -- makespan,
completion times, bandwidth profile, miss masks -- is exactly equal (no
tolerances) to the pure-Python engine and therefore to the frozen
reference in :mod:`repro.sim._reference`.  The fluid wrapper gets every
max-min fair allocation from the *same* memoized
:class:`repro.sim.memory.RateAllocator` the Python engine uses (the
kernel bounces back with ``NEED_ALLOC`` on a new demand set), and the
kernels mirror the engine's scalar arithmetic operation for operation.
Pinned by ``tests/sim/test_native_backend.py`` over the full
differential matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.traits import WorkerKind
from repro.sim._native import kernels
from repro.sim._native.compiled import (  # noqa: F401  (re-export)
    compiled_kernels,
    numba_available,
    numba_version,
)
from repro.sim.memory import RateAllocator

__all__ = [
    "run_fluid",
    "lru_misses",
    "numba_available",
    "numba_version",
    "DENSE_ID_LIMIT",
]

_EPS = 1e-18  # must match engine._EPS / _reference._EPS

#: Largest row id the dense ``last_seen`` table will be allocated for
#: (128 MB of int64 at the limit).  Sequences with larger ids fall back
#: to the vectorized numpy path in :mod:`repro.sim.cache`.
DENSE_ID_LIMIT = (1 << 24) - 1

#: Initial capacity of the allocation memo arrays; doubled on demand.
#: Distinct demand sets per run number a handful (see ``RateAllocator``).
_MEMO_INITIAL = 8


def _select(name: str, jit: bool):
    """The jitted kernel when requested (and available), else the source."""
    if jit:
        return compiled_kernels()[name]
    return getattr(kernels, name)


def run_fluid(
    arch, plans, *, jit: bool = True
) -> Tuple[float, np.ndarray, Tuple[Tuple[float, float], ...]]:
    """Native twin of ``engine._run_fluid`` (untraced, fault-free runs only).

    Concatenates the instance plans' phase arrays, drives the
    :func:`repro.sim._native.kernels.fluid_steps` step machine, and
    services its ``NEED_ALLOC`` bounces through the real
    :class:`RateAllocator`.  Returns ``(makespan, completions,
    bandwidth_profile)`` with exactly the types and values the Python
    engine produces.  ``jit=False`` runs the uncompiled kernel source --
    the differential tests use it to pin the kernel logic on machines
    without numba.
    """
    n = len(plans)
    completions = np.zeros(n, dtype=np.float64)
    if n == 0:
        return 0.0, completions, ()

    # Instance-major flat phase arrays (all phases, including empty ones,
    # so the iteration budget matches the engine's formula exactly).
    phase_c = np.concatenate([p.phase_c for p in plans])
    phase_b = np.concatenate([p.phase_b for p in plans])
    phase_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([p.phase_c.shape[0] for p in plans], out=phase_off[1:])
    total_phases = int(phase_off[-1])

    max_rates = np.array([p.traits.mem_rate_bytes_per_sec() for p in plans])
    pcie_mask = None
    if arch.pcie_bw_bytes_per_sec is not None:
        pcie_mask = np.array([p.kind is WorkerKind.HOT for p in plans], dtype=bool)
    allocator = RateAllocator(
        max_rates, arch.mem_bw_bytes_per_sec, pcie_mask, arch.pcie_bw_bytes_per_sec
    )

    phase_idx = phase_off[:-1].copy()
    c_rem = np.zeros(n, dtype=np.float64)
    b_rem = np.zeros(n, dtype=np.float64)
    done = np.zeros(n, dtype=np.bool_)
    demand = np.zeros(n, dtype=np.bool_)
    n_active = 0
    for i in range(n):
        if kernels.load_phase(
            phase_c, phase_b, phase_off, phase_idx, c_rem, b_rem, _EPS, i
        ):
            n_active += 1
            if b_rem[i] > _EPS:
                demand[i] = True
        else:
            done[i] = True  # instance scheduled with no work

    max_iters = 4 * total_phases + 4 * n + 16
    f_state = np.zeros(1, dtype=np.float64)
    # [n_active, iters, n_profile, standing memo row (-1: none), memo rows]
    counts = np.array([n_active, 0, 0, -1, 0], dtype=np.int64)
    profile_t = np.zeros(max_iters, dtype=np.float64)
    profile_bw = np.zeros(max_iters, dtype=np.float64)
    need_mask = np.zeros(n, dtype=np.bool_)
    memo_masks = np.zeros((_MEMO_INITIAL, n), dtype=np.bool_)
    memo_rates = np.zeros((_MEMO_INITIAL, n), dtype=np.float64)
    memo_sums = np.zeros(_MEMO_INITIAL, dtype=np.float64)

    step = _select("fluid_steps", jit)
    while True:
        status = step(
            phase_c, phase_b, phase_off, _EPS, max_iters,
            f_state, phase_idx, c_rem, b_rem, done, demand,
            completions, counts,
            memo_masks, memo_rates, memo_sums,
            profile_t, profile_bw, need_mask,
        )
        if status == kernels.DONE:
            break
        if status == kernels.NEED_ALLOC:
            rates, rates_sum = allocator.rates_for_key(
                allocator.mask_key(need_mask)
            )
            m = int(counts[4])
            if m == memo_masks.shape[0]:
                grow = m * 2
                memo_masks = np.vstack(
                    [memo_masks, np.zeros((grow - m, n), dtype=np.bool_)]
                )
                memo_rates = np.vstack(
                    [memo_rates, np.zeros((grow - m, n), dtype=np.float64)]
                )
                memo_sums = np.concatenate(
                    [memo_sums, np.zeros(grow - m, dtype=np.float64)]
                )
            memo_masks[m] = need_mask
            memo_rates[m] = rates
            memo_sums[m] = rates_sum
            counts[4] = m + 1
            continue
        if status == kernels.STALLED:
            raise RuntimeError("fluid engine stalled: active work but no progress")
        raise RuntimeError("fluid engine exceeded its iteration budget")

    t = float(f_state[0])
    k = int(counts[2])
    profile = tuple(zip(profile_t[:k].tolist(), profile_bw[:k].tolist()))
    return t, completions, profile


def lru_misses(
    ids64: np.ndarray, capacity_rows: int, max_id: int, *, jit: bool = True
) -> np.ndarray:
    """Native O(n) twin of the windowed-LRU miss computation.

    ``ids64`` must be non-negative int64 ids with ``ids64.max() ==
    max_id``; callers guard ``max_id <= DENSE_ID_LIMIT`` and the
    ``capacity_rows <= 0`` / empty cases.  Returns the boolean miss mask
    (identical to the sorted implementations in :mod:`repro.sim.cache`
    -- the window rule is pure integer logic).
    """
    misses = np.ones(ids64.shape[0], dtype=bool)
    last_seen = np.full(max_id + 1, -1, dtype=np.int64)
    scan = _select("lru_scan", jit)
    scan(ids64, capacity_rows, last_seen, misses)
    return misses
