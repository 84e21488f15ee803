"""Property-based invariants of the incremental fluid engine.

Three families, promised by the docstrings in :mod:`repro.sim.memory`
and pinned here with Hypothesis:

- conservation: the integral of the piecewise-constant bandwidth profile
  equals the bytes the plans drain (plus the merge pass at full
  bandwidth, when one runs),
- causality: every instance completes inside ``[0, makespan]``,
- memoization transparency: :class:`~repro.sim.memory.RateAllocator`
  returns bit-identical rates to a fresh
  :func:`~repro.sim.memory.allocate_rates` call for every demand mask,
  with and without a PCIe resource.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.configs import spade_sextans, spade_sextans_pcie
from repro.core.partition import ExecutionMode
from repro.sim.engine import _run_fluid, simulate
from repro.sim.memory import RateAllocator, allocate_rates
from repro.sim.worker_sim import build_plans
from repro.sparse import generators
from repro.sparse.tiling import TiledMatrix

ARCH = spade_sextans(4)
ARCH_PCIE = spade_sextans_pcie(4)


def _profile_integral(profile):
    """Bytes under a piecewise-constant (interval end, bytes/s) series."""
    total, prev = 0.0, 0.0
    for t, bw in profile:
        total += (t - prev) * bw
        prev = t
    return total


@st.composite
def sim_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    kind = draw(st.sampled_from(["rmat", "uniform", "banded"]))
    nnz = draw(st.integers(min_value=50, max_value=3_000))
    if kind == "rmat":
        matrix = generators.rmat(scale=8, nnz=nnz, seed=seed)
    elif kind == "uniform":
        matrix = generators.uniform_random(256, 256, nnz, seed=seed)
    else:
        matrix = generators.banded(256, nnz, bandwidth=16, seed=seed)
    frac = draw(st.floats(min_value=0.0, max_value=1.0))
    mode = draw(st.sampled_from([ExecutionMode.PARALLEL, ExecutionMode.SERIAL]))
    arch = draw(st.sampled_from([ARCH, ARCH_PCIE]))
    return matrix, frac, mode, arch, seed


def _assignment(tiled, frac, seed):
    rng = np.random.default_rng(seed)
    return rng.random(tiled.n_tiles) < frac


@settings(max_examples=25, deadline=None)
@given(case=sim_cases())
def test_bandwidth_profile_integral_equals_bytes_drained(case):
    """Every byte a plan drains shows up under the profile, exactly once."""
    matrix, frac, mode, arch, seed = case
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled, frac, seed)

    result = simulate(arch, tiled, assignment, mode)
    # SimResult.bytes_total excludes the merge pass; the profile includes
    # it as one interval at full memory bandwidth.
    merge_bytes = result.merge_time_s * arch.mem_bw_bytes_per_sec
    assert _profile_integral(result.bandwidth_profile) == pytest.approx(
        result.bytes_total + merge_bytes, rel=1e-9, abs=1e-6
    )


@settings(max_examples=25, deadline=None)
@given(case=sim_cases())
def test_completions_within_makespan(case):
    matrix, frac, mode, arch, seed = case
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled, frac, seed)

    hot_plans, cold_plans = build_plans(arch, tiled, assignment)
    plans = hot_plans + cold_plans
    makespan, completions, profile = _run_fluid(arch, plans)

    assert np.all(completions >= 0.0)
    assert np.all(completions <= makespan + 1e-12)
    # The raw fluid run (no merge) conserves bytes too.
    assert _profile_integral(profile) == pytest.approx(
        sum(p.bytes_total for p in plans), rel=1e-9, abs=1e-6
    )


def test_empty_plan_list():
    """A group with no instances (either side of a serial run may be
    empty) finishes at 0 with no completions and no profile."""
    makespan, completions, profile = _run_fluid(ARCH, [])
    assert makespan == 0.0
    assert completions.shape == (0,)
    assert profile == ()


@st.composite
def allocator_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    max_rates = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    bw = draw(st.floats(min_value=1.0, max_value=300.0, allow_nan=False))
    with_pcie = draw(st.booleans())
    pcie_members = None
    pcie_bw = None
    if with_pcie:
        pcie_members = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        pcie_bw = draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    masks = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
    return max_rates, bw, pcie_members, pcie_bw, masks


@settings(max_examples=150, deadline=None)
@given(case=allocator_cases())
def test_rate_allocator_memoization_is_transparent(case):
    """Memoized rates are bit-identical to a fresh water-filling, on the
    first query and on repeats, with and without the PCIe resource."""
    max_rates, bw, pcie_members, pcie_bw, masks = case
    allocator = RateAllocator(max_rates, bw, pcie_members, pcie_bw)

    for mask_list in masks + masks:  # second pass exercises memo hits
        demand = np.array(mask_list, dtype=bool)
        rates = allocator.rates(demand)
        fresh = allocate_rates(
            np.where(demand, max_rates, 0.0), bw, pcie_members, pcie_bw
        )
        assert np.array_equal(rates, fresh)  # exact, not approx
        total = allocator.rates_for_key(allocator.mask_key(demand))[1]
        assert total == float(fresh.sum())
