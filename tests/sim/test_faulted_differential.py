"""Exact differential test: fault injection in the one fluid event loop
against the frozen pre-merge degraded loop in ``reference_faulted.py``.

``simulate(..., faults=schedule)`` must return the very ``SimResult`` the
separate degraded loop returned -- makespan, group stats, bandwidth
profile and ``FaultSummary`` compared with ``==``, no tolerances --
or raise the same :class:`~repro.faults.errors.SimFault`.  Covered:
seeded random schedules with all three event kinds on every
architecture and mode, hand-built unsurvivable schedules, and degenerate
matrices and assignments, with and without a schedule.  At loop level,
``_run_fluid`` must match the frozen loop's every completion time on
synthetic plans, including phases at the engine's epsilon.  A last test
guards the backend dispatch: faulted runs must never reach the native
kernel, which has no fault hooks.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core.partition import ExecutionMode
from repro.faults.errors import SimFault
from repro.faults.schedule import (
    BandwidthWindow,
    FaultSchedule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.sim import _native
from repro.sim import backend as sim_backend
from repro.sim._reference import simulate_reference
from repro.sim.engine import _FaultTally, _instance_labels, _run_fluid, simulate
from repro.sim.worker_sim import InstancePlan
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from tests.sim.reference_faulted import (
    _FaultState,
    _run_fluid_faulted,
    simulate_faulted,
)

ARCHS = {"spade": spade_sextans(4), "pcie": spade_sextans_pcie(4), "piuma": piuma()}
MODES = [ExecutionMode.PARALLEL, ExecutionMode.SERIAL]


def _outcome(fn):
    """The result, or the identity of the ``SimFault`` raised instead."""
    try:
        return fn()
    except SimFault as exc:
        return ("SimFault", exc.kind, exc.t_s, exc.instance)


def assert_matches_oracle(arch, tiled, assignment, mode, schedule):
    got = _outcome(lambda: simulate(arch, tiled, assignment, mode, faults=schedule))
    want = _outcome(
        lambda: simulate_faulted(arch, tiled, assignment, mode, None, schedule)
    )
    assert got == want
    return got


@st.composite
def fault_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    nnz = draw(st.integers(min_value=1, max_value=3_000))
    if draw(st.booleans()):
        matrix = generators.rmat(scale=8, nnz=nnz, seed=seed)
    else:
        matrix = generators.uniform_random(256, 256, nnz, seed=seed)
    arch = ARCHS[draw(st.sampled_from(sorted(ARCHS)))]
    mode = draw(st.sampled_from(MODES))
    frac = draw(st.floats(min_value=0.0, max_value=1.0))
    rates = [draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(3)]
    return matrix, arch, mode, frac, seed, rates


@settings(max_examples=150, deadline=None)
@given(case=fault_cases())
def test_random_schedules_match_frozen_degraded_loop(case):
    matrix, arch, mode, frac, seed, (f_rate, s_rate, b_rate) = case
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = np.random.default_rng(seed).random(tiled.n_tiles) < frac
    base = simulate(arch, tiled, assignment, mode)
    schedule = FaultSchedule.random(
        seed=seed,
        horizon_s=max(base.time_s, 1e-9),
        hot_instances=arch.hot.count,
        cold_instances=arch.cold.count,
        failure_rate=f_rate,
        slowdown_rate=s_rate,
        bandwidth_rate=b_rate,
    )
    if schedule.empty:
        assert simulate(arch, tiled, assignment, mode, faults=schedule) == base
        return
    assert_matches_oracle(arch, tiled, assignment, mode, schedule)


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
@pytest.mark.parametrize("mode", MODES)
def test_slowdowns_stack_and_restart_match(arch_name, mode):
    # Repeated slowdowns of one instance, a factor-1 slowdown, a slowed
    # instance that fails (its nominal compute moves to the heir), and
    # overlapping bandwidth windows.
    arch = ARCHS[arch_name]
    matrix = generators.rmat(scale=9, nnz=4_000, seed=3)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = np.random.default_rng(3).random(tiled.n_tiles) < 0.4
    horizon = simulate(arch, tiled, assignment, mode).time_s
    kind = "cold"
    events = [
        WorkerSlowdown(t_s=0.0, kind=kind, index=0, factor=2.0),
        WorkerSlowdown(t_s=0.2 * horizon, kind=kind, index=0, factor=3.5),
        WorkerSlowdown(t_s=0.1 * horizon, kind=kind, index=1, factor=1.0),
        WorkerSlowdown(t_s=0.3 * horizon, kind=kind, index=1, factor=5.0),
        WorkerFailure(t_s=0.5 * horizon, kind=kind, index=1),
        WorkerSlowdown(t_s=0.6 * horizon, kind="hot", index=0, factor=2.5),
        BandwidthWindow(t_start_s=0.05 * horizon, t_end_s=0.7 * horizon, factor=0.5),
        BandwidthWindow(t_start_s=0.4 * horizon, t_end_s=0.9 * horizon, factor=0.6),
    ]
    result = assert_matches_oracle(arch, tiled, assignment, mode, FaultSchedule(events))
    assert result.faults.slowdowns >= 4
    assert result.faults.failures == 1


def _plan(traits, chunk_phases):
    """An instance plan whose chunk ``k`` runs the phases ``chunk_phases[k]``
    (each chunk: 1 nonzero, 1 byte, panel ``k``)."""
    phases = [p for chunk in chunk_phases for p in chunk]
    n = len(chunk_phases)
    return InstancePlan(
        kind=traits.kind,
        traits=traits,
        phase_c=np.array([c for c, _ in phases], dtype=np.float64),
        phase_b=np.array([b for _, b in phases], dtype=np.float64),
        chunk_phase_off=np.cumsum([0] + [len(c) for c in chunk_phases]),
        chunk_panel=np.arange(n),
        chunk_nnz=np.ones(n, dtype=np.int64),
        chunk_bytes=np.ones(n),
        nnz_total=1,
        flops_total=1.0,
        bytes_total=1.0,
    )


_PHASE_C = st.sampled_from([0.0, 4e-19, 1e-18]) | st.floats(1e-7, 1e-4)
_PHASE_B = st.sampled_from([0.0, 7e-19]) | st.floats(1e2, 1e5)


@st.composite
def plan_cases(draw):
    """Hand-made instance plans: phases at, below and above the engine's
    epsilon, a run offset as in serial mode's cold run, and a schedule
    whose events may also target instances without a plan."""
    arch = ARCHS[draw(st.sampled_from(sorted(ARCHS)))]
    groups = []
    for group in (arch.hot, arch.cold):
        plans = []
        for _ in range(draw(st.integers(0, group.count))):
            chunks = [
                draw(st.lists(st.tuples(_PHASE_C, _PHASE_B), max_size=4))
                for _ in range(draw(st.integers(0, 3)))
            ]
            plans.append(_plan(group.traits, chunks))
        groups.append(plans)
    t_offset = draw(st.sampled_from([0.0, 3e-5]) | st.floats(1e-9, 1e-3))
    horizon = 4e-4
    targets = st.tuples(st.sampled_from(["hot", "cold"]), st.integers(0, 3))
    events = []
    for kind, index in draw(st.lists(targets, max_size=4)):
        t_s = draw(st.floats(0.0, horizon))
        if draw(st.booleans()):
            events.append(WorkerFailure(t_s=t_s, kind=kind, index=index))
        else:
            factor = draw(st.sampled_from([1.0, 4.0]) | st.floats(1.0, 8.0))
            events.append(WorkerSlowdown(t_s, kind, index, factor))
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(0.0, horizon))
        end = start + draw(st.floats(1e-7, horizon))
        events.append(BandwidthWindow(start, end, draw(st.floats(0.05, 1.0))))
    return arch, groups, t_offset, FaultSchedule(events)


def assert_loop_matches(arch, hot, cold, t_offset, schedule):
    """``_run_fluid`` vs the frozen loop: makespan, every completion time,
    the profile and the fault counters."""
    plans = hot + cold
    labels = _instance_labels(hot, cold)
    tally = _FaultTally(schedule)
    got = _outcome(
        lambda: _run_fluid(arch, plans, None, labels, t_offset, faults=tally)
    )
    state = _FaultState()
    want = _outcome(
        lambda: _run_fluid_faulted(arch, plans, schedule, labels, state, None, t_offset)
    )
    if want[0] == "SimFault":
        assert got == want
        return
    assert got[0] == want[0]
    assert got[1].tolist() == want[1].tolist()
    assert got[2] == want[2]
    assert (tally.slowdowns, tally.failures, tally.reassigned, tally.failed) == (
        state.slowdowns, state.failures, state.reassigned, state.failed_labels
    )


@settings(max_examples=150, deadline=None)
@given(case=plan_cases())
def test_fluid_loop_matches_frozen_loop_on_synthetic_plans(case):
    arch, (hot, cold), t_offset, schedule = case
    if not schedule.empty:
        assert_loop_matches(arch, hot, cold, t_offset, schedule)


def _cold_plan(arch, *phases):
    return _plan(arch.cold.traits, [list(phases)])


def test_slowed_compute_at_the_epsilon_boundary():
    """Compute at or below the engine's epsilon counts as done, also when
    a slowdown would stretch it past epsilon."""
    arch = ARCHS["spade"]
    # A compute remainder the slowed update leaves in (eps / 3, eps].
    c = next(
        c for c in np.linspace(1e-3, 1e-2, 20001).tolist()
        if 1e-18 / 3 < c - (c * 3.0) / 3.0 <= 1e-18
    )
    slow = FaultSchedule([WorkerSlowdown(t_s=0.0, kind="cold", index=0, factor=3.0)])
    assert_loop_matches(arch, [], [_cold_plan(arch, (c, 0.0))], 0.0, slow)
    # Compute below epsilon, slowed 4x past it: in the phase current at
    # the slowdown, and in one loaded while the instance is slowed.
    slow = FaultSchedule([WorkerSlowdown(t_s=0.0, kind="cold", index=0, factor=4.0)])
    assert_loop_matches(arch, [], [_cold_plan(arch, (4e-19, 1e4))], 0.0, slow)
    plan = _cold_plan(arch, (1e-5, 0.0), (4e-19, 1e4))
    assert_loop_matches(arch, [], [plan], 0.0, slow)


def test_failed_instance_completes_at_its_failure_in_run_time():
    """Behind a serial hot span, the dead instance's completion time is
    ``(t + t_offset) - t_offset``, which need not equal ``t``."""
    arch = ARCHS["spade"]
    cold = [_cold_plan(arch, (1e-4, 1e5)), _cold_plan(arch, (1e-4, 1e5))]
    schedule = FaultSchedule([WorkerFailure(t_s=0.1 + 3e-5, kind="cold", index=1)])
    assert_loop_matches(arch, [], cold, 0.1, schedule)


def _all_fail(kind, times):
    return FaultSchedule(
        [WorkerFailure(t_s=t, kind=kind, index=i) for i, t in enumerate(times)]
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "arch_name, kind, frac",
    [("spade", "cold", 0.0), ("piuma", "cold", 0.0), ("piuma", "hot", 1.0),
     ("spade", "hot", 1.0), ("pcie", "cold", 0.3)],
)
@pytest.mark.parametrize("staggered", [False, True], ids=["at-once", "staggered"])
def test_unsurvivable_schedules_raise_the_same_simfault(
    arch_name, kind, frac, mode, staggered
):
    arch = ARCHS[arch_name]
    matrix = generators.rmat(scale=9, nnz=4_000, seed=8)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = np.random.default_rng(8).random(tiled.n_tiles) < frac
    count = arch.hot.count if kind == "hot" else arch.cold.count
    base = simulate(arch, tiled, assignment, mode)
    if staggered:  # the last survivor dies mid-run, holding inherited work
        times = [base.time_s * (0.1 + 0.4 * i / count) for i in range(count)]
    else:
        times = [1e-9] * count
    outcome = assert_matches_oracle(
        arch, tiled, assignment, mode, _all_fail(kind, times)
    )
    assert outcome[:2] == ("SimFault", kind)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------
def _matrix(n_rows, n_cols, rows, cols):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.ones(len(rows), dtype=np.float32)
    return SparseMatrix(n_rows, n_cols, rows, cols, vals)


def _dense_tile():
    r, c = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
    return _matrix(256, 256, r.ravel(), c.ravel())


DEGENERATE = {
    "0x0": lambda: _matrix(0, 0, [], []),
    "empty-64x64": lambda: _matrix(64, 64, [], []),
    "one-nonzero": lambda: _matrix(64, 64, [5], [7]),
    "one-dense-tile": _dense_tile,
    "one-row": lambda: _matrix(512, 512, [3] * 256, range(0, 512, 2)),
}


def _degenerate_schedule(arch, horizon, kind):
    # Everything aimed at ``kind``: slow it, squeeze bandwidth, and kill
    # all but one of its instances (the survivor inherits the work).
    count = arch.hot.count if kind == "hot" else arch.cold.count
    horizon = max(horizon, 1e-9)
    events = [
        WorkerSlowdown(t_s=0.0, kind=kind, index=0, factor=3.0),
        BandwidthWindow(t_start_s=0.0, t_end_s=0.5 * horizon, factor=0.5),
    ]
    events += [
        WorkerFailure(t_s=0.3 * horizon, kind=kind, index=i) for i in range(1, count)
    ]
    return FaultSchedule(events)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arch_name", ["spade", "piuma"])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0], ids=["all-cold", "half", "all-hot"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs(name, frac, arch_name, mode):
    arch = ARCHS[arch_name]
    tiled = TiledMatrix(DEGENERATE[name](), arch.tile_height, arch.tile_width)
    assignment = np.arange(tiled.n_tiles) < round(frac * tiled.n_tiles)
    clean = simulate(arch, tiled, assignment, mode)
    assert clean == simulate_reference(arch, tiled, assignment, mode)
    for kind in ("hot", "cold"):
        schedule = _degenerate_schedule(arch, clean.time_s, kind)
        assert_matches_oracle(arch, tiled, assignment, mode, schedule)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("idle", ["hot", "cold"])
def test_faults_aimed_at_a_group_with_zero_tiles(idle, mode):
    arch = ARCHS["piuma"]
    tiled = TiledMatrix(
        generators.rmat(scale=9, nnz=3_000, seed=4), arch.tile_height, arch.tile_width
    )
    assignment = np.full(tiled.n_tiles, idle == "cold")
    clean = simulate(arch, tiled, assignment, mode)
    count = arch.hot.count if idle == "hot" else arch.cold.count
    # Killing every instance of the idle group is harmless: it has no plans.
    schedule = FaultSchedule(
        [WorkerFailure(t_s=0.0, kind=idle, index=i) for i in range(count)]
        + [WorkerSlowdown(t_s=0.0, kind=idle, index=0, factor=4.0)]
    )
    result = assert_matches_oracle(arch, tiled, assignment, mode, schedule)
    assert result.faults.failures == result.faults.slowdowns == 0
    assert result.time_s == clean.time_s


# ----------------------------------------------------------------------
# Backend dispatch
# ----------------------------------------------------------------------
def test_faulted_runs_never_take_the_native_kernel(monkeypatch):
    """A native dispatch of a faulted run would silently drop every fault."""
    arch = ARCHS["pcie"]
    tiled = TiledMatrix(
        generators.rmat(scale=9, nnz=4_000, seed=6), arch.tile_height, arch.tile_width
    )
    assignment = np.random.default_rng(6).random(tiled.n_tiles) < 0.3
    schedule = FaultSchedule(
        [
            WorkerFailure(t_s=1e-7, kind="cold", index=2),
            WorkerSlowdown(t_s=0.0, kind="cold", index=0, factor=3.0),
            BandwidthWindow(t_start_s=0.0, t_end_s=1e-5, factor=0.5),
        ]
    )
    with sim_backend.use_backend("python"):
        want_faulted = simulate(arch, tiled, assignment, faults=schedule)
        want_clean = simulate(arch, tiled, assignment)

    calls = []
    kernel = functools.partial(_native.run_fluid, jit=False)

    def fake_native_fluid():
        def run(arch, plans):
            calls.append(len(plans))
            return kernel(arch, plans)

        return run

    monkeypatch.setattr(sim_backend, "native_fluid", fake_native_fluid)
    faulted = simulate(arch, tiled, assignment, faults=schedule)
    assert calls == []
    assert faulted.faults is not None and faulted.faults.failures == 1
    assert faulted == want_faulted
    # The stub is live: a clean run does go through it.
    assert simulate(arch, tiled, assignment) == want_clean
    assert calls
