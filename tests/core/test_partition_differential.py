"""Exact differential test: the one-search partitioner against the frozen
pre-refactor partitioner in ``reference_partition.py``.

``repro.core.partition`` scores every candidate from one per-tile cost
table (maximum-reuse and first-of-type variants per worker type), and
``partition``, ``repair_plan`` and ``exhaustive_partition`` share one
search over it.  The frozen version re-ran the model with each
candidate's real first-of-type masks and kept a second copy of the
search for repair.  Because the model works per tile, element by
element, both must agree exactly: every comparison here is ``==`` on
floats and byte-equality on arrays, no tolerances.

Covered: the chosen plan and every candidate (label, mode, assignment
bytes and dtype, predicted and naive times, scorer, totals, split),
every cut the block split probes, winning or not (against the frozen
one-cut ``_score_split``, on the conftest matrices and the skew-heavy
one), ``predicted_runtime`` on every candidate assignment,
``predict_homogeneous``, ``exhaustive_partition`` on tilings of at most
12 tiles, the ``plan_cache_from`` arrays, and three-step ``repair_plan``
chains.
Inputs: a hypothesis fuzz over R-MAT, uniform and banded matrices, a
block-split case, and the degenerate matrices (0x0, empty, one nonzero,
one dense row, one dense column, one tile), each on six architectures and
under both ``contention_aware`` settings.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core import partition as new
from repro.core.traits import WorkerKind
from repro.experiments.fidelity import skew_heavy_matrix
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_tiled
from repro.streaming.delta import DeltaBatch
from tests.core import reference_partition as ref
from tests.core.test_partition import tiny_arch
from tests.core.test_partition_random_traits import random_architectures

ARCHS = {
    "spade-sextans": spade_sextans(4),
    "spade-sextans-pcie": spade_sextans_pcie(4),
    "piuma": piuma(),
    "tiny-no-hot": tiny_arch(n_hot=0),
    "tiny-no-cold": tiny_arch(n_cold=0),
    "tiny-atomic": tiny_arch(atomic=True),
}
CONTENTION_AWARE = [False, True]
EXHAUSTIVE_MAX_TILES = 12
REPAIR_STEPS = 3


def _empty(n_rows, n_cols):
    return SparseMatrix(n_rows, n_cols, np.zeros(0, int), np.zeros(0, int))


DEGENERATE = {
    "0x0": lambda: _empty(0, 0),
    "empty-64": lambda: _empty(64, 64),
    "one-nonzero": lambda: SparseMatrix(64, 64, [5], [7]),
    "one-row": lambda: SparseMatrix(64, 64, [3] * 32, list(range(0, 64, 2))),
    # Tiles narrower than they are high: the hot worker's first-tile Dout
    # stream then outgrows its Din stream, the only way the paper's hot
    # workers' time depends on the first-of-type flag.
    "one-column": lambda: SparseMatrix(256, 1, list(range(0, 256, 2)), [0] * 128),
    "one-tile": lambda: SparseMatrix(4, 4, [0, 1, 1, 2, 3], [0, 1, 3, 2, 3]),
}


def _ref_mode(mode):
    return ref.ExecutionMode(mode.value)


def assert_same_result(got, want):
    """One ``PartitionResult`` against the frozen one, field by field."""
    assert got.label == want.label
    assert got.mode.value == want.mode.value
    assert got.assignment.dtype == want.assignment.dtype
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.predicted_time_s == want.predicted_time_s
    assert got.naive_time_s == want.naive_time_s
    assert got.scorer == want.scorer
    assert dataclasses.asdict(got.totals) == dataclasses.asdict(want.totals)
    if want.split is None:
        assert got.split is None
    else:
        assert dataclasses.asdict(got.split) == dataclasses.asdict(want.split)


def assert_same_search(got, want):
    assert_same_result(got.chosen, want.chosen)
    assert [h.value for h in got.candidates] == [h.value for h in want.candidates]
    for heuristic, result in got.candidates.items():
        assert_same_result(result, want.candidates[ref.Heuristic(heuristic.value)])


def assert_same_cache(got, want):
    assert got.tile_keys.dtype == want.tile_keys.dtype
    assert got.tile_keys.tobytes() == want.tile_keys.tobytes()
    assert list(got.table) == list(new._TABLE_NAMES)
    for name in new._TABLE_NAMES:
        got_arr, want_arr = got.table[name], getattr(want, name)
        assert got_arr.dtype == want_arr.dtype
        assert got_arr.tobytes() == want_arr.tobytes()


def _outcome(fn):
    """``fn()`` with any totals as plain values, or the error it raised.

    Asking for a group of zero workers to run tiles divides by zero in
    both versions; that has to stay the same too.
    """
    try:
        out = fn()
    except ZeroDivisionError as exc:
        return "ZeroDivisionError", str(exc)
    if isinstance(out, tuple):
        time_s, totals = out
        return time_s, dataclasses.asdict(totals)
    return out


def assert_same_predictions(got_p, want_p, tiled, assignments):
    for assignment in assignments:
        for mode in (new.ExecutionMode.PARALLEL, new.ExecutionMode.SERIAL):
            got = _outcome(lambda: got_p.predicted_runtime(tiled, assignment, mode))
            want = _outcome(
                lambda: want_p.predicted_runtime(tiled, assignment, _ref_mode(mode))
            )
            assert got == want
    for kind in (WorkerKind.HOT, WorkerKind.COLD):
        got = _outcome(lambda: got_p.predict_homogeneous(tiled, kind))
        assert got == _outcome(lambda: want_p.predict_homogeneous(tiled, kind))


def check_everything(matrix, arch, contention_aware, seed=0):
    """Every comparison the module docstring lists, on one input."""
    got_p = new.HotTilesPartitioner(arch, contention_aware=contention_aware)
    want_p = ref.HotTilesPartitioner(arch, contention_aware=contention_aware)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)

    got, want = got_p.partition(tiled), want_p.partition(tiled)
    assert_same_search(got, want)

    rng = np.random.default_rng(seed)
    assignments = [r.assignment for r in got.candidates.values()] + [
        got.chosen.assignment,
        rng.random(tiled.n_tiles) < 0.5,
    ]
    assert_same_predictions(got_p, want_p, tiled, assignments)

    if tiled.n_tiles <= EXHAUSTIVE_MAX_TILES:
        assert_same_result(
            new.exhaustive_partition(got_p, tiled, max_tiles=EXHAUSTIVE_MAX_TILES),
            ref.exhaustive_partition(want_p, tiled, max_tiles=EXHAUSTIVE_MAX_TILES),
        )

    got_cache = new.plan_cache_from(got_p, tiled)
    want_cache = ref.plan_cache_from(want_p, tiled, want)
    assert_same_cache(got_cache, want_cache)
    for step in range(REPAIR_STEPS):
        m = tiled.matrix
        inserts = 12 if m.n_rows and m.n_cols else 0
        delta = DeltaBatch.random(
            m, inserts=inserts, deletes=min(8, m.nnz), seed=seed * 7 + step
        )
        tiled, report = apply_delta_tiled(tiled, delta)
        got_out = new.repair_plan(got_p, tiled, got_cache, report.dirty_tile_keys)
        want_out = ref.repair_plan(want_p, tiled, want_cache, report.dirty_tile_keys)
        assert_same_search(got_out.result, want_out.result)
        assert dataclasses.asdict(got_out.stats) == dataclasses.asdict(want_out.stats)
        assert_same_cache(got_out.cache, want_out.cache)
        got_cache, want_cache = got_out.cache, want_out.cache


@st.composite
def fuzz_cases(draw):
    kind = draw(st.sampled_from(["rmat", "uniform", "banded"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scale = draw(st.integers(min_value=3, max_value=9))
    n = 1 << scale
    nnz = draw(st.integers(min_value=1, max_value=min(n * n // 8, 2_500)))
    if kind == "rmat":
        matrix = generators.rmat(scale=scale, nnz=nnz, seed=seed)
    elif kind == "uniform":
        matrix = generators.uniform_random(n, n, nnz, seed=seed)
    else:
        # Keep the density reachable inside the band.
        bandwidth = draw(st.integers(min_value=1, max_value=32))
        nnz = max(1, min(nnz, n * bandwidth // 4))
        matrix = generators.banded(n, nnz, bandwidth=bandwidth, seed=seed)
    arch = draw(st.sampled_from(sorted(ARCHS)))
    contention_aware = draw(st.sampled_from(CONTENTION_AWARE))
    return matrix, arch, contention_aware, seed


@given(fuzz_cases())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_fuzz_matches_frozen_partitioner(case):
    matrix, arch, contention_aware, seed = case
    check_everything(matrix, ARCHS[arch], contention_aware, seed)


@given(
    random_architectures(),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from(CONTENTION_AWARE),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_random_traits(arch, nnz, seed, contention_aware):
    # On the paper's machines a hot tile's time depends on its
    # first-of-type flag only in tiles narrower than they are high;
    # random traits make every table column matter on ordinary tiles.
    matrix = generators.uniform_random(48, 48, nnz, seed=seed)
    check_everything(matrix, arch, contention_aware, seed=seed)


@pytest.mark.parametrize("contention_aware", CONTENTION_AWARE)
@pytest.mark.parametrize("arch", sorted(ARCHS))
@pytest.mark.parametrize("matrix", sorted(DEGENERATE))
def test_degenerate_inputs(matrix, arch, contention_aware):
    check_everything(DEGENERATE[matrix](), ARCHS[arch], contention_aware)


@pytest.fixture(scope="module")
def skew():
    return skew_heavy_matrix()


@pytest.mark.parametrize("contention_aware", CONTENTION_AWARE)
@pytest.mark.parametrize("arch", ["piuma", "spade-sextans-pcie"])
def test_block_split_case(skew, arch, contention_aware):
    # The committed skew-heavy matrix makes a block split win, so the
    # split fields and its scoring are compared with a real split set.
    tiled = TiledMatrix(skew, ARCHS[arch].tile_height, ARCHS[arch].tile_width)
    chosen = new.HotTilesPartitioner(
        ARCHS[arch], contention_aware=contention_aware
    ).partition(tiled).chosen
    assert chosen.split is not None
    check_everything(skew, ARCHS[arch], contention_aware, seed=3)


PROBE_ARCHS = ["spade-sextans", "spade-sextans-pcie", "piuma"]
PROBE_MATRICES = [
    "small_rmat", "small_banded", "small_mycielskian", "small_dense_blocks",
    "small_community", "skew",
]


@pytest.mark.parametrize("contention_aware", CONTENTION_AWARE)
@pytest.mark.parametrize("arch", PROBE_ARCHS)
@pytest.mark.parametrize("matrix", PROBE_MATRICES)
def test_every_probed_cut_matches_frozen_split_scorer(
    request, monkeypatch, matrix, arch, contention_aware
):
    # A probe's score reaches a partition only when its split wins.  Here
    # every cut the block split probes, winning or not, is scored by the
    # shared-table scorer and by the frozen one-cut scorer, and the two
    # candidates must agree field by field.  Both versions must also probe
    # the same tile at the same cuts.
    arch = ARCHS[arch]
    tiled = TiledMatrix(
        request.getfixturevalue(matrix), arch.tile_height, arch.tile_width
    )
    got_p = new.HotTilesPartitioner(arch, contention_aware=contention_aware)
    want_p = ref.HotTilesPartitioner(arch, contention_aware=contention_aware)
    probed, want_probed = [], []
    score_splits, score_split = new._score_splits, ref._score_split

    def recording(partitioner, tiled_, table, assignment, tile, cuts):
        results = score_splits(partitioner, tiled_, table, assignment, tile, cuts)
        probed.append((table, assignment, tile, list(cuts), results))
        return results

    def want_recording(partitioner, tiled_, table, assignment, tile, cut):
        want_probed.append((tile, cut))
        return score_split(partitioner, tiled_, table, assignment, tile, cut)

    monkeypatch.setattr(new, "_score_splits", recording)
    monkeypatch.setattr(ref, "_score_split", want_recording)
    got_p.partition(tiled)
    want_p.partition(tiled)
    [(table, assignment, tile, cuts, results)] = probed
    assert [(tile, cut) for cut in cuts] == want_probed
    assert len(results) == len(cuts) > 0
    for cut, got in zip(cuts, results):
        assert_same_result(
            got, score_split(want_p, tiled, table, assignment, tile, cut)
        )


def test_partition_models_four_arrays_per_tiling(monkeypatch, small_rmat):
    # Four model calls over the tiling: the cost table, nothing per
    # candidate.  The block split's probes share one table of their parts:
    # at most four more calls, each with two rows per probed cut.
    arch = ARCHS["spade-sextans"]
    partitioner = new.HotTilesPartitioner(arch)
    tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
    sizes = []
    real = partitioner.model.tile_costs

    def counting(tiled_like, traits, first_mask=None):
        sizes.append(tiled_like.stats.n_tiles)
        return real(tiled_like, traits, first_mask=first_mask)

    monkeypatch.setattr(partitioner.model, "tile_costs", counting)
    partitioner.partition(tiled)
    assert sizes[:4] == [tiled.n_tiles] * 4
    parts = sizes[4:]
    assert len(parts) <= 4
    assert all(size > 0 and size % 2 == 0 for size in parts)
