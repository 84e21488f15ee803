"""Exact differential test: the synthetic generators against the frozen
oracle in ``reference_generators.py``.

Every generator must return the oracle's matrix byte for byte -- shape,
value dtype, the bytes of ``rows``/``cols``/``vals`` and the content
digest -- and reject bad parameters with the same exception and message.
Two intended differences: an unreachable density raised
``RuntimeError`` in the oracle and raises ``ValueError`` now (so the plan
service answers 400), with the same message; and the oracle's cell key
``row * n_rows * n_cols + col`` can wrap int64 once ``n_rows**2 * n_cols``
exceeds 2**63 (over 2**21 rows for a square matrix), merging distinct cells,
so the generators agree only below that size (every matrix the
repository builds; see ``test_generators.TestSampleUnique``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import generators
from repro.sparse.generators import _quadrant
from tests.sparse import reference_generators as reference
from tests.sparse import reference_matrix


def outcome(module, name, kwargs):
    try:
        return getattr(module, name)(**kwargs)
    except Exception as exc:  # noqa: BLE001 -- compared below
        return exc


def assert_identical(name, **kwargs):
    got = outcome(generators, name, kwargs)
    want = outcome(reference, name, kwargs)
    if isinstance(want, Exception):
        assert isinstance(got, Exception), (name, kwargs, want)
        assert str(got) == str(want), (name, kwargs)
        if isinstance(want, RuntimeError):
            assert type(got) is ValueError, (name, kwargs, got)
        else:
            assert type(got) is type(want), (name, kwargs, got)
        return
    assert not isinstance(got, Exception), (name, kwargs, got)
    assert got.shape == want.shape, (name, kwargs)
    assert got.vals.dtype == want.vals.dtype, (name, kwargs)
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, kwargs, field)
    assert got.content_digest() == want.content_digest(), (name, kwargs)


@st.composite
def rmat_params(draw):
    scale = draw(st.integers(1, 6))
    cells = 1 << (2 * scale)
    # Densities up to full capacity: the skewed ones are often unreachable,
    # which exercises the error path as well as the top-up rounds.
    nnz = draw(st.one_of(st.integers(0, cells), st.integers(max(0, cells - 8), cells)))
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.floats(0.0, 1.0 - a))
    if draw(st.booleans()):
        c = 1.0 - a - b  # d = 0, up to rounding (which may make it negative)
    else:
        c = draw(st.floats(0.0, 1.0 - a - b))
    return {
        "scale": scale,
        "nnz": nnz,
        "a": a,
        "b": b,
        "c": c,
        "seed": draw(st.integers(0, 2**16)),
        "symmetrize": draw(st.booleans()),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
    }


@settings(max_examples=150, deadline=None)
@given(kwargs=rmat_params())
def test_rmat_fuzz_matches_reference(kwargs):
    assert_identical("rmat", **kwargs)


#: The R-MAT requests the serve-plans benchmark sends on seed 1: its eight
#: read-set plans and the cold plans of one run.
SERVE_PLANS_SEEDS = list(range(1000, 1008)) + list(range(1100, 1164))


@pytest.mark.parametrize("seed", SERVE_PLANS_SEEDS)
def test_serve_plans_rmat_matches_reference(seed):
    assert_identical("rmat", scale=11, nnz=60_000, seed=seed)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("rmat", dict(scale=10, nnz=8_000, seed=42)),
        ("rmat", dict(scale=9, nnz=20_000, a=0.65, b=0.125, c=0.125, seed=3, symmetrize=True)),
        ("rmat", dict(scale=12, nnz=50_000, seed=103, dtype=np.float64)),
        ("uniform_random", dict(n_rows=1024, n_cols=1024, nnz=8_000, seed=42)),
        ("uniform_random", dict(n_rows=37, n_cols=300, nnz=5_000, seed=1)),
        ("uniform_random", dict(n_rows=10, n_cols=10, nnz=100, seed=0)),
        ("banded", dict(n=1024, nnz=10_000, bandwidth=24, seed=42)),
        ("banded", dict(n=4096, nnz=60_000, bandwidth=64, scatter_fraction=0.12, seed=102)),
        ("banded", dict(n=2048, nnz=30_000, bandwidth=8, scatter_fraction=1.0, seed=5)),
        ("community_blocks", dict(n=2000, nnz=40_000, n_communities=12, seed=4)),
        ("community_blocks", dict(n=666, nnz=20_000, n_communities=48, intra_fraction=0.85,
                                  seed=2)),
        ("community_blocks", dict(n=500, nnz=3_000, n_communities=500, intra_fraction=1.0,
                                  size_skew=3.0, seed=9)),
        ("dense_blocks", dict(n=1408, nnz=25_000, n_blocks=12, block_size=176,
                              background_fraction=0.12, seed=1)),
        ("dense_blocks", dict(n=300, nnz=20_000, n_blocks=2, block_size=100,
                              background_fraction=0.0, seed=6, dtype=np.float64)),
    ],
)
def test_generators_match_reference(name, kwargs):
    assert_identical(name, **kwargs)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("rmat", dict(scale=4, nnz=0)),
        ("uniform_random", dict(n_rows=7, n_cols=3, nnz=0)),
        ("banded", dict(n=16, nnz=0, bandwidth=2, scatter_fraction=0.5)),
        ("community_blocks", dict(n=16, nnz=0, n_communities=3)),
        ("dense_blocks", dict(n=16, nnz=0, n_blocks=2, block_size=4)),
        ("uniform_random", dict(n_rows=1, n_cols=1, nnz=0)),
        ("uniform_random", dict(n_rows=1, n_cols=1, nnz=1, seed=3)),
        ("banded", dict(n=1, nnz=1, bandwidth=1)),
        ("community_blocks", dict(n=1, nnz=1, n_communities=1)),
        ("dense_blocks", dict(n=1, nnz=1, n_blocks=1, block_size=1)),
        ("rmat", dict(scale=1, nnz=4, a=0.25, b=0.25, c=0.25, seed=2)),
    ],
)
def test_degenerate_shapes_match_reference(name, kwargs):
    assert_identical(name, **kwargs)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("rmat", dict(scale=8, nnz=60_000, seed=1)),  # unreachable density
        ("rmat", dict(scale=3, nnz=60, a=0.7, b=0.1, c=0.1, seed=0)),  # unreachable density
        ("rmat", dict(scale=0, nnz=5)),
        ("rmat", dict(scale=8, nnz=70_000)),
        ("rmat", dict(scale=8, nnz=500, a=0.9, b=0.2, c=0.2)),
        ("rmat", dict(scale=8, nnz=-1)),
        ("uniform_random", dict(n_rows=0, n_cols=10, nnz=5)),
        ("banded", dict(n=64, nnz=10, bandwidth=0)),
        ("banded", dict(n=64, nnz=10, bandwidth=2, scatter_fraction=1.5)),
        ("community_blocks", dict(n=64, nnz=10, n_communities=65)),
        ("community_blocks", dict(n=64, nnz=10, n_communities=4, intra_fraction=-0.1)),
        ("dense_blocks", dict(n=64, nnz=10, n_blocks=1, block_size=65)),
        ("dense_blocks", dict(n=64, nnz=10, n_blocks=1, block_size=8, background_fraction=2.0)),
    ],
)
def test_rejections_match_reference(name, kwargs):
    assert_identical(name, **kwargs)


class TestQuadrantBoundaries:
    """Random draws never land on an edge, so pin ``u >= edge`` there."""

    @pytest.mark.parametrize(
        "abc",
        [
            (0.57, 0.19, 0.19),
            (0.25, 0.25, 0.25),
            (0.5, 0.0, 0.5),
            (0.01, 0.33, 0.37),
            (1.0, 0.0, 0.0),
        ],
    )
    def test_edges_match_searchsorted(self, abc):
        a, b, c = abc
        cum = np.cumsum([a, b, c, 1.0 - a - b - c])
        u = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0]])
        want = np.searchsorted(cum, u, side="right")
        np.testing.assert_array_equal(_quadrant(cum, u), want)

    def test_last_edge_rounded_below_one_is_quadrant_four(self):
        cum = np.cumsum([0.01, 0.33, 0.37, 1.0 - 0.01 - 0.33 - 0.37])
        assert cum[-1] == 0.9999999999999999
        u = np.array([0.9999999999999999])
        assert np.searchsorted(cum, u, side="right")[0] == 4
        assert _quadrant(cum, u)[0] == 4


# ----------------------------------------------------------------------
# Against the frozen argsort sampler (``reference_matrix.py``), whose cell
# keys do not wrap, so it judges shapes past 2**21 rows as well.
# ----------------------------------------------------------------------
def assert_same_matrix(got, want):
    assert got.shape == want.shape
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.content_digest() == want.content_digest()


def _last_edge(a, b, c):
    return float(np.cumsum([a, b, c, 1.0 - a - b - c])[-1])


@pytest.mark.parametrize(
    "kwargs,last_edge",
    [
        # The default probabilities: the last edge is exactly 1.0, which no
        # draw from [0, 1) reaches, so the draw skips it.
        (dict(scale=10, nnz=8_000, seed=11), "one"),
        (dict(scale=7, nnz=4_000, a=0.45, b=0.15, c=0.15, seed=12, symmetrize=True), "one"),
        # Rounding leaves the last edge below 1.0: quadrant 4 carries.
        (dict(scale=8, nnz=3_000, a=0.01, b=0.33, c=0.37, seed=13), "below"),
        (dict(scale=7, nnz=1_500, a=0.01, b=0.33, c=0.37, seed=14, dtype=np.float64), "below"),
        # A zero probability: two equal edges.
        (dict(scale=9, nnz=6_000, a=0.6, b=0.0, c=0.25, seed=15), "one"),
        (dict(scale=9, nnz=6_000, a=0.6, b=0.2, c=0.0, seed=16), "one"),
        (dict(scale=5, nnz=20, a=0.5, b=0.0, c=0.5, seed=17), "one"),  # column 0 only
    ],
)
def test_rmat_edge_cases_match_both_oracles(kwargs, last_edge):
    a, b, c = (kwargs.get(p, d) for p, d in (("a", 0.57), ("b", 0.19), ("c", 0.19)))
    edge = _last_edge(a, b, c)
    assert (edge == 1.0) if last_edge == "one" else (edge < 1.0)
    assert_same_matrix(generators.rmat(**kwargs), reference_matrix.rmat(**kwargs))
    assert_identical("rmat", **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # int32 accumulators end at scale 29, int64 ones start at 30.
        dict(scale=29, nnz=3_000, seed=21),
        dict(scale=29, nnz=2_000, a=0.01, b=0.33, c=0.37, seed=22, dtype=np.float64),
        dict(scale=30, nnz=3_000, seed=23),
        dict(scale=30, nnz=2_000, a=0.01, b=0.33, c=0.37, seed=24, symmetrize=True),
    ],
)
def test_rmat_at_the_accumulator_bound_matches_frozen(kwargs):
    got = generators.rmat(**kwargs)
    if not kwargs.get("symmetrize"):
        assert got.nnz == kwargs["nnz"]
    assert int(got.rows.max()) >= 1 << (kwargs["scale"] - 1)
    assert_same_matrix(got, reference_matrix.rmat(**kwargs))


def _pool_draw(base_row, base_col, seed, rounds=None):
    """A stub draw: ``k`` cells from a 6 x 6 block at (base_row, base_col),
    drawn with replacement so every round has duplicates to drop.  Each
    call appends to ``rounds`` when given."""
    rng = np.random.default_rng(seed)

    def draw(k):
        if rounds is not None:
            rounds.append(k)
        return base_row + rng.integers(0, 6, k), base_col + rng.integers(0, 6, k)

    return draw


@pytest.mark.parametrize(
    "base_row,packed",
    [
        # Keys near 2**62: past 2**(63 - b) for every round's b, so each
        # round takes the argsort.
        ((1 << 31) - 6, False),
        (1 << 30, False),
        # Keys below 2**57 (b <= 6 here): every round packs.
        ((1 << 26) - 6, True),
        (0, True),
    ],
)
@pytest.mark.parametrize("nnz", [1, 20, 36])
def test_sample_unique_large_keys_match_frozen(monkeypatch, base_row, packed, nnz):
    n_cols = 1 << 31
    argsorts = []
    real_argsort = np.argsort

    def spy(*args, **kwargs):
        argsorts.append(1)
        return real_argsort(*args, **kwargs)

    rounds = []
    monkeypatch.setattr(np, "argsort", spy)
    got = generators._sample_unique(_pool_draw(base_row, n_cols - 6, nnz, rounds), nnz, n_cols)
    monkeypatch.undo()
    assert len(argsorts) == (0 if packed else len(rounds))
    want = reference_matrix._sample_unique(_pool_draw(base_row, n_cols - 6, nnz), nnz, n_cols)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[0].shape == (nnz,)


def test_sample_unique_unreachable_matches_frozen():
    """A pool of 36 cells cannot give 37: the same error after the same
    rounds."""
    with pytest.raises(ValueError) as got:
        generators._sample_unique(_pool_draw(1 << 30, 0, 5), 37, 1 << 31, max_rounds=6)
    with pytest.raises(ValueError) as want:
        reference_matrix._sample_unique(_pool_draw(1 << 30, 0, 5), 37, 1 << 31, max_rounds=6)
    assert str(got.value) == str(want.value)
