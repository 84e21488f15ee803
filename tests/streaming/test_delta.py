"""DeltaBatch canonicalization, wire form, and seeded generators."""

import numpy as np
import pytest

from repro.streaming.apply import apply_delta_matrix
from repro.streaming.delta import DeltaBatch, delta_stream


class TestCanonicalization:
    def test_inserts_sorted_row_major(self):
        batch = DeltaBatch(
            insert_rows=[2, 0, 1], insert_cols=[0, 5, 3], insert_vals=[1.0, 2.0, 3.0]
        )
        assert batch.insert_rows.tolist() == [0, 1, 2]
        assert batch.insert_cols.tolist() == [5, 3, 0]
        assert batch.insert_vals.tolist() == [2.0, 3.0, 1.0]

    def test_duplicate_insert_cells_last_wins(self):
        batch = DeltaBatch(
            insert_rows=[1, 0, 1], insert_cols=[2, 0, 2], insert_vals=[5.0, 1.0, 9.0]
        )
        assert batch.n_inserts == 2
        idx = batch.insert_rows.tolist().index(1)
        assert batch.insert_vals[idx] == 9.0

    def test_duplicate_delete_cells_collapse(self):
        batch = DeltaBatch(delete_rows=[3, 3, 1], delete_cols=[4, 4, 1])
        assert batch.n_deletes == 2
        assert batch.delete_rows.tolist() == [1, 3]

    def test_arrays_frozen(self):
        batch = DeltaBatch(insert_rows=[0], insert_cols=[0], insert_vals=[1.0])
        with pytest.raises(ValueError):
            batch.insert_vals[0] = 2.0

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            DeltaBatch(delete_rows=[-1], delete_cols=[0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DeltaBatch(insert_rows=[0, 1], insert_cols=[0], insert_vals=[1.0, 2.0])

    def test_empty_batch(self):
        batch = DeltaBatch()
        assert batch.is_empty
        assert len(batch) == 0

    def test_validate_against_range(self):
        batch = DeltaBatch(insert_rows=[10], insert_cols=[0], insert_vals=[1.0])
        batch.validate_against(11, 1)
        with pytest.raises(ValueError):
            batch.validate_against(10, 1)


class TestWireForm:
    def test_round_trip_preserves_digest(self):
        batch = DeltaBatch(
            insert_rows=[0, 2], insert_cols=[1, 3], insert_vals=[1.5, -2.0],
            delete_rows=[4], delete_cols=[4],
        )
        again = DeltaBatch.from_dict(batch.to_dict())
        assert again.content_digest() == batch.content_digest()

    def test_digest_reflects_content(self):
        a = DeltaBatch(insert_rows=[0], insert_cols=[0], insert_vals=[1.0])
        b = DeltaBatch(insert_rows=[0], insert_cols=[0], insert_vals=[2.0])
        assert a.content_digest() != b.content_digest()
        # Canonicalization makes permuted input digest-identical.
        c = DeltaBatch(
            insert_rows=[1, 0], insert_cols=[1, 0], insert_vals=[2.0, 1.0]
        )
        d = DeltaBatch(
            insert_rows=[0, 1], insert_cols=[0, 1], insert_vals=[1.0, 2.0]
        )
        assert c.content_digest() == d.content_digest()

    @pytest.mark.parametrize(
        "payload",
        [
            {"bogus": []},
            {"insert_rows": "nope"},
            {"insert_rows": [0], "insert_cols": [0], "insert_vals": ["x"]},
            {"insert_rows": [True], "insert_cols": [0], "insert_vals": [1.0]},
            {"insert_rows": [0.5], "insert_cols": [0], "insert_vals": [1.0]},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(ValueError):
            DeltaBatch.from_dict(payload)

    def test_missing_fields_default_empty(self):
        assert DeltaBatch.from_dict({}).is_empty


class TestGenerators:
    def test_random_is_seed_deterministic(self, small_rmat):
        a = DeltaBatch.random(small_rmat, inserts=50, deletes=30, seed=7)
        b = DeltaBatch.random(small_rmat, inserts=50, deletes=30, seed=7)
        assert a.content_digest() == b.content_digest()
        c = DeltaBatch.random(small_rmat, inserts=50, deletes=30, seed=8)
        assert c.content_digest() != a.content_digest()

    def test_random_deletes_hit_existing_nonzeros(self, small_rmat):
        batch = DeltaBatch.random(small_rmat, inserts=0, deletes=25, seed=1)
        existing = set(
            zip(small_rmat.rows.tolist(), small_rmat.cols.tolist())
        )
        for r, c in zip(batch.delete_rows.tolist(), batch.delete_cols.tolist()):
            assert (r, c) in existing

    def test_insert_region_respected(self, small_rmat):
        region = (100, 200, 300, 400)
        batch = DeltaBatch.random(
            small_rmat, inserts=40, deletes=0, seed=2, insert_region=region
        )
        assert batch.insert_rows.min() >= 100 and batch.insert_rows.max() < 200
        assert batch.insert_cols.min() >= 300 and batch.insert_cols.max() < 400

    @pytest.mark.parametrize(
        "region",
        # small_rmat is 1024 x 1024.
        [(0, 0, 0, 0), (200, 100, 300, 400), (0, 1025, 0, 10), (-1, 10, 0, 10)],
        ids=["empty", "inverted", "out-of-shape", "negative"],
    )
    def test_bad_insert_region_rejected(self, small_rmat, region):
        with pytest.raises(ValueError, match="bad insert_region"):
            DeltaBatch.random(
                small_rmat, inserts=5, deletes=0, seed=2, insert_region=region
            )

    def test_delta_stream_chains_matrices(self, small_rmat):
        states = list(delta_stream(small_rmat, steps=3, inserts=20, deletes=10, seed=0))
        assert len(states) == 3
        current = small_rmat
        for batch, after in states:
            merged, info = apply_delta_matrix(current, batch)
            assert after.content_digest() == merged.content_digest()
            # Every delete names a live nonzero; nnz moves by the brand-new
            # inserts minus the deletes.
            assert info.del_rows.size == batch.n_deletes
            assert after.nnz == current.nnz + info.ins_rows.size - info.del_rows.size
            current = after

    def test_delta_stream_is_reproducible(self, small_rmat):
        a = [m.content_digest() for _, m in delta_stream(small_rmat, 3, 20, 10, seed=5)]
        b = [m.content_digest() for _, m in delta_stream(small_rmat, 3, 20, 10, seed=5)]
        assert a == b
