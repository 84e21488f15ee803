"""Lineage heads, digest chains, registry resolution, and the delta API."""

import dataclasses
import gc
import json
import threading
import types

import numpy as np
import pytest

from repro.core.partition import HotTilesPartitioner
from repro.experiments.cache import stable_digest
from repro.service.httpd import make_server
from repro.service.planner import PlanService, ServiceClosed
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch
from repro.streaming.lineage import (
    LineageRegistry,
    MatrixLineage,
    StaleDigestError,
    UnknownLineageError,
)

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
DELTA = {
    "insert_rows": [0, 1],
    "insert_cols": [0, 1],
    "insert_vals": [1.5, 2.5],
    "delete_rows": [],
    "delete_cols": [],
}


def make_lineage(matrix, arch, digest="a" * 64):
    partitioner = HotTilesPartitioner(arch)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    return MatrixLineage(digest, tiled, partitioner)


class TestMatrixLineage:
    def test_digest_chain_is_verifiable(self, small_rmat, spade_sextans_arch):
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        head = lineage.head_digest
        for seed in (0, 1):
            delta = DeltaBatch.random(
                lineage.matrix, inserts=30, deletes=20, seed=seed
            )
            update = lineage.apply(delta)
            expected = stable_digest(("delta-plan", head, delta.content_digest()))
            assert update.prev_digest == head
            assert update.new_digest == expected
            head = update.new_digest
        assert lineage.head_digest == head
        assert lineage.root_digest == "a" * 64
        assert lineage.deltas_applied == 2

    def test_empty_batch_is_noop(self, small_rmat, spade_sextans_arch):
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        before = lineage.head_digest
        update = lineage.apply(DeltaBatch())
        assert update.new_digest == update.prev_digest == before
        assert update.repair.tiles_repaired == 0
        assert lineage.deltas_applied == 0
        assert lineage.head_digest == before

    def test_stale_expect_head_rejected(self, small_rmat, spade_sextans_arch):
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        old_head = lineage.head_digest
        delta = DeltaBatch.random(lineage.matrix, inserts=20, deletes=0, seed=0)
        lineage.apply(delta, expect_head=old_head)
        with pytest.raises(StaleDigestError) as excinfo:
            lineage.apply(delta, expect_head=old_head)
        assert excinfo.value.digest == old_head
        assert excinfo.value.head_digest == lineage.head_digest

    def test_apply_keeps_tiling_consistent(self, small_rmat, spade_sextans_arch):
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        delta = DeltaBatch.random(lineage.matrix, inserts=40, deletes=25, seed=3)
        update = lineage.apply(delta)
        assert update.nnz == lineage.matrix.nnz
        assert update.n_tiles == lineage.cache.n_tiles
        assert 0.0 <= update.hot_nnz_fraction <= 1.0
        np.testing.assert_array_equal(
            lineage.result.chosen.assignment, update.partition.chosen.assignment
        )


def _reachable(root):
    """Every object reachable from ``root`` through instance state.

    Classes, modules and code are not followed: they are shared program
    state, not something the lineage holds.
    """
    shared = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType, types.CodeType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _buffers(arrays):
    """The distinct memory owners behind ``arrays`` (views resolved)."""
    owners = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array
    return list(owners.values())


def _assert_same_candidate(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, field.name


class TestWhatALineageHolds:
    """A lineage keeps the head matrix and cost table, never a tiling."""

    @pytest.mark.parametrize("n_deltas", [0, 2], ids=["fresh", "after-two-deltas"])
    def test_holds_no_tiling(self, tmp_path, n_deltas):
        request = PlanRequest.from_dict(
            {"generator": {"kind": "rmat", "scale": 11, "nnz": 60_000, "seed": 0}}
        )
        head_matrix = request.resolve_matrix()
        with PlanService(store=PlanStore(tmp_path / "plans"), workers=1) as svc:
            base, _ = svc.plan(request)
            head = base.digest
            for seed in range(n_deltas):
                delta = DeltaBatch.random(head_matrix, inserts=200, deletes=100, seed=seed)
                head = svc.apply_delta(head, delta)[1].new_digest
                head_matrix = head_matrix.apply_delta(delta)
            lineage = svc.lineages.resolve(head)
            held = _reachable(lineage)
            assert not [obj for obj in held if isinstance(obj, TiledMatrix)]
            held_bytes = sum(
                b.nbytes for b in _buffers(o for o in held if isinstance(o, np.ndarray))
            )
            plans = [lineage.result.chosen, *lineage.result.candidates.values()]
            allowed = [
                head_matrix.rows, head_matrix.cols, head_matrix.vals,
                head_matrix.indptr(), lineage.cache.tile_keys,
                *lineage.cache.table.values(), *(p.assignment for p in plans),
            ]
            bound = sum(b.nbytes for b in _buffers(allowed))
            assert held_bytes <= bound

    def test_empty_batch_answers_the_current_head(
        self, small_rmat, spade_sextans_arch
    ):
        # An empty batch answers from what the lineage holds; each answer
        # must match tiling and partitioning the head matrix from scratch,
        # at the root and after deltas that add and empty a tile.
        arch = spade_sextans_arch
        th, tw = arch.tile_height, arch.tile_width
        lineage = make_lineage(small_rmat, arch)
        expected = small_rmat

        def check_head():
            update = lineage.apply(DeltaBatch())
            assert update.new_digest == update.prev_digest == lineage.head_digest
            assert lineage.matrix == expected
            tiled = TiledMatrix(lineage.matrix, th, tw)
            scratch = HotTilesPartitioner(arch).partition(tiled)
            assert update.nnz == tiled.matrix.nnz
            assert update.n_tiles == tiled.n_tiles
            assert update.hot_nnz_fraction == scratch.chosen.hot_nnz_fraction(tiled)
            _assert_same_candidate(update.partition.chosen, scratch.chosen)

        def apply(delta):
            nonlocal expected
            expected = expected.apply_delta(delta)
            return lineage.apply(delta)

        check_head()
        # 1: one nonzero in a tile that holds none.
        grid = TiledMatrix(expected, th, tw).density_map()
        empty_row, empty_col = (int(i[0]) for i in np.nonzero(grid == 0))
        update = apply(DeltaBatch(
            insert_rows=[empty_row * th], insert_cols=[empty_col * tw],
            insert_vals=[1.0],
        ))
        assert update.repair.new_tiles == 1
        assert update.report.tiles_after == update.report.tiles_before + 1
        check_head()
        # 2: random churn.
        apply(DeltaBatch.random(expected, inserts=40, deletes=25, seed=5))
        # 3: delete every nonzero of the sparsest tile.
        tiled = TiledMatrix(expected, th, tw)
        sparsest = int(np.argmin(tiled.stats.nnz))
        in_tile = (
            (expected.rows // th == tiled.stats.tile_row[sparsest])
            & (expected.cols // tw == tiled.stats.tile_col[sparsest])
        )
        update = apply(DeltaBatch(
            delete_rows=expected.rows[in_tile], delete_cols=expected.cols[in_tile]
        ))
        assert update.repair.dropped_tiles == 1
        assert update.report.tiles_after == update.report.tiles_before - 1
        check_head()
        assert lineage.deltas_applied == 3


class TestLineageRegistry:
    def test_resolves_any_carried_digest(self, small_rmat, spade_sextans_arch):
        registry = LineageRegistry()
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        registry.register(lineage)
        root = lineage.root_digest
        delta = DeltaBatch.random(lineage.matrix, inserts=20, deletes=10, seed=0)
        update = registry.apply(root, delta)
        # Both the root and the advanced head resolve to the same lineage.
        assert registry.resolve(root) is lineage
        assert registry.resolve(update.new_digest) is lineage
        assert root in registry and update.new_digest in registry

    def test_apply_at_superseded_head_is_stale(self, small_rmat, spade_sextans_arch):
        registry = LineageRegistry()
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        registry.register(lineage)
        root = lineage.root_digest
        delta = DeltaBatch.random(lineage.matrix, inserts=20, deletes=10, seed=1)
        registry.apply(root, delta)
        with pytest.raises(StaleDigestError) as excinfo:
            registry.apply(root, delta)
        assert excinfo.value.head_digest == lineage.head_digest

    def test_unknown_digest_raises(self):
        registry = LineageRegistry()
        with pytest.raises(UnknownLineageError):
            registry.resolve("f" * 64)
        with pytest.raises(UnknownLineageError):
            registry.apply("f" * 64, DeltaBatch())

    def test_lru_eviction_drops_aliases(self, small_rmat, spade_sextans_arch):
        registry = LineageRegistry(max_lineages=2)
        lineages = [
            make_lineage(small_rmat, spade_sextans_arch, digest=ch * 64)
            for ch in "abc"
        ]
        for lineage in lineages:
            registry.register(lineage)
        assert len(registry) == 2
        assert "a" * 64 not in registry
        with pytest.raises(UnknownLineageError):
            registry.resolve("a" * 64)
        assert registry.resolve("b" * 64) is lineages[1]

    def test_register_is_idempotent(self, small_rmat, spade_sextans_arch):
        registry = LineageRegistry()
        lineage = make_lineage(small_rmat, spade_sextans_arch)
        registry.register(lineage)
        registry.register(lineage)
        assert len(registry) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LineageRegistry(max_lineages=0)


class TestServiceApplyDelta:
    @pytest.fixture
    def service(self, tmp_path):
        svc = PlanService(
            store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8
        )
        yield svc
        svc.close()

    def test_delta_publishes_new_plan(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        result, update = service.apply_delta(base.digest, DELTA)
        assert result.digest == update.new_digest != base.digest
        assert result.nnz == update.nnz
        # The repaired plan is durable and content-addressed.
        assert service.store.get(result.digest) == result
        stats = service.stats()
        assert stats["counters"]["deltas_applied"] == 1
        assert stats["counters"]["tiles_repaired"] == update.repair.tiles_repaired
        assert stats["lineages"] == 1
        assert "delta_apply_s" in stats["histograms"]

    def test_chained_deltas_chain_digests(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        first, update1 = service.apply_delta(base.digest, DELTA)
        second_delta = {"delete_rows": [0], "delete_cols": [0]}
        second, update2 = service.apply_delta(first.digest, second_delta)
        assert update2.prev_digest == first.digest
        assert second.digest == update2.new_digest
        assert service.store.get(second.digest) == second

    def test_empty_delta_is_noop(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        result, update = service.apply_delta(base.digest, {})
        assert result.digest == base.digest
        assert update.new_digest == update.prev_digest
        assert service.stats()["counters"].get("deltas_applied", 0) == 0

    def test_stale_digest_maps_through(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        service.apply_delta(base.digest, DELTA)
        with pytest.raises(StaleDigestError):
            service.apply_delta(base.digest, DELTA)

    def test_unknown_digest_maps_through(self, service):
        with pytest.raises(UnknownLineageError):
            service.apply_delta("0" * 64, DELTA)

    def test_closed_service_rejects(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "plans"))
        base, _ = svc.plan(PlanRequest.from_dict(RMAT))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.apply_delta(base.digest, DELTA)


class TestHttpDeltaEndpoint:
    @pytest.fixture
    def live_server(self, tmp_path):
        service = PlanService(
            store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        yield base, service
        server.shutdown()
        server.server_close()
        service.close()

    @staticmethod
    def http(base, path, payload=None, timeout=30.0):
        import urllib.error
        import urllib.request

        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            base + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_post_delta_then_fetch_repaired_plan(self, live_server):
        base, _ = live_server
        _, body = self.http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        status, resp = self.http(base, f"/matrices/{digest}/delta", DELTA)
        assert status == 200
        applied = resp["applied"]
        assert applied["prev_digest"] == digest
        assert applied["new_digest"] == resp["plan"]["digest"]
        assert applied["nnz"] == resp["plan"]["nnz"]
        # The repaired plan is now addressable like any other.
        status2, got = self.http(base, "/plan/" + resp["plan"]["digest"])
        assert status2 == 200
        assert got["plan"]["digest"] == resp["plan"]["digest"]

    def test_superseded_head_is_409_with_pointer(self, live_server):
        base, _ = live_server
        _, body = self.http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        _, first = self.http(base, f"/matrices/{digest}/delta", DELTA)
        status, resp = self.http(base, f"/matrices/{digest}/delta", DELTA)
        assert status == 409
        assert resp["head_digest"] == first["applied"]["new_digest"]

    def test_unknown_matrix_is_404(self, live_server):
        base, _ = live_server
        status, resp = self.http(base, "/matrices/" + "0" * 64 + "/delta", DELTA)
        assert status == 404
        assert "no registered matrix lineage" in resp["error"]

    def test_malformed_delta_is_400(self, live_server):
        base, _ = live_server
        _, body = self.http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        status, _ = self.http(
            base, f"/matrices/{digest}/delta", {"insert_rows": "nope"}
        )
        assert status == 400

    def test_non_hex_digest_is_400(self, live_server):
        base, _ = live_server
        status, _ = self.http(base, "/matrices/not-a-digest/delta", DELTA)
        assert status == 400

    def test_stats_track_delta_counters(self, live_server):
        base, _ = live_server
        _, body = self.http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        self.http(base, f"/matrices/{digest}/delta", DELTA)
        status, stats = self.http(base, "/stats")
        assert status == 200
        assert stats["counters"]["deltas_applied"] == 1
        assert stats["counters"]["tiles_repaired"] >= 0
        assert stats["lineages"] == 1

    def test_chain_stale_root_and_empty_batch(self, live_server):
        # Three chained deltas, the superseded root answered with 409 and
        # the live head, then an empty batch answered from the head facts
        # the lineage holds: same digest, same nnz and tile count.
        base, _ = live_server
        generator = {"kind": "rmat", "scale": 9, "nnz": 6000, "seed": 0}
        _, body = self.http(base, "/plan", {"generator": generator})
        root = head = body["plan"]["digest"]
        for step in range(3):
            delta = {
                "insert_rows": [step, step + 1],
                "insert_cols": [0, step],
                "insert_vals": [1.5, -2.0],
            }
            status, resp = self.http(base, f"/matrices/{head}/delta", delta)
            assert status == 200, resp
            assert resp["applied"]["prev_digest"] == head
            head = resp["applied"]["new_digest"]
            assert resp["plan"]["digest"] == head
        last = resp["applied"]
        status, resp = self.http(
            base, f"/matrices/{root}/delta", {"delete_rows": [0], "delete_cols": [0]}
        )
        assert status == 409
        assert resp["head_digest"] == head
        empty = dict.fromkeys(DELTA, [])
        status, resp = self.http(base, f"/matrices/{head}/delta", empty)
        assert status == 200, resp
        applied = resp["applied"]
        assert applied["prev_digest"] == applied["new_digest"] == head
        assert (applied["nnz"], applied["n_tiles"]) == (last["nnz"], last["n_tiles"])
        _, stats = self.http(base, "/stats")
        assert stats["counters"]["deltas_applied"] == 3
        assert stats["lineages"] == 1
