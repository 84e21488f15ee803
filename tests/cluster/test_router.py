"""The cluster router in-process: routing, affinity, stats, HTTP parsing.

A real :class:`~repro.cluster.shard.ShardServer` runs on a thread beside
the router, so forwarding, relaying and stats merging are exercised over
the real frame IPC without spawning shard processes.  A "dead" shard is
an address nothing listens on.
"""

import asyncio
import hashlib
import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.cluster import router as router_module
from repro.cluster.router import DOWN_SHARD_RETRY_AFTER_S, ClusterRouter
from repro.cluster.shard import ShardServer
from repro.service.planner import PlanService
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore

DELTA = {
    "insert_rows": [0, 1],
    "insert_cols": [0, 1],
    "insert_vals": [1.5, 2.5],
    "delete_rows": [],
    "delete_cols": [],
}


def payload_for(seed):
    return {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}


def dead_address():
    """A loopback address that refuses connections."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "127.0.0.1", sock.getsockname()[1]


def call(router, method, path, payload=None):
    return asyncio.run(router.dispatch(method, path, payload))


def seed_owned_by(router, shard_id):
    """A payload seed whose plan digest the ring assigns to ``shard_id``."""
    for seed in range(256):
        digest = PlanRequest.from_dict(payload_for(seed)).digest()
        if router.ring.route(digest) == shard_id:
            return seed
    raise AssertionError(f"no seed routes to shard {shard_id}")


@pytest.fixture
def live_shard(tmp_path):
    service = PlanService(store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=8)
    server = ShardServer(0, service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join(10.0)
    server.server_close()
    service.close()


@pytest.fixture
def one_shard(live_shard):
    return ClusterRouter({0: ("127.0.0.1", live_shard.bound_port)})


@pytest.fixture
def live_and_dead(live_shard):
    """Shard 0 serves; shard 1 refuses connections."""
    return ClusterRouter(
        {0: ("127.0.0.1", live_shard.bound_port), 1: dead_address()}
    )


@pytest.fixture
def offline():
    """Two shards, neither reachable: for paths that never forward."""
    return ClusterRouter({0: dead_address(), 1: dead_address()})


class TestShardTable:
    def test_rejects_an_empty_shard_map(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ClusterRouter({})

    def test_table_lists_every_shard_up(self):
        router = ClusterRouter({1: ("127.0.0.1", 9001), 0: ("127.0.0.1", 9000)})
        assert router.shard_table() == [
            {"shard": 0, "host": "127.0.0.1", "port": 9000, "up": True},
            {"shard": 1, "host": "127.0.0.1", "port": 9001, "up": True},
        ]

    def test_update_shard_repoints_and_marks_up(self):
        router = ClusterRouter({0: ("127.0.0.1", 9000)})
        router.mark_down(0)
        assert router.shard_table()[0]["up"] is False
        router.update_shard(0, "127.0.0.2", 9100)
        assert router.shard_table() == [
            {"shard": 0, "host": "127.0.0.2", "port": 9100, "up": True}
        ]

    def test_update_of_an_unknown_shard_raises(self):
        router = ClusterRouter({0: ("127.0.0.1", 9000)})
        with pytest.raises(KeyError):
            router.update_shard(5, "127.0.0.1", 9005)


class TestLocalAnswers:
    """Paths the router answers itself, without contacting a shard."""

    def test_healthz_ok_while_any_shard_is_up(self, offline):
        offline.mark_down(1)
        status, body, _ = call(offline, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "shards_up": 1, "shards_total": 2}

    def test_healthz_503_when_every_shard_is_down(self, offline):
        offline.mark_down(0)
        offline.mark_down(1)
        status, body, _ = call(offline, "GET", "/healthz")
        assert status == 503
        assert body["shards_up"] == 0

    def test_trailing_slash_is_ignored(self, offline):
        status, _, _ = call(offline, "GET", "/healthz/")
        assert status == 200

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/"),
            ("GET", "/nope"),
            ("POST", "/stats"),
            ("GET", "/plan"),
            ("PUT", "/plan"),
            ("GET", "/matrices/ab/delta"),
        ],
    )
    def test_unknown_endpoint_is_404(self, offline, method, path):
        status, body, _ = call(offline, method, path, {} if method != "GET" else None)
        assert status == 404
        assert path in body["error"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            (None, "exactly one"),
            ({}, "exactly one"),
            ({"matrix": "pap", "bogus": 1}, "bogus"),
            ({"matrix": "pap", "tenant": "t0"}, "tenant"),
            ({"matrix": "pap", "tier": "gold"}, "tier"),
            ({"matrix": "pap", "deadline_s": 1.0}, "deadline_s"),
            ({"matrix": "pap", "scale": 0}, "scale"),
        ],
    )
    def test_bad_plan_request_is_400_before_routing(self, offline, payload, fragment):
        status, body, headers = call(offline, "POST", "/plan", payload)
        assert status == 400
        assert fragment in body["error"]
        assert "X-Hottiles-Shard" not in headers
        assert offline.counters["bad_request_400"] == 1
        # Validation happens before routing, so no shard was marked down.
        assert all(row["up"] for row in offline.shard_table())

    def test_routed_counts_every_dispatch(self, offline):
        for _ in range(3):
            call(offline, "GET", "/healthz")
        call(offline, "GET", "/nope")
        assert offline.counters["routed"] == 4


class TestUnavailableShard:
    def test_known_down_owner_answers_503_without_connecting(self, one_shard, live_shard):
        one_shard.mark_down(0)
        status, body, headers = call(one_shard, "POST", "/plan", payload_for(0))
        assert status == 503
        assert body["retry_after_s"] == DOWN_SHARD_RETRY_AFTER_S
        assert headers["Retry-After"] == f"{DOWN_SHARD_RETRY_AFTER_S:.3f}"
        assert headers["X-Hottiles-Shard"] == "0"
        counters = live_shard.service.metrics.snapshot()["counters"]
        assert counters["requests_accepted"] == 0
        assert one_shard.counters["unavailable_503"] == 1

    def test_refused_connection_marks_the_owner_down(self, live_and_dead):
        seed = seed_owned_by(live_and_dead, 1)
        status, _, headers = call(live_and_dead, "POST", "/plan", payload_for(seed))
        assert status == 503
        assert headers["X-Hottiles-Shard"] == "1"
        assert live_and_dead.ring.is_up(0)
        assert not live_and_dead.ring.is_up(1)

    def test_plan_requests_keep_affinity_to_a_down_owner(self, live_and_dead):
        # A plan's owner holds its in-flight computation and lineage, so
        # the router answers 503 rather than failing over.
        live_and_dead.mark_down(1)
        seed = seed_owned_by(live_and_dead, 1)
        status, _, headers = call(live_and_dead, "POST", "/plan", payload_for(seed))
        assert status == 503
        assert headers["X-Hottiles-Shard"] == "1"

    def test_get_plan_fails_over_to_a_live_shard(self, live_and_dead, live_shard):
        seed = seed_owned_by(live_and_dead, 1)
        # The plan is in the shared store; its ring owner is down.
        result, _ = live_shard.service.plan(PlanRequest.from_dict(payload_for(seed)))
        live_and_dead.mark_down(1)
        status, body, headers = call(live_and_dead, "GET", f"/plan/{result.digest}")
        assert status == 200
        assert body["served"] == "store"
        assert body["plan"]["digest"] == result.digest
        assert headers["X-Hottiles-Shard"] == "0"

    def test_get_plan_with_every_shard_down_is_503(self, offline):
        offline.mark_down(0)
        offline.mark_down(1)
        status, body, headers = call(offline, "GET", "/plan/" + "ab" * 32)
        assert status == 503
        assert body["error"] == "no shard available"
        assert "X-Hottiles-Shard" not in headers
        assert "Retry-After" in headers


class TestForwarding:
    def test_plan_reply_is_relayed_with_the_shard_header(self, one_shard):
        status, body, headers = call(one_shard, "POST", "/plan", payload_for(0))
        assert status == 200
        assert body["served"] == "computed"
        assert headers == {"X-Hottiles-Shard": "0"}
        status, body, _ = call(one_shard, "POST", "/plan", payload_for(0))
        assert body["served"] == "store"

    def test_shard_headers_are_relayed(self, one_shard, live_shard):
        live_shard.start_drain()
        status, body, headers = call(one_shard, "POST", "/plan", payload_for(0))
        assert status == 503
        assert "shutting down" in body["error"]
        assert float(headers["Retry-After"]) > 0
        assert headers["X-Hottiles-Shard"] == "0"

    def test_planned_digest_is_pinned_to_its_shard(self, one_shard):
        _, body, _ = call(one_shard, "POST", "/plan", payload_for(0))
        assert one_shard._affinity[body["plan"]["digest"]] == 0

    def test_delta_pins_each_new_head(self, one_shard):
        _, body, _ = call(one_shard, "POST", "/plan", payload_for(0))
        digest = body["plan"]["digest"]
        status, first, headers = call(
            one_shard, "POST", f"/matrices/{digest}/delta", DELTA
        )
        assert status == 200
        assert headers["X-Hottiles-Shard"] == "0"
        head = first["applied"]["new_digest"]
        assert one_shard._affinity[head] == 0
        status, second, _ = call(
            one_shard, "POST", f"/matrices/{head}/delta",
            {"delete_rows": [0], "delete_cols": [0]},
        )
        assert status == 200
        assert second["applied"]["prev_digest"] == head

    def test_stale_delta_pins_the_reported_head(self, one_shard):
        _, body, _ = call(one_shard, "POST", "/plan", payload_for(0))
        digest = body["plan"]["digest"]
        _, first, _ = call(one_shard, "POST", f"/matrices/{digest}/delta", DELTA)
        head = first["applied"]["new_digest"]
        del one_shard._affinity[head]
        status, stale, _ = call(one_shard, "POST", f"/matrices/{digest}/delta", DELTA)
        assert status == 409
        assert stale["head_digest"] == head
        assert one_shard._affinity[head] == 0

    def test_stats_merge_live_shards_and_list_down_ones(self, live_and_dead, live_shard):
        seed = seed_owned_by(live_and_dead, 0)
        call(live_and_dead, "POST", "/plan", payload_for(seed))
        call(live_and_dead, "POST", "/plan", payload_for(seed))
        status, stats, _ = call(live_and_dead, "GET", "/stats")
        assert status == 200
        shard_counters = live_shard.service.metrics.snapshot()["counters"]
        assert stats["counters"] == shard_counters
        assert stats["store"]["session_hits"] == 1
        assert stats["store"]["hit_rate"] == pytest.approx(
            1 / (1 + stats["store"]["session_misses"])
        )
        rows = stats["cluster"]["shards"]
        assert [(row["shard"], row["up"]) for row in rows] == [(0, True), (1, False)]
        assert rows[0]["port"] == live_shard.bound_port
        assert rows[0]["draining"] is False
        assert stats["cluster"]["router"]["stats_merges"] == 1
        assert not live_and_dead.ring.is_up(1)


class TestAffinity:
    def test_pin_overrides_the_ring_for_deltas(self, offline):
        digests = (hashlib.sha256(bytes([i])).hexdigest() for i in range(256))
        digest = next(d for d in digests if offline.ring.route(d) == 0)
        offline._pin_lineage(digest, 1)
        assert offline._owner_for_delta(digest) == 1

    def test_unpinned_delta_follows_the_ring(self, offline):
        digest = "12" * 32
        assert offline._owner_for_delta(digest) == offline.ring.route(digest)

    def test_affinity_map_evicts_least_recently_used(self, offline, monkeypatch):
        monkeypatch.setattr(router_module, "AFFINITY_CAP", 2)
        offline._pin_lineage("aa", 0)
        offline._pin_lineage("bb", 1)
        offline._owner_for_delta("aa")  # a lookup refreshes the pin
        offline._pin_lineage("cc", 0)
        assert list(offline._affinity) == ["aa", "cc"]


# ----------------------------------------------------------------------
# HTTP/1.1 plumbing against a started router
# ----------------------------------------------------------------------
@pytest.fixture
def http_router(live_shard):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    router = ClusterRouter(
        {0: ("127.0.0.1", live_shard.bound_port)}, port=0, max_body_bytes=256
    )
    asyncio.run_coroutine_threadsafe(router.start(), loop).result(10.0)
    yield router
    asyncio.run_coroutine_threadsafe(router.stop(), loop).result(10.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)
    loop.close()


def raw_exchange(router, data):
    """Send raw bytes; read until the router closes the connection."""
    with socket.create_connection(("127.0.0.1", router.bound_port), timeout=10.0) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, json.loads(body)


class TestHttpPlumbing:
    def test_malformed_request_line_is_400_and_closes(self, http_router):
        status, headers, body = raw_exchange(http_router, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert headers["Connection"] == "close"
        assert body["error"] == "malformed request line"

    def test_bad_content_length_is_400(self, http_router):
        status, _, body = raw_exchange(
            http_router,
            b"POST /plan HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_post_without_body_is_400(self, http_router):
        status, _, body = raw_exchange(
            http_router,
            b"POST /plan HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        assert status == 400
        assert body["error"] == "request body required"

    def test_oversized_body_is_400_before_reading_it(self, http_router):
        status, headers, body = raw_exchange(
            http_router, b"POST /plan HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
        )
        assert status == 400
        assert "too large" in body["error"]
        assert headers["Connection"] == "close"

    def test_invalid_json_body_is_400(self, http_router):
        status, _, body = raw_exchange(
            http_router,
            b"POST /plan HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\n{oops",
        )
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_keep_alive_serves_several_requests_per_connection(self, http_router):
        conn = HTTPConnection("127.0.0.1", http_router.bound_port, timeout=30.0)
        try:
            for path in ("/healthz", "/healthz?probe=1", "/stats"):
                conn.request("GET", path)
                resp = conn.getresponse()
                assert resp.status == 200
                json.loads(resp.read())
            conn.request(
                "POST", "/plan", body=json.dumps(payload_for(0)),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("X-Hottiles-Shard") == "0"
            assert json.loads(resp.read())["served"] == "computed"
        finally:
            conn.close()
        assert http_router.counters["routed"] == 4

    def test_connection_close_is_honoured(self, http_router):
        status, headers, body = raw_exchange(
            http_router, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert status == 200
        assert headers["Connection"] == "close"
        assert body["shards_up"] == 1

    def test_handler_error_is_500_not_a_dropped_connection(self, http_router):
        async def broken(method, path, payload):
            raise RuntimeError("boom")

        http_router.dispatch = broken
        status, _, body = raw_exchange(
            http_router, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert status == 500
        assert body == {"error": "RuntimeError: boom"}
