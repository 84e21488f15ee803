"""End-to-end cluster tests: real shard subprocesses behind the router.

One module-scoped 2-shard cluster serves most tests (spawning
interpreters is the slow part); the drain test builds its own 1-shard
cluster because draining is terminal for the shard.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.manager import ClusterManager

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
DELTA = {
    "insert_rows": [0, 1],
    "insert_cols": [0, 1],
    "insert_vals": [1.5, 2.5],
    "delete_rows": [],
    "delete_cols": [],
}


def payload_for(seed):
    return {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}


def http(base, path, payload=None, timeout=60.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, json.loads(body) if body else {}, dict(exc.headers or {})


def http_retrying(base, path, payload=None, deadline_s=30.0):
    """Retry 503 + Retry-After (and transport blips) like loadgen does."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            status, body, headers = http(base, path, payload)
        except (urllib.error.URLError, OSError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)
            continue
        if status in (429, 503) and time.monotonic() < deadline:
            time.sleep(min(float(headers.get("Retry-After", 0.2)), 1.0))
            continue
        return status, body, headers


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    store = tmp_path_factory.mktemp("cluster-store")
    with ClusterManager(shards=2, store_dir=str(store)) as manager:
        yield manager


class TestRoutingAndServing:
    def test_healthz_reports_all_shards_up(self, cluster):
        status, body, _ = http(cluster.base_url, "/healthz")
        assert status == 200
        assert body["shards_up"] == 2 and body["shards_total"] == 2

    def test_ephemeral_ports_are_real_and_distinct(self, cluster):
        desc = cluster.describe()
        ports = [row["port"] for row in desc["shards"]]
        assert all(p > 0 for p in ports)
        assert len(set(ports)) == len(ports)
        assert cluster.bound_port > 0

    def test_repeat_digest_routes_to_same_shard(self, cluster):
        _, first, h1 = http(cluster.base_url, "/plan", RMAT)
        _, second, h2 = http(cluster.base_url, "/plan", RMAT)
        assert h1["X-Hottiles-Shard"] == h2["X-Hottiles-Shard"]
        # The repeat is shard-local cache/store traffic, not recomputed.
        assert second["served"] in ("store", "cache", "coalesced")
        assert first["plan"]["digest"] == second["plan"]["digest"]

    def test_distinct_digests_spread_across_shards(self, cluster):
        shards = set()
        for seed in range(8):
            _, _, headers = http(cluster.base_url, "/plan", payload_for(seed))
            shards.add(headers["X-Hottiles-Shard"])
        assert len(shards) == 2

    def test_get_plan_roundtrip(self, cluster):
        _, body, _ = http(cluster.base_url, "/plan", RMAT)
        digest = body["plan"]["digest"]
        status, got, _ = http(cluster.base_url, f"/plan/{digest}")
        assert status == 200
        assert got["plan"]["digest"] == digest

    def test_bad_plan_request_is_400(self, cluster):
        status, body, _ = http(cluster.base_url, "/plan", {"arch": "nope", "matrix": "m"})
        assert status == 400
        assert "unknown arch" in body["error"]

    def test_unknown_endpoint_is_404(self, cluster):
        status, _, _ = http(cluster.base_url, "/no/such/path")
        assert status == 404


class TestLineageAffinity:
    def test_delta_chain_stays_on_one_shard(self, cluster):
        _, body, h0 = http(cluster.base_url, "/plan", payload_for(100))
        digest = body["plan"]["digest"]
        owner = h0["X-Hottiles-Shard"]
        status, first, h1 = http(
            cluster.base_url, f"/matrices/{digest}/delta", DELTA
        )
        assert status == 200
        assert h1["X-Hottiles-Shard"] == owner
        head = first["applied"]["new_digest"]
        # The advanced head hashes anywhere on the ring; affinity must
        # still pin it to the shard holding the lineage.
        status2, second, h2 = http(
            cluster.base_url,
            f"/matrices/{head}/delta",
            {"delete_rows": [0], "delete_cols": [0]},
        )
        assert status2 == 200
        assert h2["X-Hottiles-Shard"] == owner

    def test_stale_head_is_409_with_pointer(self, cluster):
        _, body, _ = http(cluster.base_url, "/plan", payload_for(101))
        digest = body["plan"]["digest"]
        _, first, _ = http(cluster.base_url, f"/matrices/{digest}/delta", DELTA)
        status, resp, _ = http(cluster.base_url, f"/matrices/{digest}/delta", DELTA)
        assert status == 409
        assert resp["head_digest"] == first["applied"]["new_digest"]


class TestStatsAggregation:
    def test_merged_stats_have_single_process_shape(self, cluster):
        for seed in range(4):
            http(cluster.base_url, "/plan", payload_for(seed))
        status, stats, _ = http(cluster.base_url, "/stats")
        assert status == 200
        counters = stats["counters"]
        assert counters["requests_accepted"] >= 4
        # The merged snapshot keeps the single-process keys so existing
        # consumers (loadgen reconciliation) work unchanged.
        for key in ("counters", "gauges", "histograms", "store", "lineages",
                    "uptime_s", "server"):
            assert key in stats
        assert stats["server"]["port"] == cluster.bound_port

    def test_merged_counters_are_sums_of_shard_counters(self, cluster):
        status, stats, _ = http(cluster.base_url, "/stats")
        assert status == 200
        detail = stats["cluster"]["shards"]
        assert [row["shard"] for row in detail] == [0, 1]
        per_shard = sum(
            row["counters"].get("requests_accepted", 0) for row in detail
        )
        assert stats["counters"]["requests_accepted"] == per_shard

    def test_merged_latency_histogram_covers_all_shards(self, cluster):
        status, stats, _ = http(cluster.base_url, "/stats")
        hist = stats["histograms"].get("request_latency_s")
        assert hist is not None and hist["count"] >= 1
        assert hist["p99"] >= hist["p50"] >= 0.0


class TestChaosRestart:
    def test_killed_shard_restarts_and_requests_resolve(self, cluster):
        pid_before = cluster.shard_pid(0)
        cluster.kill_shard(0)
        # Every request during the outage resolves to an HTTP status;
        # 503 + Retry-After invites the retry that eventually succeeds.
        status, body, _ = http_retrying(
            cluster.base_url, "/plan", payload_for(200), deadline_s=30.0
        )
        assert status == 200
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, health, _ = http(cluster.base_url, "/healthz")
            if status == 200 and health["shards_up"] == 2:
                break
            time.sleep(0.2)
        assert health["shards_up"] == 2
        assert cluster.shard_pid(0) != pid_before
        assert cluster.describe()["shards"][0]["restarts"] >= 1

    def test_down_shard_answers_503_with_retry_after_not_a_drop(self, cluster):
        cluster.router.mark_down(0)
        cluster.router.mark_down(1)
        try:
            # Both owners down: the router itself must answer, not hang
            # up -- no shard connection is even attempted.
            status, body, headers = http(cluster.base_url, "/plan", payload_for(201))
            assert status == 503
            assert "Retry-After" in headers
            assert body["retry_after_s"] > 0
        finally:
            cluster.router.mark_up(0)
            cluster.router.mark_up(1)


class TestDrain:
    def test_delta_during_drain_is_503_and_head_is_not_half_advanced(
        self, tmp_path
    ):
        with ClusterManager(shards=1, store_dir=str(tmp_path / "store")) as mgr:
            base = mgr.base_url
            _, body, _ = http(base, "/plan", RMAT)
            digest = body["plan"]["digest"]
            _, first, _ = http(base, f"/matrices/{digest}/delta", DELTA)
            head = first["applied"]["new_digest"]
            assert mgr.drain_shard(0)
            # New deltas during the drain answer 503 + Retry-After...
            status, resp, headers = http(
                base, f"/matrices/{head}/delta", {"delete_rows": [0], "delete_cols": [0]}
            )
            assert status == 503
            assert "Retry-After" in headers
            assert "shutting down" in resp["error"]
            # ...and the lineage head never left half-advanced: the
            # plan under the pre-drain head is still the addressable
            # one, and no successor digest was ever published.
            status2, got, _ = http(base, f"/plan/{head}")
            assert status2 == 200
            assert got["plan"]["digest"] == head
            # /stats reports the drain in progress on the shard detail.
            _, stats, _ = http(base, "/stats")
            assert stats["cluster"]["shards"][0]["draining"] is True


class TestShardPipes:
    def test_respawn_and_stop_close_every_shard_pipe(self, tmp_path):
        mgr = ClusterManager(
            shards=1, store_dir=str(tmp_path / "store"), restart_backoff_s=0.0
        )
        spawned = []
        spawn = mgr._spawn

        def recording_spawn(shard_id):
            spawn(shard_id)
            spawned.append(mgr._shards[shard_id].proc)

        mgr._spawn = recording_spawn
        with mgr:
            mgr.kill_shard(0)  # the supervisor respawns it
            deadline = time.monotonic() + 30.0
            while len(spawned) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(spawned) == 2
            mgr.restart_shard(0)
        assert len(spawned) == 3
        assert all(proc.poll() is not None for proc in spawned)
        assert all(proc.stdout.closed for proc in spawned)
