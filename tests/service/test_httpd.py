"""HTTP front-end tests against a live ephemeral-port server."""

import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.service.httpd import make_server
from repro.service.planner import PlanService
from repro.service.store import PlanStore

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}


@pytest.fixture
def live_server(tmp_path):
    service = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service
    server.shutdown()
    server.server_close()
    service.close()


def http(base, path, payload=None, timeout=30.0):
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
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


class TestEndpoints:
    def test_healthz(self, live_server):
        base, _ = live_server
        status, body, _ = http(base, "/healthz")
        assert status == 200
        assert body == {"status": "ok"}

    def test_post_plan_then_warm_hit(self, live_server):
        base, _ = live_server
        status, body, _ = http(base, "/plan", RMAT)
        assert status == 200
        assert body["served"] == "computed"
        plan = body["plan"]
        assert plan["label"]
        assert plan["mode"] in ("parallel", "serial")
        assert plan["nnz"] == 2000
        status2, body2, _ = http(base, "/plan", RMAT)
        assert status2 == 200
        assert body2["served"] == "store"
        assert body2["plan"]["digest"] == plan["digest"]

    def test_get_plan_by_digest(self, live_server):
        base, _ = live_server
        _, body, _ = http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        status, got, _ = http(base, f"/plan/{digest}")
        assert status == 200
        assert got["plan"]["digest"] == digest

    def test_get_unknown_digest_404(self, live_server):
        base, _ = live_server
        status, body, _ = http(base, "/plan/" + "0" * 64)
        assert status == 404
        assert "no stored plan" in body["error"]

    def test_get_non_hex_digest_400(self, live_server):
        base, _ = live_server
        status, _, _ = http(base, "/plan/not-a-digest")
        assert status == 400

    def test_stats_endpoint(self, live_server):
        base, _ = live_server
        http(base, "/plan", RMAT)
        status, stats, _ = http(base, "/stats")
        assert status == 200
        assert stats["counters"]["requests_completed"] == 1
        assert stats["store"]["entries"] == 1
        assert "request_latency_s" in stats["histograms"]

    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/nope", None),
            ("/nope", {"x": 1}),
            ("/", None),
            ("/plan", None),
            ("/stats", {"x": 1}),
            ("/matrices/ab/delta", None),
        ],
    )
    def test_unknown_endpoint_404(self, live_server, path, payload):
        base, _ = live_server
        status, body, _ = http(base, path, payload)
        assert status == 404
        assert path in body["error"]

    def test_trailing_slash_is_ignored(self, live_server):
        base, _ = live_server
        assert http(base, "/healthz/")[:2] == (200, {"status": "ok"})
        status, body, _ = http(base, "/plan/", RMAT)
        assert status == 200 and body["served"] == "computed"


class TestKeepAliveLatency:
    def test_store_reads_not_stalled_by_delayed_ack(self, live_server):
        """A reply is two sends (headers, body).  With Nagle's algorithm on,
        the body would wait for the client's delayed ACK of the headers,
        about 40 ms on every keep-alive read."""
        base, _ = live_server
        assert http(base, "/plan", RMAT)[0] == 200
        host, port = base[len("http://"):].split(":")
        conn = HTTPConnection(host, int(port), timeout=30)
        body = json.dumps(RMAT).encode()
        headers = {"Content-Type": "application/json"}
        times = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("POST", "/plan", body=body, headers=headers)
                resp = conn.getresponse()
                reply = json.loads(resp.read())
                times.append(time.perf_counter() - t0)
                assert resp.status == 200 and reply["served"] == "store"
        finally:
            conn.close()
        assert statistics.median(times) < 0.020, times


class TestErrorMapping:
    def test_malformed_json_400(self, live_server):
        base, _ = live_server
        req = urllib.request.Request(
            base + "/plan",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_protocol_error_400(self, live_server):
        base, _ = live_server
        status, body, _ = http(base, "/plan", {"matrix": "pap", "arch": "tpu"})
        assert status == 400
        assert "unknown arch" in body["error"]

    @pytest.mark.parametrize(
        "length,message",
        [("ten", "bad Content-Length header"), (str(2 << 20), "request body too large")],
    )
    def test_bad_or_oversized_content_length_400(self, live_server, length, message):
        base, _ = live_server
        host, port = base[len("http://"):].split(":")
        conn = HTTPConnection(host, int(port), timeout=10)
        try:
            # The length is checked before the body is read, so none is sent.
            conn.putrequest("POST", "/plan")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert message in body["error"]

    def test_empty_body_400(self, live_server):
        base, _ = live_server
        req = urllib.request.Request(base + "/plan", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_plan_failure_500(self, live_server):
        base, service = live_server

        def boom(request, digest):
            raise ValueError("bad plan input")

        service._compute = boom
        status, body, _ = http(base, "/plan", RMAT)
        assert status == 500
        assert body["error_detail"]["type"] == "ValueError"
        assert set(body["error_detail"]) == {"type", "message", "traceback_tail"}

    @pytest.mark.parametrize(
        "generator,message",
        [
            ({"kind": "rmat", "scale": 0, "nnz": 100}, "scale must be positive"),
            ({"kind": "rmat", "scale": 4, "nnz": 2000}, "cannot place 2000 nonzeros"),
            ({"kind": "rmat", "scale": 8, "nnz": 70000}, "cannot place 70000 nonzeros"),
            ({"kind": "uniform", "n_rows": 0, "n_cols": 8, "nnz": 4},
             "matrix dimensions must be positive"),
            ({"kind": "rmat", "scale": 8, "nnz": 500, "a": 0.9, "b": 0.2, "c": 0.2},
             "R-MAT probabilities must be non-negative"),
            ({"kind": "rmat", "scale": 8, "nnz": 60000, "seed": 1},
             "target density may be unreachable"),
        ],
    )
    def test_generator_rejection_400(self, live_server, generator, message):
        base, _ = live_server
        status, body, _ = http(base, "/plan", {"generator": generator})
        assert status == 400, body
        assert body["error"].startswith(f"generator {generator['kind']!r} rejected parameters: ")
        assert message in body["error"]


class TestBackpressureOverHTTP:
    def test_queue_depth_one_sheds_with_429(self, tmp_path):
        service = PlanService(
            store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=1
        )
        gate = threading.Event()
        real = service._compute
        service._compute = (
            lambda request, digest: (gate.wait(15.0), real(request, digest))[1]
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            payloads = [
                {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": s}}
                for s in range(3)
            ]
            replies = []
            clients = [
                threading.Thread(
                    target=lambda p=p: replies.append(http(base, "/plan", p, timeout=30))
                )
                for p in payloads[:2]
            ]
            clients[0].start()
            # Wait until the worker is busy before sending the queue filler.
            deadline = 5.0
            import time as _time
            end = _time.monotonic() + deadline
            while service.metrics.gauge("plans_in_flight").value < 1:
                assert _time.monotonic() < end
                _time.sleep(0.01)
            clients[1].start()
            end = _time.monotonic() + deadline
            while service._queue.qsize() < 1:
                assert _time.monotonic() < end
                _time.sleep(0.01)
            # Worker busy + queue full: the third request must be shed, not stall.
            status, body, headers = http(base, "/plan", payloads[2], timeout=10)
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert body["retry_after_s"] > 0
            gate.set()
            for c in clients:
                c.join()
            assert all(status == 200 for status, _, _ in replies)
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            service.close()


class TestListenBacklog:
    def test_connect_burst_before_the_first_accept(self, tmp_path):
        """A burst of connects must fit the listen backlog.

        With socketserver's default backlog of 5 the kernel queues six
        connections and drops the seventh SYN; that connect then waits
        about 1 s for the retransmit, so it misses the 0.5 s timeout.
        """
        service = PlanService(store=PlanStore(tmp_path / "plans"), workers=1)
        server = make_server(service, port=0)  # bound and listening, not accepting
        socks = []
        try:
            for _ in range(16):
                try:
                    socks.append(socket.create_connection(
                        ("127.0.0.1", server.bound_port), timeout=0.5
                    ))
                except OSError as exc:
                    pytest.fail(f"connect {len(socks) + 1} of 16 failed: {exc!r}")
        finally:
            for sock in socks:
                sock.close()
            server.server_close()
            service.close()


class TestEphemeralPortReporting:
    """``--port 0``: the bound port is discoverable (docs/service.md)."""

    def test_bound_port_property_resolves_port_zero(self, tmp_path):
        service = PlanService(store=PlanStore(tmp_path / "plans"), workers=1)
        server = make_server(service, port=0)
        try:
            assert server.bound_port > 0
            assert server.describe() == {
                "host": server.server_address[0], "port": server.bound_port
            }
        finally:
            server.server_close()
            service.close()

    def test_stats_reports_kernel_chosen_port(self, live_server):
        base, _ = live_server
        status, stats, _ = http(base, "/stats")
        assert status == 200
        # The server record carries the *bound* ephemeral port -- the
        # one in the URL we are talking to, never the requested 0.
        assert stats["server"]["port"] == int(base.rsplit(":", 1)[1])
        assert stats["server"]["port"] != 0

    def test_serve_startup_line_has_parseable_port_token(self, tmp_path):
        """``hottiles serve --port 0`` announces ``port=<bound>`` on stdout."""
        import re
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--store-dir", str(tmp_path / "plans")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"\bport=(\d+)\b", line)
            assert match, f"no port= token in startup line: {line!r}"
            port = int(match.group(1))
            assert port > 0
            status, body, _ = http(f"http://127.0.0.1:{port}", "/healthz")
            assert status == 200 and body["status"] == "ok"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


DELTA = {
    "insert_rows": [0, 1],
    "insert_cols": [0, 1],
    "insert_vals": [1.5, 2.5],
    "delete_rows": [],
    "delete_cols": [],
}


class TestDrainOverHTTP:
    """Once a drain begins (``begin_close``, as SIGTERM does), the server
    answers instead of dropping: 503 + ``Retry-After`` for new work,
    ``draining`` on ``/healthz``, and stored plans and ``/stats`` stay
    readable."""

    def test_new_plan_is_503_with_retry_after_even_for_a_stored_plan(self, live_server):
        base, service = live_server
        assert http(base, "/plan", RMAT)[0] == 200
        service.begin_close()
        for payload in (RMAT, {"generator": dict(RMAT["generator"], seed=1)}):
            status, body, headers = http(base, "/plan", payload)
            assert status == 503
            assert body["error"] == "service is shutting down"
            assert float(headers["Retry-After"]) == pytest.approx(body["retry_after_s"],
                                                                 abs=1e-3)
            assert body["retry_after_s"] > 0

    def test_healthz_reports_draining(self, live_server):
        base, service = live_server
        service.begin_close()
        assert http(base, "/healthz")[:2] == (503, {"status": "draining"})

    def test_stored_plan_and_stats_stay_readable(self, live_server):
        base, service = live_server
        _, body, _ = http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        service.begin_close()
        status, got, _ = http(base, f"/plan/{digest}")
        assert status == 200 and got["plan"] == body["plan"]
        status, stats, _ = http(base, "/stats")
        assert status == 200
        assert stats["closed"] is True
        assert stats["counters"]["requests_completed"] == 1

    def test_delta_is_503_and_leaves_the_head_where_it_was(self, live_server):
        base, service = live_server
        _, body, _ = http(base, "/plan", RMAT)
        digest = body["plan"]["digest"]
        service.begin_close()
        status, reply, headers = http(base, f"/matrices/{digest}/delta", DELTA)
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert service.lineages.resolve(digest).head_digest == digest
        assert service.stats()["counters"].get("deltas_applied", 0) == 0


class TestLineageOverHTTP:
    def test_delta_chain_advances_one_head_and_keeps_every_plan(self, live_server):
        base, service = live_server
        _, body, _ = http(base, "/plan", RMAT)
        heads = [body["plan"]["digest"]]
        for step in range(3):
            delta = dict(DELTA, insert_vals=[float(step), float(step) + 0.5])
            status, reply, _ = http(base, f"/matrices/{heads[-1]}/delta", delta)
            assert status == 200
            assert reply["applied"]["prev_digest"] == heads[-1]
            heads.append(reply["applied"]["new_digest"])
        assert len(set(heads)) == 4
        # Every superseded head points the caller at the one live head.
        for old in heads[:-1]:
            status, reply, _ = http(base, f"/matrices/{old}/delta", DELTA)
            assert status == 409
            assert reply["head_digest"] == heads[-1]
        # Every plan along the chain stays addressable.
        for digest in heads:
            status, got, _ = http(base, f"/plan/{digest}")
            assert status == 200 and got["plan"]["digest"] == digest
        _, stats, _ = http(base, "/stats")
        assert stats["counters"]["deltas_applied"] == 3
        assert stats["lineages"] == 1
