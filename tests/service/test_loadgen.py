"""Closed-loop load generator tests (the acceptance-criteria workload)."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.service.httpd import make_server
from repro.service.loadgen import (
    LoadgenPass,
    LoadgenReport,
    default_request_payloads,
    run_loadgen,
    run_pass,
)
from repro.service.planner import PlanService
from repro.service.store import PlanStore


@pytest.fixture
def live_server(tmp_path):
    service = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    server.server_close()
    service.close()


class DroppingHandler(BaseHTTPRequestHandler):
    """Answers ``GET /stats`` and closes every ``POST`` unanswered."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 -- stdlib naming
        body = json.dumps({"counters": {}, "store": {}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.close_connection = True

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def dropping_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), DroppingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers ``GET /stats``; each ``POST`` gets the server's next scripted
    reply, and ``200 {"served": "computed"}`` once the script runs out.

    A scripted reply is ``(status, headers, body)`` or raw bytes written
    as they are, after which the connection is closed.
    """

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 -- stdlib naming
        self._reply(200, {}, json.dumps({"counters": {}, "store": {}}).encode())

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        with self.server.lock:
            script = self.server.script
            step = script.pop(0) if script else (200, {}, b'{"served": "computed"}')
            self.server.posts += 1
        if isinstance(step, bytes):
            self.wfile.write(step)
            self.close_connection = True
        else:
            self._reply(*step)

    def _reply(self, status, headers, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def scripted_server():
    """``scripted_server(replies)`` -> (base URL, server) of a live stub."""
    servers = []

    def start(script):
        server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
        server.daemon_threads = True
        server.script = list(script)
        server.lock = threading.Lock()
        server.posts = 0
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestPayloads:
    def test_distinct_by_seed(self):
        payloads = default_request_payloads(4)
        assert len(payloads) == 4
        assert len({p["generator"]["seed"] for p in payloads}) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_request_payloads(0)


class TestAccounting:
    """The report arithmetic, without a server."""

    @pytest.mark.parametrize(
        "counters, ok",
        [
            ({"requests_accepted": 5, "requests_completed": 5}, True),
            ({"requests_accepted": 5, "requests_completed": 3, "requests_failed": 1,
              "requests_timeout": 1}, True),
            # Rejected requests were never accepted, so they do not count.
            ({"requests_accepted": 2, "requests_completed": 2,
              "requests_rejected": 7}, True),
            ({"requests_accepted": 5, "requests_completed": 4}, False),
        ],
    )
    def test_reconciles_accepted_against_settled(self, counters, ok):
        report = LoadgenReport(passes=[], server_stats={"counters": counters})
        assert report.reconciles() is ok
        assert report.to_dict()["reconciles"] is ok
        assert report.render().endswith(
            "(accepted = completed + failed + timeout): "
            + ("yes" if ok else "NO")
            + "\ndropped connections (transport errors): 0"
        )

    def test_server_line_names_every_settled_counter(self):
        counters = {"requests_accepted": 5, "requests_completed": 3,
                    "requests_failed": 1, "requests_timeout": 1,
                    "requests_rejected": 2, "requests_coalesced": 1,
                    "plans_computed": 4}
        report = LoadgenReport(passes=[], server_stats={"counters": counters})
        assert report.render().splitlines()[0] == (
            "server: accepted=5 completed=3 failed=1 timeout=1 rejected=2 "
            "coalesced=1 computed=4"
        )

    def test_empty_pass_rates_are_zero(self):
        empty = LoadgenPass(name="cold")
        assert empty.throughput_rps == 0.0
        assert empty.store_hit_rate == 0.0

    def test_pass_record_converts_latency_to_ms(self):
        run = LoadgenPass(name="warm", requests=4, completed=4, wall_s=2.0,
                          store_hits_delta=3, store_gets_delta=4)
        for latency_s in (0.01, 0.02, 0.03, 0.04):
            run.latency.observe(latency_s)
        record = run.to_dict()
        assert record["throughput_rps"] == 2.0
        assert record["store_hit_rate"] == 0.75
        assert record["latency_ms"]["p50"] == pytest.approx(25.0)
        assert "shards" not in record

    def test_report_totals_failures_and_transport_errors(self):
        passes = [
            LoadgenPass(name="cold", failed=2, transport_errors=1),
            LoadgenPass(name="warm", failed=1, transport_errors=0),
        ]
        report = LoadgenReport(passes=passes, server_stats={})
        assert report.failed == 3
        assert report.transport_errors == 1
        assert [p["name"] for p in report.to_dict()["passes"]] == ["cold", "warm"]

    @pytest.mark.parametrize("kwargs", [{"requests": 0}, {"concurrency": 0}])
    def test_run_pass_rejects_empty_workloads(self, kwargs):
        # Checked before any request, so no server is needed.
        args = {"requests": 1, "concurrency": 1, **kwargs}
        with pytest.raises(ValueError, match="must be >= 1"):
            run_pass("http://127.0.0.1:9", [{}], **args)


class TestLoadgen:
    def test_cold_then_warm(self, live_server):
        base, _service = live_server
        report = run_loadgen(base, requests=40, concurrency=4, plans=3, passes=2)
        cold, warm = report.passes
        assert cold.completed == 40 and cold.failed == 0
        assert warm.completed == 40 and warm.failed == 0
        # Warm pass must be served (almost) entirely from the plan store.
        assert warm.store_hit_rate > 0.9
        assert warm.served.get("store", 0) == 40
        assert warm.latency.percentile(50) <= cold.latency.percentile(99)
        assert report.reconciles()
        rendered = report.render()
        assert "p95" in rendered and "reconcile" in rendered

    def test_pass_counts_served_breakdown(self, live_server):
        base, _service = live_server
        result = run_pass(
            base, default_request_payloads(2), requests=10, concurrency=2
        )
        assert result.completed == 10
        assert sum(result.served.values()) == 10
        assert result.throughput_rps > 0

    def test_backpressure_retries_are_not_failures(self, tmp_path):
        service = PlanService(
            store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=1
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            report = run_loadgen(base, requests=30, concurrency=8, plans=3, passes=1)
            (cold,) = report.passes
            # Under a depth-1 queue the server sheds load; the client
            # retries and still finishes every request without failure.
            assert cold.completed == 30
            assert cold.failed == 0
            assert report.reconciles()
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestDroppedConnections:
    """A request answered with no HTTP status at all is a dropped connection."""

    def test_run_pass_counts_every_drop_as_a_failed_transport_error(
        self, dropping_server
    ):
        result = run_pass(
            dropping_server, default_request_payloads(2), requests=12, concurrency=3
        )
        assert result.completed == 0
        assert result.failed == 12
        assert result.transport_errors == 12
        assert result.retries_429 == 0
        assert result.errors and all(e.startswith("transport:") for e in result.errors)

    def test_cli_exits_1_and_reports_the_dropped_count(
        self, dropping_server, capsys, tmp_path
    ):
        out = tmp_path / "report.json"
        code = main([
            "loadgen", "--url", dropping_server, "--requests", "6",
            "--concurrency", "2", "--plans", "2", "--json", str(out),
        ])
        assert code == 1
        assert "dropped connections (transport errors): 12" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert set(report) == {
            "passes", "failed", "transport_errors", "reconciles", "server_counters",
        }
        assert report["failed"] == report["transport_errors"] == 12
        assert [(p["failed"], p["transport_errors"]) for p in report["passes"]] == [
            (6, 6), (6, 6),
        ]
        assert "shards" not in report["passes"][0]


class TestRetryContract:
    """Which replies the client retries, and which end the request."""

    @pytest.mark.parametrize(
        "status, headers, retried",
        [
            (429, {"Retry-After": "0.010"}, True),
            (429, {}, True),
            (503, {"Retry-After": "0.010"}, True),
            (503, {}, False),
            (500, {}, False),
            (504, {}, False),
            (400, {}, False),
            (404, {}, False),
            (409, {}, False),
        ],
    )
    def test_one_error_reply_then_success(self, scripted_server, status, headers,
                                          retried):
        body = json.dumps({"error": f"status {status}"}).encode()
        base, server = scripted_server([(status, headers, body)])
        result = run_pass(base, default_request_payloads(1), requests=2, concurrency=1)
        assert result.transport_errors == 0
        if retried:
            assert (result.completed, result.failed, result.retries_429) == (2, 0, 1)
            assert server.posts == 3
        else:
            assert (result.completed, result.failed, result.retries_429) == (1, 1, 0)
            assert result.errors == [f"HTTP {status}: status {status}"]
            assert server.posts == 2

    def test_retries_stop_at_max_retries(self, scripted_server):
        shed = (429, {"Retry-After": "0.001"}, b'{"error": "full"}')
        base, server = scripted_server([shed] * 4)
        result = run_pass(base, default_request_payloads(1), requests=1,
                          concurrency=1, max_retries=2)
        assert (result.completed, result.failed, result.retries_429) == (0, 1, 2)
        assert result.errors == ["HTTP 429: full"]
        assert server.posts == 3

    def test_unparsable_retry_after_falls_back_to_a_short_delay(self, scripted_server):
        base, _ = scripted_server([(429, {"Retry-After": "soon"}, b"{}")])
        result = run_pass(base, default_request_payloads(1), requests=1, concurrency=1)
        assert (result.completed, result.failed, result.retries_429) == (1, 0, 1)


class TestMalformedReplies:
    """Every request ends completed or failed, whatever the server sends.

    A reply that is not a complete HTTP message counts as a dropped
    connection (a transport error); a complete reply whose body is not a
    JSON object is a failed request.
    """

    @pytest.mark.parametrize(
        "reply, transport, error",
        [
            (b"garbage\r\n\r\n", True, "transport: BadStatusLine"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"served\"",
             True, "transport: IncompleteRead"),
            ((200, {}, b"not json"), False, "HTTP 200 body is not a JSON object"),
            ((200, {}, b"[1, 2]"), False, "HTTP 200 body is not a JSON object"),
            ((500, {}, b"oops"), False, "HTTP 500: oops"),
            ((500, {}, b"[1]"), False, "HTTP 500: [1]"),
        ],
        ids=["garbage-status-line", "truncated-body", "200-not-json",
             "200-json-array", "500-text", "500-json-array"],
    )
    def test_bad_reply_is_one_failed_request(self, scripted_server, reply, transport,
                                             error):
        base, server = scripted_server([reply] * 3)
        result = run_pass(base, default_request_payloads(2), requests=5, concurrency=2)
        assert (result.completed, result.failed) == (2, 3)
        assert result.transport_errors == (3 if transport else 0)
        assert len(result.errors) == 3
        assert all(e.startswith(error) for e in result.errors), result.errors
        assert server.posts == 5

    def test_cli_exits_1_when_replies_are_not_http(self, scripted_server, capsys):
        base, _ = scripted_server([b"garbage\r\n\r\n"] * 4)
        code = main([
            "loadgen", "--url", base, "--requests", "4", "--concurrency", "2",
            "--plans", "1", "--passes", "1",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "cold: 0/4 ok, 4 failed" in out
        assert "dropped connections (transport errors): 4" in out
