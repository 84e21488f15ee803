"""The HTTP transport carries the endpoint status contract intact.

``repro.service.api`` decides every ``(status, body, headers)``; the
stdlib front end in ``repro.service.httpd`` must deliver exactly that
triple on the wire -- status line, JSON body with a matching
``Content-Length``, the ``Retry-After`` header where the contract adds
one -- and keep the connection usable afterwards.  The planner's
outcomes are injected through a stub so every row of the contract is
hit without computing a plan.  The framing tests send raw bytes to pin
what the server answers for requests the endpoint layer never sees.
"""

import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.obs import Tracer, use_tracer
from repro.service import api
from repro.service.httpd import make_server
from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanTimeout,
    ServiceClosed,
    StructuredError,
)
from repro.service.protocol import ProtocolError
from repro.streaming.lineage import StaleDigestError, UnknownLineageError

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
DIGEST = "ab" * 32
HEAD = "cd" * 32
STORED = "ef" * 32


class StubPlan:
    """Stands in for a :class:`PlanResult`."""

    def to_dict(self):
        return {"digest": STORED}


class StubStore:
    """Holds one plan, under :data:`STORED`."""

    def get(self, digest):
        return StubPlan() if digest == STORED else None


class StubService:
    """Stands in for :class:`PlanService`.

    ``plan`` and ``apply_delta`` raise ``exc``; with no ``exc``,
    ``plan`` answers the stored plan.  ``fail_on`` names one method that
    raises ``RuntimeError`` instead of answering, for the outcomes no
    endpoint maps.
    """

    def __init__(self, exc=None, closed=False, fail_on=None):
        self.exc = exc
        self._closed = closed
        self.fail_on = fail_on
        self.store = StubStore()
        if fail_on == "store.get":
            self.store.get = self._boom

    def _boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    @property
    def closed(self):
        if self.fail_on == "closed":
            self._boom()
        return self._closed

    def plan(self, request):
        if self.fail_on == "plan":
            self._boom()
        if self.exc is None:
            return StubPlan(), "store"
        raise self.exc

    def apply_delta(self, digest, payload):
        if self.fail_on == "apply_delta":
            self._boom()
        raise self.exc

    def retry_after_hint(self):
        return 0.25

    def stats(self):
        if self.fail_on == "stats":
            self._boom()
        return {"counters": {}}


@pytest.fixture
def serve():
    """``serve(service)`` -> the bound port of a live server for it."""
    started = []

    def start(service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append(server)
        return server.bound_port

    yield start
    for server in started:
        server.shutdown()
        server.server_close()


def exchange(conn, method, path, payload=None):
    """One request on ``conn``; returns ``(status, body, headers)``."""
    body = None if payload is None else json.dumps(payload)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    assert resp.getheader("Content-Type") == "application/json"
    assert int(resp.getheader("Content-Length")) == len(raw)
    return resp.status, json.loads(raw), {k: v for k, v in resp.getheaders()}


def raw_exchange(port, data):
    """Send raw bytes, read until the server closes the connection.

    Returns ``(status, headers, body)``.  A server that keeps the
    connection open fails the read with a timeout.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
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


def _failed(type_name):
    return PlanFailed(StructuredError(type=type_name, message="m", traceback_tail="tb"))


#: (case id, stub, method, path, payload, api call giving the expected reply,
#:  expected status)
CONTRACT = [
    ("plan-queue-full", StubService(AdmissionRejected(0.5)), "POST", "/plan", RMAT,
     lambda s: api.plan_endpoint(s, RMAT), 429),
    ("plan-wait-bound", StubService(PlanTimeout(DIGEST, 1.5)), "POST", "/plan", RMAT,
     lambda s: api.plan_endpoint(s, RMAT), 504),
    ("plan-draining", StubService(ServiceClosed("service is shutting down")),
     "POST", "/plan", RMAT, lambda s: api.plan_endpoint(s, RMAT), 503),
    ("plan-compute-failure", StubService(_failed("KeyError")),
     "POST", "/plan", RMAT, lambda s: api.plan_endpoint(s, RMAT), 500),
    ("plan-generator-rejected", StubService(_failed("ProtocolError")),
     "POST", "/plan", RMAT, lambda s: api.plan_endpoint(s, RMAT), 400),
    ("plan-unreadable-matrix", StubService(ProtocolError("cannot read matrix_path")),
     "POST", "/plan", RMAT, lambda s: api.plan_endpoint(s, RMAT), 400),
    ("plan-malformed-request", StubService(), "POST", "/plan", {"arch": "tpu"},
     lambda s: api.plan_endpoint(s, {"arch": "tpu"}), 400),
    ("delta-unknown-lineage", StubService(UnknownLineageError(DIGEST)),
     "POST", f"/matrices/{DIGEST}/delta", {},
     lambda s: api.delta_endpoint(s, DIGEST, {}), 404),
    ("delta-stale-head", StubService(StaleDigestError(DIGEST, HEAD)),
     "POST", f"/matrices/{DIGEST}/delta", {},
     lambda s: api.delta_endpoint(s, DIGEST, {}), 409),
    ("delta-draining", StubService(ServiceClosed("service is shutting down")),
     "POST", f"/matrices/{DIGEST}/delta", {},
     lambda s: api.delta_endpoint(s, DIGEST, {}), 503),
    ("delta-out-of-bounds", StubService(ValueError("row 9 out of range")),
     "POST", f"/matrices/{DIGEST}/delta", {},
     lambda s: api.delta_endpoint(s, DIGEST, {}), 400),
    ("delta-malformed", StubService(ProtocolError("bad delta")),
     "POST", f"/matrices/{DIGEST}/delta", {},
     lambda s: api.delta_endpoint(s, DIGEST, {}), 400),
    ("delta-non-hex", StubService(), "POST", "/matrices/xyz/delta", {},
     lambda s: api.delta_endpoint(s, "xyz", {}), 400),
    ("get-plan-unknown", StubService(), "GET", f"/plan/{DIGEST}", None,
     lambda s: api.get_plan_endpoint(s, DIGEST), 404),
    ("get-plan-non-hex", StubService(), "GET", "/plan/XYZ", None,
     lambda s: api.get_plan_endpoint(s, "XYZ"), 400),
    ("healthz-draining", StubService(closed=True), "GET", "/healthz", None,
     lambda s: api.healthz_endpoint(s), 503),
    ("healthz-open", StubService(), "GET", "/healthz", None,
     lambda s: api.healthz_endpoint(s), 200),
]


class TestStatusContractOverHTTP:
    @pytest.mark.parametrize(
        "stub, method, path, payload, expected, status",
        [case[1:] for case in CONTRACT],
        ids=[case[0] for case in CONTRACT],
    )
    def test_reply_arrives_intact_and_the_connection_stays_open(
        self, serve, stub, method, path, payload, expected, status
    ):
        want_status, want_body, want_headers = expected(stub)
        assert want_status == status
        conn = HTTPConnection("127.0.0.1", serve(stub), timeout=10.0)
        try:
            got_status, got_body, got_headers = exchange(conn, method, path, payload)
            assert got_status == want_status
            assert got_body == want_body
            for name, value in want_headers.items():
                assert got_headers[name] == value
            assert ("Retry-After" in got_headers) == ("Retry-After" in want_headers)
            # An error reply is a complete reply: the next request on the
            # same connection is answered.
            assert exchange(conn, "GET", "/stats")[0] == 200
        finally:
            conn.close()


class TestQueryString:
    """Routing ignores a query string: each endpoint answers as without it."""

    @pytest.mark.parametrize(
        "stub, method, path, payload, status",
        [
            (StubService(), "GET", "/healthz", None, 200),
            (StubService(), "GET", "/healthz/", None, 200),
            (StubService(), "GET", "/stats", None, 200),
            (StubService(), "GET", f"/plan/{STORED}", None, 200),
            (StubService(), "POST", "/plan", RMAT, 200),
            (StubService(), "POST", "/plan/", RMAT, 200),
            (StubService(UnknownLineageError(DIGEST)),
             "POST", f"/matrices/{DIGEST}/delta", {}, 404),
        ],
        ids=["healthz", "healthz-trailing-slash", "stats", "stored-plan",
             "post-plan", "post-plan-trailing-slash", "delta"],
    )
    def test_query_string_gets_the_reply_without_it(
        self, serve, stub, method, path, payload, status
    ):
        conn = HTTPConnection("127.0.0.1", serve(stub), timeout=10.0)
        try:
            plain = exchange(conn, method, path, payload)
            queried = exchange(conn, method, path + "?probe=1&v=2", payload)
        finally:
            conn.close()
        assert plain[0] == status
        assert queried[:2] == plain[:2]

    def test_not_found_and_the_span_name_the_full_path(self, serve):
        conn = HTTPConnection("127.0.0.1", serve(StubService()), timeout=10.0)
        try:
            with use_tracer(Tracer(enabled=True)) as tracer:
                reply = exchange(conn, "GET", "/nope?probe=1")
                # The server records a span after sending its reply; the
                # next reply on this connection comes after that.
                exchange(conn, "GET", "/healthz")
        finally:
            conn.close()
        assert reply[:2] == (404, {"error": "no such endpoint: /nope?probe=1"})
        span = [s for s in tracer.spans() if s.name == "http.request"][0]
        assert span.args["path"] == "/nope?probe=1"
        assert span.args["status"] == 404


class TestUnmappedErrors:
    """An exception no endpoint maps is a ``500``, never a dropped connection."""

    @pytest.mark.parametrize(
        "fail_on, method, path, payload",
        [
            ("plan", "POST", "/plan", RMAT),
            ("apply_delta", "POST", f"/matrices/{DIGEST}/delta", {}),
            ("store.get", "GET", f"/plan/{DIGEST}", None),
            ("stats", "GET", "/stats", None),
            ("closed", "GET", "/healthz", None),
        ],
    )
    def test_handler_error_is_500_and_the_connection_stays_open(
        self, serve, fail_on, method, path, payload
    ):
        conn = HTTPConnection(
            "127.0.0.1", serve(StubService(fail_on=fail_on)), timeout=10.0
        )
        try:
            status, body, headers = exchange(conn, method, path, payload)
            assert status == 500
            assert body == {"error": "internal error: RuntimeError('boom')"}
            assert "Retry-After" not in headers
            assert exchange(conn, "GET", "/nope")[0] == 404
        finally:
            conn.close()


class TestRequestFraming:
    """What the server answers before (or instead of) an endpoint."""

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"NONSENSE", "Bad request syntax ('NONSENSE')"),
            (b"NONSENSE REQUEST LINE", "Bad request version ('LINE')"),
        ],
    )
    def test_malformed_request_line_is_400_json_and_closes(self, serve, line, message):
        status, headers, body = raw_exchange(serve(StubService()), line + b"\r\n\r\n")
        assert status == 400
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert body == {"error": message}

    def test_unsupported_http_version_is_505_json(self, serve):
        status, headers, body = raw_exchange(
            serve(StubService()), b"GET /healthz HTTP/9.9\r\n\r\n"
        )
        assert status == 505
        assert headers["Connection"] == "close"
        assert body == {"error": "Invalid HTTP version (9.9)"}

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_unsupported_method_is_501_json(self, serve, method):
        status, headers, body = raw_exchange(
            serve(StubService()), f"{method} /plan HTTP/1.1\r\n\r\n".encode()
        )
        assert status == 501
        assert headers["Connection"] == "close"
        assert body == {"error": f"Unsupported method ({method!r})"}

    @pytest.mark.parametrize(
        "length, message",
        [(b"lots", "bad Content-Length header"), (b"4000000", "request body too large")],
    )
    def test_unread_body_is_400_and_closes_the_connection(self, serve, length, message):
        # The body follows the headers but is never read, so the server
        # must not parse it as the next request.
        request = (
            b"POST /plan HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        status, headers, body = raw_exchange(serve(StubService()), request)
        assert status == 400
        assert headers["Connection"] == "close"
        assert message in body["error"]

    def test_invalid_json_body_is_400_and_keeps_the_connection(self, serve):
        conn = HTTPConnection("127.0.0.1", serve(StubService()), timeout=10.0)
        try:
            conn.request("POST", "/plan", body=b"{oops",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert "not valid JSON" in body["error"]
            assert resp.getheader("Connection") is None
            assert exchange(conn, "GET", "/healthz")[:2] == (200, {"status": "ok"})
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, serve):
        status, headers, body = raw_exchange(
            serve(StubService()), b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert (status, body) == (200, {"status": "ok"})
        assert headers["Connection"] == "close"

    def test_http_1_0_request_is_answered_then_closed(self, serve):
        status, headers, body = raw_exchange(
            serve(StubService()), b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert (status, body) == (200, {"status": "ok"})
        assert headers["Connection"] == "close"

    def test_keep_alive_serves_several_requests_per_connection(self, serve):
        stub = StubService(UnknownLineageError(DIGEST))
        conn = HTTPConnection("127.0.0.1", serve(stub), timeout=10.0)
        try:
            replies = [
                exchange(conn, "GET", "/healthz")[0],
                exchange(conn, "GET", "/stats")[0],
                exchange(conn, "GET", "/nope")[0],
                exchange(conn, "POST", f"/matrices/{DIGEST}/delta", {})[0],
                exchange(conn, "POST", "/plan", {"arch": "tpu"})[0],
                exchange(conn, "GET", f"/plan/{DIGEST}")[0],
            ]
        finally:
            conn.close()
        assert replies == [200, 200, 404, 404, 400, 404]
