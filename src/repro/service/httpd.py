"""The stdlib HTTP front end of the plan service.

Endpoints (all JSON):

- ``POST /plan`` -- body is a :class:`~repro.service.protocol.PlanRequest`
  object; replies ``200`` with ``{"served": ..., "plan": {...}}``,
  ``400`` on a malformed request, ``429`` + ``Retry-After`` when the
  admission queue sheds load, ``504`` on a per-request timeout, ``503``
  + ``Retry-After`` while draining, and ``500`` when the plan
  computation raised (its body carries a structured ``error_detail``
  record -- see docs/service.md).
- ``POST /matrices/<digest>/delta`` -- body is a :class:`~repro.
  streaming.delta.DeltaBatch` wire object addressed at the *current
  head* digest of a registered matrix lineage; replies ``200`` with
  ``{"applied": {...}, "plan": {...}}`` (the repaired plan under its new
  digest), ``400`` on a malformed batch, ``404`` for a digest no lineage
  carries, ``409`` + ``head_digest`` when the digest names a superseded
  head (re-read and retry), and ``503`` + ``Retry-After`` while draining
  (docs/streaming.md).
- ``GET /plan/<digest>`` -- a previously computed plan, or ``404``.
- ``GET /healthz`` -- liveness (``200`` while serving, ``503`` draining).
- ``GET /stats`` -- the full metrics snapshot (including
  ``deltas_applied`` / ``tiles_repaired`` counters, the live
  ``lineages`` count, and a ``server`` record carrying the *bound*
  host/port -- with ``--port 0`` that is the kernel-chosen ephemeral
  port, so callers never have to race on a fixed one).

Every reply is JSON and a complete HTTP message: an exception no
endpoint maps answers ``500``, and the stdlib's own rejections (a
request line it cannot parse, an unsupported method or HTTP version)
answer ``400``/``501``/``505`` with ``Connection: close``
(docs/service.md).

The endpoint logic itself lives in :mod:`repro.service.api`; this module
only maps HTTP requests onto it.  Built on :class:`http.server.
ThreadingHTTPServer`: one thread per connection feeding the service's
bounded admission queue, which is where concurrency is actually limited.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs.tracer import get_tracer
from repro.service import api
from repro.service.planner import PlanService
from repro.service.protocol import ProtocolError

__all__ = ["PlanHTTPServer", "PlanRequestHandler", "make_server"]


class PlanRequestHandler(BaseHTTPRequestHandler):
    server: "PlanHTTPServer"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a reply is two sends (headers, body), and with Nagle on
    #: the body waits ~40 ms for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 -- stdlib naming
        self._answer("POST", self._post_reply)

    def do_GET(self) -> None:  # noqa: N802
        self._answer("GET", self._get_reply)

    def _answer(self, method: str, route: Callable[[], api.Reply]) -> None:
        with get_tracer().span(
            "http.request", cat="http", method=method, path=self.path
        ) as span:
            try:
                reply = route()
            except Exception as exc:  # noqa: BLE001 -- answer, never drop
                # An outcome no endpoint maps is still a reply: without one
                # the client sees a closed connection and cannot tell a
                # server fault from a network fault.
                self.log_error("unhandled %r on %s %s", exc, method, self.path)
                reply = 500, {"error": f"internal error: {exc!r}"}, {}
            self._send_reply(reply)
            span.set(status=reply[0])

    def _route_path(self) -> str:
        """The request path without its query string or trailing ``/``."""
        return urlsplit(self.path).path.rstrip("/") or "/"

    def _post_reply(self) -> api.Reply:
        path = self._route_path()
        service = self.server.service
        try:
            length = self._body_length()
        except ProtocolError as exc:
            # The body stays unread, so what follows on the connection is
            # not a request boundary: answer, then close.
            return 400, {"error": str(exc)}, {"Connection": "close"}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}, {}
        if path.startswith("/matrices/") and path.endswith("/delta"):
            digest = path[len("/matrices/"):-len("/delta")]
            return api.delta_endpoint(service, digest, payload)
        if path == "/plan":
            return api.plan_endpoint(service, payload)
        return self._not_found()

    def _get_reply(self) -> api.Reply:
        path = self._route_path()
        service = self.server.service
        if path == "/healthz":
            return api.healthz_endpoint(service)
        if path == "/stats":
            return api.stats_endpoint(service, server=self.server.describe())
        if path.startswith("/plan/"):
            return api.get_plan_endpoint(service, path[len("/plan/"):])
        return self._not_found()

    def _not_found(self) -> api.Reply:
        return 404, {"error": f"no such endpoint: {self.path}"}, {}

    # ------------------------------------------------------------------
    def _body_length(self) -> int:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ProtocolError("bad Content-Length header") from None
        if length <= 0:
            raise ProtocolError("request body required")
        if length > self.server.max_body_bytes:
            raise ProtocolError(
                f"request body too large ({length} > {self.server.max_body_bytes} bytes)"
            )
        return length

    def _send_reply(self, reply: api.Reply) -> None:
        status, body, headers = reply
        self._send_json(status, body, extra_headers=headers or None)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = dict(extra_headers or {})
        if self.close_connection:
            # An HTTP/1.0 client, or one that sent ``Connection: close``:
            # say that this reply ends the connection.
            headers.setdefault("Connection", "close")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """The stdlib's own rejections as JSON, like every other reply.

        ``BaseHTTPRequestHandler`` calls this for a malformed request
        line (400), an unsupported HTTP version (505) or method (501).
        Its default is an HTML page, and for a request line it cannot
        parse it keeps ``request_version`` at ``HTTP/0.9``, which sends
        that page with no status line at all.  This server does not
        speak HTTP/0.9, so it always answers with a status line, a JSON
        body, and ``Connection: close``.
        """
        self.log_error("code %d, message %s", code, message)
        self.request_version = self.protocol_version
        reason = message or self.responses.get(code, ("error",))[0]
        self._send_json(code, {"error": reason}, {"Connection": "close"})

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(fmt, *args)


class PlanHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`PlanService`."""

    daemon_threads = True
    allow_reuse_address = True
    #: socketserver's default listen backlog is 5.  A client that opens
    #: one connection per request (``hottiles loadgen`` does) with more
    #: than about 6 in flight overflows it, the kernel drops the SYN, and
    #: that connect waits about 1 s for the retransmit.  Admission is
    #: bounded by the service's queue, not by the listen socket.
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        address: Tuple[str, int],
        service: PlanService,
        verbose: bool = False,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        super().__init__(address, PlanRequestHandler)

    @property
    def bound_port(self) -> int:
        """The actually bound port (the ephemeral one for ``port=0``)."""
        return int(self.server_address[1])

    def describe(self) -> Dict[str, Any]:
        """The ``server`` record ``/stats`` reports (host + bound port)."""
        return {"host": self.server_address[0], "port": self.bound_port}


def make_server(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 8750,
    verbose: bool = False,
) -> PlanHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) without starting to serve."""
    return PlanHTTPServer((host, port), service, verbose=verbose)
