"""The stdlib HTTP front end of the plan service.

Endpoints (all JSON):

- ``POST /plan`` -- body is a :class:`~repro.service.protocol.PlanRequest`
  object; replies ``200`` with ``{"served": ..., "plan": {...}}``,
  ``400`` on a malformed request, ``429`` + ``Retry-After`` when the
  admission queue sheds load, ``504`` on a per-request timeout, ``503``
  + ``Retry-After`` while draining, ``500`` when the plan computation
  failed *terminally*, and ``503`` + ``Retry-After`` when it failed with
  a *retryable* error (failure bodies carry a structured
  ``error_detail`` record -- see docs/service.md).
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

The endpoint logic itself lives in :mod:`repro.service.api`, shared with
the cluster shard transport (docs/cluster.md); this module only maps
HTTP requests onto it.  Built on :class:`http.server.
ThreadingHTTPServer`: one thread per connection feeding the service's
bounded admission queue, which is where concurrency is actually limited.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

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

    #: Status of the last reply, for span annotation.
    _last_status: int = 0

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 -- stdlib naming
        with get_tracer().span(
            "http.request", cat="http", method="POST", path=self.path
        ) as span:
            self._handle_post()
            span.set(status=self._last_status)

    def _handle_post(self) -> None:
        path = self.path.rstrip("/")
        service = self.server.service
        try:
            payload = self._read_json_body()
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if path.startswith("/matrices/") and path.endswith("/delta"):
            digest = path[len("/matrices/"):-len("/delta")]
            self._send_reply(api.delta_endpoint(service, digest, payload))
        elif path == "/plan":
            self._send_reply(api.plan_endpoint(service, payload))
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_GET(self) -> None:  # noqa: N802
        with get_tracer().span(
            "http.request", cat="http", method="GET", path=self.path
        ) as span:
            self._handle_get()
            span.set(status=self._last_status)

    def _handle_get(self) -> None:
        path = self.path.rstrip("/") or "/"
        service = self.server.service
        if path == "/healthz":
            self._send_reply(api.healthz_endpoint(service))
        elif path == "/stats":
            self._send_reply(
                api.stats_endpoint(service, server=self.server.describe())
            )
        elif path.startswith("/plan/"):
            digest = path[len("/plan/"):]
            self._send_reply(api.get_plan_endpoint(service, digest))
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    # ------------------------------------------------------------------
    def _read_json_body(self) -> Dict[str, Any]:
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
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None

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
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(fmt, *args)


class PlanHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`PlanService`."""

    daemon_threads = True
    allow_reuse_address = True

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
