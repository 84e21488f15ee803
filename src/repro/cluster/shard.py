"""One planner shard: a :class:`PlanService` behind the frame IPC.

A shard is a separate OS process (its own interpreter, its own GIL)
hosting exactly the :class:`~repro.service.planner.PlanService` the
single-process server hosts -- same bounded admission queue, coalescing,
retry taxonomy, and metrics.  It listens on a loopback TCP port for
length-prefixed JSON frames (:mod:`repro.cluster.ipc`) instead of HTTP;
the router terminates HTTP and forwards one ``{"op": ...}`` frame per
request.  Endpoint semantics come from :mod:`repro.service.api`, shared
with the HTTP front end, so a reply's ``(status, body, headers)`` is
bit-identical whichever transport carried it.

Ops::

    {"op": "plan",     "payload": {...}}          -> plan_endpoint
    {"op": "delta",    "digest": d, "payload": p} -> delta_endpoint
    {"op": "get_plan", "digest": d}               -> get_plan_endpoint
    {"op": "stats"}                               -> stats + metrics dump
    {"op": "healthz"}                             -> liveness + drain state
    {"op": "drain"}                               -> start graceful drain
    {"op": "stop"}                                -> exit after replying

Run as a process with ``python -m repro.cluster.shard --shard-id N
--port 0 ...``; on startup it prints one machine-parseable handshake
line (``hottiles-shard ready shard=N port=P pid=...``) reporting the
kernel-chosen ephemeral port, which is how the manager learns where the
shard landed without racing on fixed ports.
"""

from __future__ import annotations

import argparse
import os
import socket
import socketserver
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.cluster.ipc import FrameError, recv_frame, send_frame
from repro.service import api
from repro.service.planner import PlanService
from repro.service.store import PlanStore

__all__ = ["ShardServer", "serve_shard", "main", "HANDSHAKE_PREFIX"]

#: First token of the startup line the manager parses.
HANDSHAKE_PREFIX = "hottiles-shard ready"


class _ShardHandler(socketserver.BaseRequestHandler):
    server: "ShardServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        while True:
            try:
                message = recv_frame(sock)
            except (FrameError, OSError):
                return
            if message is None:
                return
            try:
                reply = self.server.dispatch(message)
            except Exception as exc:  # noqa: BLE001 -- never drop a frame
                reply = {
                    "status": 500,
                    "body": {"error": f"{type(exc).__name__}: {exc}"},
                    "headers": {},
                }
            try:
                send_frame(sock, reply)
            except OSError:
                return
            if reply.get("_stop"):
                self.server.begin_stop()
                return


class ShardServer(socketserver.ThreadingTCPServer):
    """The shard's frame loop around one :class:`PlanService`."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(
        self,
        shard_id: int,
        service: PlanService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.shard_id = int(shard_id)
        self.service = service
        self._draining = False
        self._drained = threading.Event()
        self._drain_thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        super().__init__((host, port), _ShardHandler)

    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        return int(self.server_address[1])

    def describe(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_id,
            "host": self.server_address[0],
            "port": self.bound_port,
            "pid": os.getpid(),
        }

    def handshake_line(self) -> str:
        d = self.describe()
        return (
            f"{HANDSHAKE_PREFIX} shard={d['shard']} port={d['port']} "
            f"pid={d['pid']}"
        )

    # ------------------------------------------------------------------
    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One IPC frame in, one ``{"status", "body", "headers"}`` out."""
        op = message.get("op")
        service = self.service
        if op == "plan":
            reply = api.plan_endpoint(service, message.get("payload") or {})
        elif op == "delta":
            reply = api.delta_endpoint(
                service,
                str(message.get("digest", "")),
                message.get("payload") or {},
            )
        elif op == "get_plan":
            reply = api.get_plan_endpoint(service, str(message.get("digest", "")))
        elif op == "stats":
            status, body, headers = api.stats_endpoint(
                service, server=self.describe()
            )
            body["metrics_dump"] = service.metrics.dump()
            body["draining"] = self._draining
            reply = (status, body, headers)
        elif op == "healthz":
            status, body, headers = api.healthz_endpoint(service)
            body["shard"] = self.shard_id
            body["draining"] = self._draining
            body["drained"] = self._drained.is_set()
            reply = (status, body, headers)
        elif op == "drain":
            self.start_drain()
            reply = (200, {"draining": True, "shard": self.shard_id}, {})
        elif op == "stop":
            return {
                "status": 200,
                "body": {"stopping": True, "shard": self.shard_id},
                "headers": {},
                "_stop": True,
            }
        else:
            reply = (400, {"error": f"unknown op: {op!r}"}, {})
        status, body, headers = reply
        return {"status": status, "body": body, "headers": dict(headers)}

    # ------------------------------------------------------------------
    def start_drain(self) -> None:
        """Begin a graceful drain: stop admission, finish in-flight work.

        Idempotent; runs ``service.close(drain=True)`` off the handler
        thread so the drain reply returns immediately while admitted
        plans finish.  Requests arriving meanwhile answer ``503`` +
        ``Retry-After`` straight from the service's closed check.
        """
        if self._draining:
            return
        self._draining = True
        # Stop admission *before* the drain reply goes out, so a client
        # that saw the 200 can rely on every later request getting 503.
        self.service.begin_close(drain=True)

        def _drain() -> None:
            self.service.close(drain=True)
            self._drained.set()

        self._drain_thread = threading.Thread(
            target=_drain, name=f"shard-{self.shard_id}-drain", daemon=True
        )
        self._drain_thread.start()

    def begin_stop(self) -> None:
        """Request shutdown of the serve loop (from a handler thread)."""
        if not self._stop_requested.is_set():
            self._stop_requested.set()
            threading.Thread(target=self.shutdown, daemon=True).start()


# ----------------------------------------------------------------------
def serve_shard(
    shard_id: int,
    store_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    queue_depth: int = 16,
    timeout_s: float = 60.0,
    degraded_fallback: bool = True,
    announce=print,
) -> int:
    """Build the service, bind, announce the port, serve until stopped."""
    service = PlanService(
        store=PlanStore(store_dir),
        workers=workers,
        queue_depth=queue_depth,
        default_timeout_s=timeout_s,
        degraded_fallback=degraded_fallback,
    )
    server = ShardServer(shard_id, service, host=host, port=port)
    announce(server.handshake_line())
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close(drain=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.shard",
        description="One planner shard of a hottiles cluster (docs/cluster.md)",
    )
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = kernel-chosen, reported on stdout)",
    )
    parser.add_argument("--store-dir", required=True,
                        help="the cluster-shared plan store directory")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--no-degraded-fallback", action="store_true")
    args = parser.parse_args(argv)

    def announce(line: str) -> None:
        print(line, flush=True)

    return serve_shard(
        args.shard_id,
        args.store_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_s=args.timeout,
        degraded_fallback=not args.no_degraded_fallback,
        announce=announce,
    )


if __name__ == "__main__":
    sys.exit(main())
