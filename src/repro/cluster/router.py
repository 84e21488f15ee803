"""The cluster's asyncio HTTP front end with digest-affinity routing.

One event loop accepts every client connection (no thread per
connection, no accept-loop GIL fight), parses a minimal HTTP/1.1
request, decides which shard owns it, forwards one length-prefixed JSON
frame (:mod:`repro.cluster.ipc`), and relays the shard's
``(status, body, headers)`` reply -- plus an ``X-Hottiles-Shard`` header
so load generators can attribute tail latency per shard.

Routing (docs/cluster.md):

- ``POST /plan`` -- the request digest (the same content address the
  plan store and coalescing key on) picks the shard through the
  consistent-hash :class:`~repro.cluster.ring.HashRing`, so repeats of a
  digest always land where its cache entry and in-flight computation
  live.
- ``POST /matrices/<digest>/delta`` -- lineage heads are *chained*
  digests that would hash anywhere; the router pins every digest a
  lineage has carried to the shard that owns its root (a bounded
  affinity map updated from each delta reply), keeping whole lineages
  shard-local.
- ``GET /plan/<digest>`` -- served by the owner, failing over around
  down shards: any shard can answer from the shared plan store.
- ``GET /stats`` -- fans out to every live shard and merges counters and
  histogram sample windows through :meth:`~repro.service.metrics.
  MetricsRegistry.merge`, so cluster percentiles equal what one shared
  registry would report.
- ``GET /healthz`` -- router-level liveness plus per-shard up/down.

A request owned by a down or draining shard answers ``503`` +
``Retry-After`` (never a dropped connection); the supervisor restarts
the shard and the same digest routes back to it.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.ipc import FrameError, read_frame_async, write_frame_async
from repro.cluster.ring import HashRing
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import PlanRequest, ProtocolError

__all__ = ["ShardAddress", "ClusterRouter"]

#: Advisory client backoff while a shard is down and being restarted.
DOWN_SHARD_RETRY_AFTER_S = 0.5

#: Most lineage digests remembered for affinity pinning.
AFFINITY_CAP = 65536

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ShardAddress:
    """Where one shard currently listens (mutable across restarts)."""

    __slots__ = ("shard_id", "host", "port")

    def __init__(self, shard_id: int, host: str, port: int) -> None:
        self.shard_id = int(shard_id)
        self.host = host
        self.port = int(port)


class ClusterRouter:
    """Async front end for N planner shards."""

    def __init__(
        self,
        shards: Dict[int, Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        forward_timeout_s: float = 300.0,
        max_body_bytes: int = 1 << 20,
        vnodes: int = 64,
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        self.host = host
        self._requested_port = int(port)
        self.forward_timeout_s = float(forward_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self.ring = HashRing(sorted(shards), vnodes=vnodes)
        self._addresses: Dict[int, ShardAddress] = {
            sid: ShardAddress(sid, h, p) for sid, (h, p) in shards.items()
        }
        self._affinity: "OrderedDict[str, int]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self.started_unix = time.time()
        # Router-side tallies; touched only on the event loop thread.
        self.counters: Dict[str, int] = {
            "routed": 0, "unavailable_503": 0, "bad_request_400": 0,
            "stats_merges": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle (call from the event loop that will own the server)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self._requested_port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def bound_port(self) -> int:
        if self._server is None:
            return self._requested_port
        return int(self._server.sockets[0].getsockname()[1])

    # ------------------------------------------------------------------
    # Shard table maintenance (manager calls these across threads; plain
    # attribute/dict mutations, atomic under the GIL)
    # ------------------------------------------------------------------
    def update_shard(self, shard_id: int, host: str, port: int) -> None:
        """Point ``shard_id`` at a new address (post-restart) and mark up."""
        entry = self._addresses.get(shard_id)
        if entry is None:
            raise KeyError(f"unknown shard {shard_id}")
        entry.host = host
        entry.port = int(port)
        self.ring.mark_up(shard_id)

    def mark_down(self, shard_id: int) -> None:
        self.ring.mark_down(shard_id)

    def mark_up(self, shard_id: int) -> None:
        self.ring.mark_up(shard_id)

    def shard_table(self) -> List[Dict[str, Any]]:
        return [
            {
                "shard": sid,
                "host": addr.host,
                "port": addr.port,
                "up": self.ring.is_up(sid),
            }
            for sid, addr in sorted(self._addresses.items())
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _owner_for_delta(self, digest: str) -> Optional[int]:
        pinned = self._affinity.get(digest)
        if pinned is not None:
            self._affinity.move_to_end(digest)
            return pinned
        return self.ring.route(digest)

    def _pin_lineage(self, digest: str, shard_id: int) -> None:
        self._affinity[digest] = shard_id
        self._affinity.move_to_end(digest)
        while len(self._affinity) > AFFINITY_CAP:
            self._affinity.popitem(last=False)

    # ------------------------------------------------------------------
    # Shard IPC
    # ------------------------------------------------------------------
    async def _forward(
        self, shard_id: int, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """One frame to ``shard_id``; ``None`` marks it down."""
        addr = self._addresses[shard_id]
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(addr.host, addr.port), timeout=5.0
            )
        except (OSError, asyncio.TimeoutError):
            self.ring.mark_down(shard_id)
            return None
        try:
            await write_frame_async(writer, message)
            reply = await asyncio.wait_for(
                read_frame_async(reader), timeout=self.forward_timeout_s
            )
        except (OSError, FrameError, asyncio.TimeoutError):
            self.ring.mark_down(shard_id)
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
        if reply is None:
            self.ring.mark_down(shard_id)
            return None
        return reply

    def _unavailable(self, shard_id: Optional[int]) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self.counters["unavailable_503"] += 1
        body = {
            "error": (
                "no shard available"
                if shard_id is None
                else f"shard {shard_id} is unavailable, retrying soon"
            ),
            "retry_after_s": DOWN_SHARD_RETRY_AFTER_S,
        }
        headers = {"Retry-After": f"{DOWN_SHARD_RETRY_AFTER_S:.3f}"}
        if shard_id is not None:
            headers["X-Hottiles-Shard"] = str(shard_id)
        return 503, body, headers

    async def _route_to_shard(
        self, shard_id: Optional[int], message: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if shard_id is None:
            return self._unavailable(None)
        if not self.ring.is_up(shard_id):
            # Known-down owner: answer immediately instead of burning a
            # connect attempt per request; the supervisor marks it up
            # again (update_shard) once the restarted shard handshakes.
            return self._unavailable(shard_id)
        reply = await self._forward(shard_id, message)
        if reply is None:
            return self._unavailable(shard_id)
        headers = dict(reply.get("headers") or {})
        headers["X-Hottiles-Shard"] = str(shard_id)
        return int(reply.get("status", 500)), reply.get("body") or {}, headers

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self.counters["routed"] += 1
        path = path.rstrip("/") or "/"
        if method == "POST" and path == "/plan":
            return await self._post_plan(payload)
        if (
            method == "POST"
            and path.startswith("/matrices/")
            and path.endswith("/delta")
        ):
            digest = path[len("/matrices/"):-len("/delta")]
            return await self._post_delta(digest, payload)
        if method == "GET" and path.startswith("/plan/"):
            return await self._get_plan(path[len("/plan/"):])
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/stats":
            return await self._stats()
        return 404, {"error": f"no such endpoint: {path}"}, {}

    async def _post_plan(
        self, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            request = PlanRequest.from_dict(payload or {})
            digest = request.digest()
        except (ProtocolError, TypeError) as exc:
            self.counters["bad_request_400"] += 1
            return 400, {"error": str(exc)}, {}
        shard_id = self.ring.route(digest)
        status, body, headers = await self._route_to_shard(
            shard_id, {"op": "plan", "payload": payload}
        )
        if status == 200 and shard_id is not None:
            # The plan digest doubles as a lineage root; pin it so the
            # first delta routes to the shard holding the lineage even
            # if the ring is later resized.
            self._pin_lineage(body.get("plan", {}).get("digest", digest), shard_id)
        return status, body, headers

    async def _post_delta(
        self, digest: str, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        shard_id = self._owner_for_delta(digest)
        status, body, headers = await self._route_to_shard(
            shard_id, {"op": "delta", "digest": digest, "payload": payload}
        )
        if status == 200 and shard_id is not None:
            new_digest = body.get("applied", {}).get("new_digest")
            if new_digest:
                self._pin_lineage(new_digest, shard_id)
        elif status == 409 and shard_id is not None:
            head = body.get("head_digest")
            if head:
                self._pin_lineage(head, shard_id)
        return status, body, headers

    async def _get_plan(
        self, digest: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        pinned = self._affinity.get(digest)
        shard_id = pinned if pinned is not None else self.ring.route(digest, failover=True)
        return await self._route_to_shard(
            shard_id, {"op": "get_plan", "digest": digest}
        )

    def _healthz(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        table = self.shard_table()
        up = sum(1 for row in table if row["up"])
        status = 200 if up else 503
        return status, {
            "status": "ok" if up else "no shards up",
            "shards_up": up,
            "shards_total": len(table),
        }, {}

    async def _stats(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Cross-shard aggregation: one merged snapshot + per-shard detail."""
        self.counters["stats_merges"] += 1
        shard_ids = self.ring.shard_ids
        replies = await asyncio.gather(
            *(self._forward(sid, {"op": "stats"}) for sid in shard_ids)
        )
        aggregate = MetricsRegistry()
        store: Dict[str, Any] = {"session_hits": 0, "session_misses": 0,
                                 "entries": 0, "total_bytes": 0}
        lineages = 0
        uptime = 0.0
        shards_detail: List[Dict[str, Any]] = []
        for sid, reply in zip(shard_ids, replies):
            row: Dict[str, Any] = {"shard": sid, "up": reply is not None}
            if reply is None or reply.get("status") != 200:
                shards_detail.append(row)
                continue
            body = reply.get("body") or {}
            aggregate.merge(body.get("metrics_dump") or {})
            shard_store = body.get("store") or {}
            store["session_hits"] += int(shard_store.get("session_hits", 0))
            store["session_misses"] += int(shard_store.get("session_misses", 0))
            # The on-disk store is shared: entries/bytes are one set seen
            # by every shard, so take the max rather than double count.
            store["entries"] = max(store["entries"], int(shard_store.get("entries", 0)))
            store["total_bytes"] = max(
                store["total_bytes"], int(shard_store.get("total_bytes", 0))
            )
            store.setdefault("store_dir", shard_store.get("store_dir"))
            lineages += int(body.get("lineages", 0))
            uptime = max(uptime, float(body.get("uptime_s", 0.0)))
            row.update(
                port=self._addresses[sid].port,
                draining=bool(body.get("draining", False)),
                counters=body.get("counters", {}),
                lineages=int(body.get("lineages", 0)),
                last_errors=body.get("last_errors", []),
            )
            shards_detail.append(row)
        hits = store["session_hits"]
        gets = hits + store["session_misses"]
        store["hit_rate"] = hits / gets if gets else 0.0
        merged = aggregate.snapshot()
        merged["store"] = store
        merged["lineages"] = lineages
        merged["uptime_s"] = uptime
        merged["closed"] = False
        merged["server"] = {"host": self.host, "port": self.bound_port}
        merged["cluster"] = {
            "shards": shards_detail,
            "router": dict(self.counters),
            "router_uptime_s": time.time() - self.started_unix,
        }
        return 200, merged, {}

    # ------------------------------------------------------------------
    # Minimal HTTP/1.1 plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (OSError, asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            await self._respond(writer, 400, {"error": "malformed request line"}, {},
                                close=True)
            return False
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        close = headers.get("connection", "").lower() == "close"
        payload: Optional[Dict[str, Any]] = None
        if method == "POST":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                await self._respond(writer, 400, {"error": "bad Content-Length header"},
                                    {}, close=True)
                return False
            if length <= 0:
                await self._respond(writer, 400, {"error": "request body required"},
                                    {}, close=close)
                return not close
            if length > self.max_body_bytes:
                await self._respond(
                    writer, 400,
                    {"error": f"request body too large ({length} > "
                              f"{self.max_body_bytes} bytes)"},
                    {}, close=True)
                return False
            raw = await reader.readexactly(length)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                await self._respond(
                    writer, 400,
                    {"error": f"request body is not valid JSON: {exc}"},
                    {}, close=close)
                return not close
        try:
            status, body, extra = await self.dispatch(
                method, target.split("?", 1)[0], payload
            )
        except Exception as exc:  # noqa: BLE001 -- never drop a connection
            status, extra = 500, {}
            body = {"error": f"{type(exc).__name__}: {exc}"}
        await self._respond(writer, status, body, extra, close=close)
        return not close

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, Any],
        headers: Dict[str, str],
        close: bool,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()
