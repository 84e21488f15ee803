"""Closed-loop load generator for the plan service.

``concurrency`` client threads each keep exactly one request in flight
(the classic closed loop), drawing round-robin from a set of ``plans``
distinct plan requests until ``requests`` total have completed.  A
``429`` reply is not a failure: the client honours ``Retry-After`` and
retries, which is precisely the contract backpressure advertises.

:func:`run_loadgen` runs the workload twice by default -- a cold pass
that populates the plan store and a warm pass that must be served from
it -- and reads ``GET /stats`` around each pass so the report can state
the store hit rate and verify the server's counters reconcile with the
client's totals.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.service.metrics import Histogram

__all__ = [
    "default_request_payloads",
    "LoadgenPass",
    "LoadgenReport",
    "run_pass",
    "run_loadgen",
]


def default_request_payloads(
    plans: int, scale: int = 9, nnz: int = 6_000, arch: str = "spade-sextans"
) -> List[Dict[str, Any]]:
    """``plans`` distinct (by seed) small R-MAT plan requests."""
    if plans < 1:
        raise ValueError("plans must be >= 1")
    return [
        {
            "arch": arch,
            "scale": 4,
            "generator": {"kind": "rmat", "scale": scale, "nnz": nnz, "seed": seed},
        }
        for seed in range(plans)
    ]


# ----------------------------------------------------------------------
@dataclass
class LoadgenPass:
    """Outcome of one closed-loop pass."""

    name: str
    requests: int = 0
    completed: int = 0
    failed: int = 0
    retries_429: int = 0  #: backpressure retries (not failures)
    served: Dict[str, int] = field(default_factory=dict)  #: store/computed/coalesced
    wall_s: float = 0.0
    latency: Histogram = field(default_factory=Histogram)
    store_hits_delta: int = 0
    store_gets_delta: int = 0
    errors: List[str] = field(default_factory=list)
    transport_errors: int = 0  #: dropped connections (no HTTP status at all)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def store_hit_rate(self) -> float:
        if self.store_gets_delta <= 0:
            return 0.0
        return self.store_hits_delta / self.store_gets_delta

    def render(self) -> str:
        p = self.latency.percentiles()
        served = ", ".join(f"{k}={v}" for k, v in sorted(self.served.items()))
        lines = [
            f"{self.name}: {self.completed}/{self.requests} ok, "
            f"{self.failed} failed, {self.retries_429} backpressure retries "
            f"in {self.wall_s:.2f}s ({self.throughput_rps:.1f} req/s)",
            f"  latency p50 {p['p50'] * 1e3:.1f} ms, p95 {p['p95'] * 1e3:.1f} ms, "
            f"p99 {p['p99'] * 1e3:.1f} ms",
            f"  served: {served or '-'}; plan-store hit rate {self.store_hit_rate:.0%}",
        ]
        for err in self.errors[:5]:
            lines.append(f"  error: {err}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable record (the loadgen ``--json`` artifact)."""
        p = self.latency.percentiles()
        return {
            "name": self.name,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "transport_errors": self.transport_errors,
            "retries_429": self.retries_429,
            "served": dict(self.served),
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {k: v * 1e3 for k, v in p.items()},
            "store_hit_rate": self.store_hit_rate,
            "errors": list(self.errors[:10]),
        }


@dataclass
class LoadgenReport:
    passes: List[LoadgenPass]
    server_stats: Dict[str, Any]  #: final /stats snapshot

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def reconciles(self) -> bool:
        """Server counters vs. the accounting contract (see planner docs)."""
        counters = self.server_stats.get("counters", {})
        accepted = counters.get("requests_accepted", 0)
        settled = (
            counters.get("requests_completed", 0)
            + counters.get("requests_failed", 0)
            + counters.get("requests_timeout", 0)
            + counters.get("requests_degraded", 0)
        )
        return accepted == settled

    @property
    def transport_errors(self) -> int:
        """Dropped connections (no HTTP status at all) across all passes."""
        return sum(p.transport_errors for p in self.passes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passes": [p.to_dict() for p in self.passes],
            "failed": self.failed,
            "transport_errors": self.transport_errors,
            "reconciles": self.reconciles(),
            "server_counters": dict(self.server_stats.get("counters", {})),
        }

    def render(self) -> str:
        lines = [p.render() for p in self.passes]
        counters = self.server_stats.get("counters", {})
        lines.append(
            "server: accepted={requests_accepted} completed={requests_completed} "
            "failed={requests_failed} timeout={requests_timeout} "
            "degraded={requests_degraded} rejected={requests_rejected} "
            "coalesced={requests_coalesced} computed={plans_computed} "
            "retried={plans_retried}".format(
                **{
                    k: counters.get(k, 0)
                    for k in (
                        "requests_accepted", "requests_completed", "requests_failed",
                        "requests_timeout", "requests_degraded", "requests_rejected",
                        "requests_coalesced", "plans_computed", "plans_retried",
                    )
                }
            )
        )
        lines.append(
            "counters reconcile "
            "(accepted = completed + failed + timeout + degraded): "
            + ("yes" if self.reconciles() else "NO")
        )
        lines.append(f"dropped connections (transport errors): {self.transport_errors}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
class BadReply(ValueError):
    """A success reply (no error status) whose body is not a JSON object."""


def _http_json(
    url: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout_s: float = 60.0,
) -> Any:
    """One request; returns ``(status, decoded_body, headers)``.

    Raises ``OSError`` (``URLError`` included) or ``http.client.
    HTTPException`` when no complete HTTP reply arrives, and
    :class:`BadReply` when a ``200`` body is not a JSON object.  An
    error status with such a body decodes to ``{"error": <text>}``.
    """
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            raw = resp.read()
            decoded = _json_object(raw)
            if decoded is None:
                raise BadReply(
                    f"HTTP {resp.status} body is not a JSON object: {raw[:80]!r}"
                )
            return resp.status, decoded, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        decoded = _json_object(body) if body else {}
        if decoded is None:
            decoded = {"error": body.decode("utf-8", "replace")}
        return exc.code, decoded, dict(exc.headers or {})


def _json_object(raw: bytes) -> Optional[Dict[str, Any]]:
    try:
        decoded = json.loads(raw)
    except ValueError:
        return None
    return decoded if isinstance(decoded, dict) else None


def fetch_stats(base_url: str, timeout_s: float = 10.0) -> Dict[str, Any]:
    status, body, _ = _http_json(f"{base_url}/stats", timeout_s=timeout_s)
    if status != 200:
        raise RuntimeError(f"GET /stats -> {status}: {body}")
    return body


def run_pass(
    base_url: str,
    payloads: Sequence[Dict[str, Any]],
    requests: int,
    concurrency: int,
    name: str = "pass",
    max_retries: int = 64,
    request_timeout_s: float = 120.0,
) -> LoadgenPass:
    """One closed-loop pass of ``requests`` total requests."""
    if requests < 1 or concurrency < 1:
        raise ValueError("requests and concurrency must be >= 1")
    result = LoadgenPass(name=name, requests=requests)
    counter_lock = threading.Lock()
    next_index = [0]
    url = f"{base_url}/plan"

    def take() -> Optional[int]:
        with counter_lock:
            if next_index[0] >= requests:
                return None
            i = next_index[0]
            next_index[0] += 1
            return i

    def record(outcome: str, latency_s: float, served: Optional[str],
               retries: int, error: Optional[str]) -> None:
        with counter_lock:
            if outcome == "ok":
                result.completed += 1
                result.latency.observe(latency_s)
                if served:
                    result.served[served] = result.served.get(served, 0) + 1
            else:
                result.failed += 1
                if error and error.startswith("transport:"):
                    result.transport_errors += 1
                if error and len(result.errors) < 32:
                    result.errors.append(error)
            result.retries_429 += retries

    def client() -> None:
        while True:
            i = take()
            if i is None:
                return
            payload = payloads[i % len(payloads)]
            retries = 0
            start = time.monotonic()
            while True:
                try:
                    status, body, headers = _http_json(
                        url, payload, timeout_s=request_timeout_s
                    )
                except (OSError, http.client.HTTPException) as exc:
                    # No complete HTTP reply: refused, reset, timed out,
                    # a status line that is not HTTP, or a cut-off body.
                    record("failed", 0.0, None, retries,
                           f"transport: {type(exc).__name__}: {exc}")
                    break
                except BadReply as exc:
                    record("failed", 0.0, None, retries, str(exc))
                    break
                if status == 200:
                    record("ok", time.monotonic() - start, body.get("served"),
                           retries, None)
                    break
                retry_after = headers.get("Retry-After")
                if (
                    retries < max_retries
                    and (status == 429 or (status == 503 and retry_after))
                ):
                    # Backpressure (429) and retryable plan failures
                    # (503 + Retry-After) are both invitations to retry.
                    retries += 1
                    try:
                        delay = float(retry_after) if retry_after else 0.05
                    except ValueError:
                        delay = 0.05
                    time.sleep(min(delay, 1.0))
                    continue
                record(
                    "failed", 0.0, None, retries,
                    f"HTTP {status}: {body.get('error', body)}",
                )
                break

    before = fetch_stats(base_url)
    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_s = time.monotonic() - start
    after = fetch_stats(base_url)

    def store_counter(stats: Dict[str, Any], key: str) -> int:
        return int(stats.get("store", {}).get(key, 0))

    hits = store_counter(after, "session_hits") - store_counter(before, "session_hits")
    misses = (
        store_counter(after, "session_misses") - store_counter(before, "session_misses")
    )
    result.store_hits_delta = hits
    result.store_gets_delta = hits + misses
    return result


def run_loadgen(
    base_url: str,
    requests: int = 200,
    concurrency: int = 8,
    plans: int = 4,
    passes: int = 2,
    max_retries: int = 64,
) -> LoadgenReport:
    """The standard cold-then-warm workload against a running server."""
    payloads = default_request_payloads(plans)
    names = ["cold"] + [f"warm{i if passes > 2 else ''}" for i in range(1, passes)]
    results = [
        run_pass(
            base_url,
            payloads,
            requests=requests,
            concurrency=concurrency,
            name=names[i],
            max_retries=max_retries,
        )
        for i in range(passes)
    ]
    return LoadgenReport(passes=results, server_stats=fetch_stats(base_url))
