"""Throughput/latency benchmarks for the partition-planning service.

Both benches drive the closed-loop load generator through two passes of
:data:`REQUESTS` requests from :data:`CONCURRENCY` clients, drawn
round-robin from :data:`PLANS` distinct plans: a cold pass on an empty
plan store and a warm pass that must be served from it.  The cold pass
computes only the :data:`PLANS` plans; the rest of its requests are
coalesced joins and store hits, so it measures request handling as much
as plan computation.

- In process: ``PlanService`` behind the stdlib HTTP front end on an
  ephemeral port, in this process.  Asserts zero failed requests,
  reconciled server counters, a >90% warm-pass store hit rate and the
  cold-pass floor :data:`SINGLE_COLD_RPS_FLOOR`.
- Subprocess: one ``hottiles serve --port 0 --workers 2 --queue-depth
  32``, so the clients run outside the server's process and interpreter.
  Asserts zero dropped connections, zero failed requests, every request
  completed, reconciled counters, the cold-pass floor
  :data:`SERVE_COLD_RPS_FLOOR`, and exit status 0 with a ``served:``
  line after SIGTERM.

The floors are committed constants calibrated on the CI machine class,
not a live A/B run, so one noisy neighbour cannot flip the verdict.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import List

import repro
from repro.service.httpd import make_server
from repro.service.loadgen import LoadgenPass, LoadgenReport, run_loadgen
from repro.service.planner import PlanService
from repro.service.store import PlanStore

REQUESTS = 200
CONCURRENCY = 8
PLANS = 6

#: Committed sustained-RPS floor for the in-process cold pass, well
#: under the measured 373-496 req/s on a 2-core machine.
SINGLE_COLD_RPS_FLOOR = 50.0

#: Committed sustained-RPS floor for the cold pass against a ``hottiles
#: serve`` subprocess, 2.5x the in-process floor.  One process measured
#: 545-643 req/s on a 2-core machine.
SERVE_COLD_RPS_FLOOR = 125.0


@dataclass(frozen=True)
class ServiceBenchResult:
    title: str
    report: LoadgenReport

    @property
    def passes(self) -> List[LoadgenPass]:
        return self.report.passes

    def render(self) -> str:
        lines = [f"{self.title} ({REQUESTS} req/pass, {CONCURRENCY} clients, "
                 f"{PLANS} plans):"]
        for p in self.passes:
            pct = p.latency.percentiles()
            lines.append(
                f"  {p.name:5s} {p.throughput_rps:8.1f} req/s   "
                f"p50 {pct['p50'] * 1e3:7.2f} ms  p95 {pct['p95'] * 1e3:7.2f} ms  "
                f"p99 {pct['p99'] * 1e3:7.2f} ms   "
                f"store hit rate {p.store_hit_rate:4.0%}"
            )
        lines.append(
            f"  counters reconcile: {'yes' if self.report.reconciles() else 'NO'}; "
            f"dropped connections: {self.report.transport_errors}"
        )
        return "\n".join(lines)


def _loadgen(base: str) -> LoadgenReport:
    return run_loadgen(
        base, requests=REQUESTS, concurrency=CONCURRENCY, plans=PLANS, passes=2
    )


def run_service_bench(tmp_dir: str) -> ServiceBenchResult:
    service = PlanService(store=PlanStore(tmp_dir), workers=4, queue_depth=32)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        report = _loadgen(f"http://127.0.0.1:{server.bound_port}")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return ServiceBenchResult("Plan-service benchmark, in process", report)


def test_service_bench(benchmark, tmp_path):
    result = benchmark.pedantic(
        lambda: run_service_bench(str(tmp_path / "plans")), rounds=1, iterations=1
    )
    print()
    print(result.render())
    assert result.report.failed == 0
    assert result.report.reconciles()
    cold, warm = result.passes
    assert cold.completed == REQUESTS and warm.completed == REQUESTS
    # The warm pass is pure plan-store traffic.
    assert warm.store_hit_rate > 0.9
    assert warm.throughput_rps > 0
    # Committed sustained-RPS floor (see module docstring).
    assert cold.throughput_rps >= SINGLE_COLD_RPS_FLOOR, (
        f"single-process cold pass {cold.throughput_rps:.1f} req/s fell "
        f"under the committed floor {SINGLE_COLD_RPS_FLOOR:.0f} req/s"
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeRun:
    result: ServiceBenchResult
    returncode: int
    output: str  #: everything the server printed


def run_serve_bench(tmp_dir: str) -> ServeRun:
    """Cold + warm against a ``hottiles serve`` subprocess, then SIGTERM."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--queue-depth", "32", "--store-dir", tmp_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"\bport=(\d+)", line)
        assert match, f"no port= token in the startup line: {line!r}"
        report = _loadgen(f"http://127.0.0.1:{match.group(1)}")
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    result = ServiceBenchResult("Plan-service benchmark, `hottiles serve`", report)
    return ServeRun(result, proc.returncode, line + rest)


def test_serve_bench(benchmark, tmp_path):
    run = benchmark.pedantic(
        lambda: run_serve_bench(str(tmp_path / "plans")), rounds=1, iterations=1
    )
    report = run.result.report
    print()
    print(run.result.render())
    # Every request resolved to an HTTP status and completed.
    assert report.transport_errors == 0, (
        f"{report.transport_errors} requests dropped without an HTTP status"
    )
    assert report.failed == 0
    assert report.reconciles()
    assert [p.completed for p in report.passes] == [REQUESTS, REQUESTS]
    # SIGTERM drains, prints the served counters and exits 0.
    assert run.returncode == 0, run.output
    assert "served: " in run.output, run.output
    cold = report.passes[0]
    assert cold.throughput_rps >= SERVE_COLD_RPS_FLOOR, (
        f"`hottiles serve` cold pass {cold.throughput_rps:.1f} req/s fell "
        f"under the committed floor {SERVE_COLD_RPS_FLOOR:.0f} req/s"
    )
