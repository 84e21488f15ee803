"""The serving path: HTTP request -> plan, against ``hottiles serve``.

The server is a ``hottiles serve --port 0 --workers 2`` subprocess on a
fresh plan store.  Load is an open loop from this process over two
persistent connections, one sender thread each; every request is timed
from the moment it was due, so a stall also charges the requests queued
behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import HotTilesPartitioner, plan_cache_from, repair_plan
from repro.experiments.cache import stable_digest
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.service.protocol import PlanRequest
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_tiled
from repro.streaming.delta import DeltaBatch, delta_stream

from bench import pipeline, trace_summary
from bench.common import (
    CLIENT_CPUS,
    CPUS,
    OUT_DIR,
    ROOT,
    SRC,
    WARMUP_S,
    WORK_CPU,
    Op,
    WorkloadRun,
    latency_metrics,
    process_peak_rss_mb,
    quality_metrics,
    repeat_setup,
)

ARCHS = pipeline.ARCHS

#: Store-hit reads spread over this many plans computed during set-up.
READ_SET = 8
#: serve-plans: Poisson arrivals per second; classes repeat this pattern
#: (60% reads, 40% cold plans), so every run has the same mix.  The
#: arrival times are one fixed draw: the seed varies what is requested,
#: not how bursty the traffic is.
PLANS_RATE = 10.0
PLANS_ARRIVAL_SEED = 0
PLANS_PATTERN = ("read", "cold", "read", "cold", "read")
#: serve-deltas: fixed-interval deltas on one connection, reads beside
#: them on the other.  The batches go to two lineages of one matrix, the
#: first through the first half of the timed window and the second
#: through the other half, so every batch is applied twice, seconds apart.
DELTA_RATE = 10.0
DELTA_READ_RATE = 8.0
DELTA_INSERTS = 200
DELTA_DELETES = 100
DELTA_REGION = (0, 1024, 0, 1024)
#: in-process probes of the delta path replay at most this many batches
DELTA_PROBES = 24
#: how often the idle-time host-speed probe looks for a gap in the traffic
PROBE_INTERVAL_S = 0.05
#: Linux's socket option to acknowledge received data at once (see ``call``)
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def _rmat(scale: int, nnz: int, seed: int) -> Dict[str, Any]:
    return {"kind": "rmat", "scale": scale, "nnz": nnz, "seed": seed}


# ----------------------------------------------------------------------
# The server subprocess and its clients
# ----------------------------------------------------------------------
class Server:
    """``hottiles serve`` on an ephemeral port and a fresh plan store,
    pinned to :data:`WORK_CPU` (see :meth:`move_to`)."""

    def __init__(self, trace_file: Optional[Path] = None) -> None:
        self._store = tempfile.TemporaryDirectory(prefix="store-", dir=OUT_DIR)
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", "2", "--store-dir", self._store.name,
        ]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {WORK_CPU}),
        )
        line = self.proc.stdout.readline()
        match = re.search(r"port=(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def move_to(self, cpus: Iterable[int]) -> None:
        """Let every thread of the idle server run on ``cpus``; threads it
        starts later inherit that from their parent."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), set(cpus))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stats(self) -> Dict[str, Any]:
        conn = self.connect()
        try:
            status, body = call(conn, "GET", "/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain and stop the server (it writes its trace on the way out)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._store.cleanup()


def call(
    conn: http.client.HTTPConnection, method: str, path: str, body: Any = None
) -> Tuple[int, Dict[str, Any]]:
    """One request; ``(0, {"error": ...})`` when the connection fails.

    The server sends a reply's headers and body in two writes without
    ``TCP_NODELAY``, so the body waits for the client to acknowledge the
    headers; a client that delays its ACK stalls about 40 ms, on some
    requests and not others, depending on timing.  The client acknowledges
    at once so that latency measures the service, not that interplay.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {} if data is None else {"Content-Type": "application/json"}
    try:
        conn.request(method, path, body=data, headers=headers)
        if QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
        resp = conn.getresponse()
        raw = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()  # the next request reconnects
        return 0, {"error": f"{type(exc).__name__}: {exc}"}
    return resp.status, json.loads(raw) if raw else {}


def plan_now(server: Server, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Plan one request during set-up; it must succeed."""
    conn = server.connect()
    try:
        status, body = call(conn, "POST", "/plan", payload)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"set-up plan failed with {status}: {body.get('error')}")
    return body["plan"]


# ----------------------------------------------------------------------
# Open-loop traffic
# ----------------------------------------------------------------------
Check = Callable[[Dict[str, Any]], List[str]]


@dataclass(frozen=True)
class Item:
    """One scheduled request."""

    due: float  #: seconds after the schedule starts
    cls: str
    path: str
    body: Dict[str, Any]
    check: Check  #: problems with a 200 reply's body
    nnz: int = 0  #: size of the plan a write produces (0 for reads)
    key: str = ""  #: 12-hex digest prefix when unique to this request


@dataclass(frozen=True)
class Result:
    item: Item
    due: float
    sent: float
    done: float
    status: int
    body: Dict[str, Any] = field(repr=False)


class Lane:
    """Scheduled requests, sent in due order by ``senders`` connections.

    Each connection takes the next request once its previous reply is
    in, so a lane with two senders queues like a two-server system.
    """

    def __init__(self, items: Sequence[Item], senders: int = 1) -> None:
        self.items = list(items)
        self.senders = senders
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Optional[Item]:
        with self._lock:
            if self._next == len(self.items):
                return None
            self._next += 1
            return self.items[self._next - 1]


class _InFlight:
    """Counts requests awaiting their reply, across sender threads."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def __enter__(self) -> None:
        with self._lock:
            self._count += 1

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self._count -= 1

    def idle(self) -> bool:
        with self._lock:
            return self._count == 0


def _send(server: Server, lane: Lane, t0: float, inflight: _InFlight, out: List[Result]) -> None:
    conn = server.connect()
    tracer = get_tracer()
    try:
        for item in iter(lane.take, None):
            due = t0 + item.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            with inflight, tracer.span("bench.request", cat="bench", cls=item.cls, digest=item.key):
                status, body = call(conn, "POST", item.path, item.body)
            out.append(Result(item, due, sent, time.perf_counter(), status, body))
    finally:
        conn.close()


def drive(run: WorkloadRun, server: Server, lanes: Sequence[Lane]) -> List[Result]:
    """Send every lane's schedule, one thread per connection; the replies
    come back in schedule order.

    Meanwhile this thread probes the host's speed, but only while no
    request is in flight: a probe beside a busy server would measure the
    competition for the two cores, not the host.
    """
    run.clock.probe(run.clock.BURST)
    t0 = time.perf_counter() + 0.05
    inflight = _InFlight()
    outs: List[List[Result]] = []
    threads = []
    for lane in lanes:
        for _ in range(lane.senders):
            outs.append([])
            threads.append(threading.Thread(
                target=_send, args=(server, lane, t0, inflight, outs[-1]),
                name=f"conn-{len(threads)}",
            ))
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        if inflight.idle():
            run.clock.probe()
        time.sleep(PROBE_INTERVAL_S)
    for thread in threads:
        thread.join()
    run.clock.probe(run.clock.BURST)
    results = sorted((r for out in outs for r in out), key=lambda r: r.item.due)
    if len(results) != sum(len(lane.items) for lane in lanes):
        raise RuntimeError(f"senders stopped after {len(results)} requests")
    return results


def settle(run: WorkloadRun, results: Sequence[Result]) -> List[Op]:
    """Check every reply; return the timed-window operations."""
    ops = []
    for r in results:
        if r.status == 200:
            problems = r.item.check(r.body)
        else:
            problems = [f"{r.item.cls} {r.item.path}: HTTP {r.status} {r.body.get('error')}"]
        ok = run.check(problems)
        if r.item.due >= WARMUP_S:
            ops.append(Op(r.item.cls, r.due, r.sent, r.done, ok, r.item.nnz))
    return ops


def _same_plan(want: Dict[str, Any], kind: str) -> Check:
    def check(body: Dict[str, Any]) -> List[str]:
        got = body.get("plan", {})
        problems = [
            f"{kind} {want['digest'][:12]}: {key} {got.get(key)!r} != {want[key]!r}"
            for key in ("digest", "label", "hot_tiles", "predicted_time_s", "nnz")
            if got.get(key) != want[key]
        ]
        if body.get("served") != "store":
            problems.append(f"{kind} {want['digest'][:12]}: served {body.get('served')!r}")
        return problems

    return check


def read_items(
    warm: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]], dues: Sequence[float], seed: int
) -> List[Item]:
    """Store-hit reads, uniform over the warm set."""
    pick = np.random.default_rng(seed + 7).integers(0, len(warm), len(dues))
    return [
        Item(due, "read", "/plan", warm[k][0], _same_plan(warm[k][1], "read"))
        for due, k in zip(dues, pick.tolist())
    ]


def seed_reads(server: Server, seed: int) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Plan the read set; returns ``(request, plan)`` pairs."""
    warm = []
    for k in range(READ_SET):
        payload = {"arch": ARCHS[k % len(ARCHS)], "generator": _rmat(11, 60_000, seed * 1000 + k)}
        warm.append((payload, plan_now(server, payload)))
    return warm


# ----------------------------------------------------------------------
# Checking served plans against in-process runs
# ----------------------------------------------------------------------
Served = Tuple[str, PlanRequest, Any, Dict[str, Any]]


def verify_served(run: WorkloadRun, served: Sequence[Served]) -> None:
    """Recompute each served plan in process, compare, and score it.

    ``served`` holds ``(label, request, matrix, plan)``: the plan the
    server answered for ``matrix``.  The in-process pass is the pipeline
    workloads' pass on the server's (uncalibrated) architecture.
    """
    speedups, errors = [], []
    for label, request, matrix, plan in served:
        case = pipeline.Case(label, matrix, request.build_architecture())
        out = pipeline.run_pass(case, 0)
        chosen = out.result.chosen
        problems = pipeline.conservation_problems(label, matrix.nnz, out)
        for key, mine in (
            ("label", chosen.label),
            ("hot_tiles", chosen.hot_tile_count),
            ("predicted_time_s", chosen.predicted_time_s),
            ("nnz", matrix.nnz),
        ):
            if plan.get(key) != mine:
                problems.append(f"{label}: served {key} {plan.get(key)!r} != in-process {mine!r}")
        run.check(problems)
        speedup, case_errors = pipeline.speedup_and_error(case.arch, out)
        speedups.append(speedup)
        errors += case_errors
    quality_metrics(run, speedups, errors)


def probe_served(served: Sequence[Served]) -> List[trace_summary.PassFacts]:
    """The traced in-process passes over the served inputs: the per-layer
    numbers of the library layers the server runs inside one span."""
    facts = []
    for op, (label, request, matrix, _) in enumerate(served):
        out = pipeline.run_pass(pipeline.Case(label, matrix, request.build_architecture()), op)
        pipeline.probe_layers(out, op)
        facts.append(pipeline.pass_facts(out))
    return facts


def _traced(
    run: WorkloadRun,
    trace_dir: Path,
    start: Callable[[Optional[Path]], Tuple[Server, Any]],
    lanes_of: Callable[[Any], Sequence[Lane]],
) -> Tuple[Tracer, List[Result]]:
    """Replay the schedule against a tracing server with the bench traced."""
    trace_file = trace_dir / f"{run.workload}-server.json"
    server, state = start(trace_file)
    tracer = Tracer(enabled=True)
    try:
        with use_tracer(tracer):
            results = drive(run, server, lanes_of(state))
        stats = server.stats()
    finally:
        server.stop()
    ops = settle(run, results)
    run.layers.update(trace_summary.bench_health(run, ops))
    client = {r.item.key: r.done - r.sent for r in results if r.item.key and r.status == 200}
    spans = trace_summary.chrome_spans(trace_file)
    run.layers.update(trace_summary.service_layers(spans, client, stats))
    run.files.append(str(trace_file))
    return tracer, results


# ----------------------------------------------------------------------
# serve-plans
# ----------------------------------------------------------------------
def run_serve_plans(run: WorkloadRun, seed: int, seconds: float, trace_dir: Optional[Path]) -> None:
    # Two plans at a time: once set up, the server and this process share
    # every CPU.
    os.sched_setaffinity(0, CPUS)
    total = WARMUP_S + seconds
    rng = np.random.default_rng(PLANS_ARRIVAL_SEED)
    dues, t = [], rng.exponential(1.0 / PLANS_RATE)
    while t < total:
        dues.append(t)
        t += rng.exponential(1.0 / PLANS_RATE)
    classes = [PLANS_PATTERN[i % len(PLANS_PATTERN)] for i in range(len(dues))]
    cold_payloads = [
        {"arch": ARCHS[j % len(ARCHS)], "generator": _rmat(11, 60_000, seed * 1000 + 100 + j)}
        for j in range(classes.count("cold"))
    ]
    cold_digests = [PlanRequest.from_dict(p).digest() for p in cold_payloads]

    def cold_check(digest: str) -> Check:
        def check(body: Dict[str, Any]) -> List[str]:
            plan = body.get("plan", {})
            problems = []
            if body.get("served") != "computed":
                problems.append(f"cold {digest[:12]}: served {body.get('served')!r}")
            if plan.get("digest") != digest or plan.get("nnz") != 60_000:
                problems.append(f"cold {digest[:12]}: wrong plan {plan.get('digest')!r}")
            return problems

        return check

    cold_items = [
        Item(due, "cold", "/plan", payload, cold_check(digest), nnz=60_000, key=digest[:12])
        for due, payload, digest in zip(
            [d for d, c in zip(dues, classes) if c == "cold"], cold_payloads, cold_digests
        )
    ]
    read_dues = [d for d, c in zip(dues, classes) if c == "read"]

    def start(trace_file: Optional[Path] = None) -> Tuple[Server, Any]:
        server = Server(trace_file)
        try:
            warm = seed_reads(server, seed)
            server.move_to(CPUS)
            return server, warm
        except BaseException:
            server.stop()
            raise

    def lanes_of(warm: Any) -> Sequence[Lane]:
        items = cold_items + read_items(warm, read_dues, seed)
        return [Lane(sorted(items, key=lambda item: item.due), senders=2)]

    server, warm = repeat_setup(run, start, lambda state: state[0].stop())
    try:
        results = drive(run, server, lanes_of(warm))
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    latency_metrics(run, settle(run, results))

    # Three timed-window cold plans per architecture, in schedule order.
    sampled: List[Served] = []
    for r in results:
        per_arch = sum(s[1].arch == r.item.body["arch"] for s in sampled)
        if r.item.cls == "cold" and r.item.due >= WARMUP_S and per_arch < 3 and r.status == 200:
            request = PlanRequest.from_dict(r.item.body)
            sampled.append((f"cold {r.item.key}", request, request.resolve_matrix(), r.body["plan"]))
    verify_served(run, sampled)

    if trace_dir is not None:
        tracer, _ = _traced(run, trace_dir, start, lanes_of)
        with use_tracer(tracer):
            facts = probe_served(sampled)
        run.layers.update(trace_summary.pipeline_layers(tracer, facts))
        trace_summary.save_bench_trace(run, tracer, trace_dir)


# ----------------------------------------------------------------------
# serve-deltas
# ----------------------------------------------------------------------
@dataclass
class DeltaState:
    """The two lineages as the client knows them: batches, digests, samples."""

    base: PlanRequest
    batches: List[DeltaBatch]
    #: per lineage, the head digest before each batch, then the final head
    chains: Tuple[List[str], List[str]]
    nnz: List[int]  #: matrix nnz after each batch
    samples: Dict[int, Any]  #: batch index -> client copy of the matrix after it
    warm: List[Tuple[Dict[str, Any], Dict[str, Any]]]

    def path(self, lineage: int, k: int) -> str:
        return f"/matrices/{self.chains[lineage][k]}/delta"


def _delta_state(server: Server, seed: int, steps: int) -> DeltaState:
    payload = {"arch": "spade-sextans", "generator": _rmat(13, 200_000, seed * 1000 + 50)}
    # The same matrix again (``a`` is R-MAT's default), under another
    # digest: a second, independent lineage with identical work.
    twin = {**payload, "generator": {**payload["generator"], "a": 0.57}}
    heads = [plan_now(server, p)["digest"] for p in (payload, twin)]
    warm = seed_reads(server, seed)
    base = PlanRequest.from_dict(payload)
    keep = {steps // 4 - 1, steps // 2 - 1, 3 * steps // 4 - 1, steps - 1}
    batches, chains, nnz, samples = [], ([heads[0]], [heads[1]]), [], {}
    stream = delta_stream(
        base.resolve_matrix(), steps, DELTA_INSERTS, DELTA_DELETES,
        seed=seed, insert_region=DELTA_REGION,
    )
    for k, (batch, after) in enumerate(stream):
        batches.append(batch)
        for chain in chains:
            chain.append(stable_digest(("delta-plan", chain[-1], batch.content_digest())))
        nnz.append(after.nnz)
        if k in keep:
            samples[k] = after
    return DeltaState(base, batches, chains, nnz, samples, warm)


def _delta_schedule(seconds: float) -> Tuple[int, int]:
    """``(warm, timed)`` batches per lineage.

    Each lineage gets its ``warm`` batches in its half of the warm-up;
    then the first lineage gets its ``timed`` batches in the first half
    of the timed window and the second lineage the same batches in the
    second half.
    """
    return int(WARMUP_S / 2 * DELTA_RATE), int(seconds / 2 * DELTA_RATE)


def _delta_due(lineage: int, k: int, seconds: float) -> float:
    warm, _ = _delta_schedule(seconds)
    if k < warm:
        return lineage * WARMUP_S / 2 + k / DELTA_RATE
    return WARMUP_S + lineage * seconds / 2 + (k - warm) / DELTA_RATE


def _delta_items(state: DeltaState, seconds: float) -> List[Item]:
    def check(lineage: int, k: int) -> Check:
        chain = state.chains[lineage]

        def inner(body: Dict[str, Any]) -> List[str]:
            applied = body.get("applied", {})
            if (applied.get("prev_digest"), applied.get("new_digest"), applied.get("nnz")) != (
                chain[k], chain[k + 1], state.nnz[k]
            ):
                return [f"delta {lineage}/{k}: applied {applied!r} does not continue the lineage"]
            return []

        return inner

    items = [
        Item(
            _delta_due(lineage, k, seconds), "delta", state.path(lineage, k), batch.to_dict(),
            check(lineage, k), nnz=state.nnz[k], key=state.chains[lineage][k][:12],
        )
        for lineage in (0, 1)
        for k, batch in enumerate(state.batches)
    ]
    return sorted(items, key=lambda item: item.due)


def _twin_problems(k: int, first: Result, second: Result) -> List[str]:
    """Both lineages must plan batch ``k`` the same way."""
    if first.status != 200 or second.status != 200:
        return []  # already counted as failed
    plans = [r.body.get("plan", {}) for r in (first, second)]
    return [
        f"delta {k}: lineages disagree on {key}: {plans[0].get(key)!r} != {plans[1].get(key)!r}"
        for key in ("label", "hot_tiles", "predicted_time_s", "nnz")
        if plans[0].get(key) != plans[1].get(key)
    ]


def run_serve_deltas(run: WorkloadRun, seed: int, seconds: float, trace_dir: Optional[Path]) -> None:
    # One write at a time: the server has one CPU to itself, the one the
    # host-speed probe runs on.
    os.sched_setaffinity(0, CLIENT_CPUS)
    total = WARMUP_S + seconds
    steps = sum(_delta_schedule(seconds))
    read_dues = list(np.arange(0.5, total * DELTA_READ_RATE) / DELTA_READ_RATE)

    def start(trace_file: Optional[Path] = None) -> Tuple[Server, Any]:
        server = Server(trace_file)
        try:
            return server, _delta_state(server, seed, steps)
        except BaseException:
            server.stop()
            raise

    def lanes_of(state: DeltaState) -> Sequence[Lane]:
        return [Lane(_delta_items(state, seconds)), Lane(read_items(state.warm, read_dues, seed))]

    server, state = repeat_setup(run, start, lambda state: state[0].stop())
    try:
        results = drive(run, server, lanes_of(state))
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    ops = settle(run, results)

    # A batch's two applications run half a window apart, so a stall of
    # the host rarely hits both: the latency metrics take the faster one.
    replies = {r.item.path: r for r in results if r.item.cls == "delta"}
    timed = {r.item.path: op for r, op in zip((r for r in results if r.item.due >= WARMUP_S), ops)}
    faster = []
    for k in range(steps):
        first, second = (replies[state.path(lineage, k)] for lineage in (0, 1))
        run.check(_twin_problems(k, first, second))
        if first.item.path in timed:
            pair = (timed[first.item.path], timed[second.item.path])
            faster.append(min(pair, key=run.latency_ms))
    latency_metrics(run, ops, faster)

    # The served head after sampled batches, the final one included,
    # against a from-scratch partition of the client's own copy.
    sampled = []
    for k, matrix in sorted(state.samples.items()):
        r = replies[state.path(0, k)]
        sampled.append((f"delta head {k}", state.base, matrix, r.body.get("plan", {})))
    verify_served(run, sampled)

    if trace_dir is not None:
        tracer, traced_results = _traced(run, trace_dir, start, lanes_of)
        with use_tracer(tracer):
            facts = probe_served(sampled)
            _probe_deltas(state)
        run.layers.update(trace_summary.pipeline_layers(tracer, facts))
        fracs = [
            r.body["applied"]["repaired_fraction"]
            for r in traced_results if r.item.cls == "delta" and r.status == 200
        ]
        run.layers.update(trace_summary.streaming_layers(tracer, fracs))
        trace_summary.save_bench_trace(run, tracer, trace_dir)


def _probe_deltas(state: DeltaState) -> None:
    """Apply the first batches in process, timing apply and repair."""
    tracer = get_tracer()
    arch = state.base.build_architecture()
    tiled = TiledMatrix(state.base.resolve_matrix(), arch.tile_height, arch.tile_width)
    partitioner = HotTilesPartitioner(arch)
    cache = plan_cache_from(partitioner, tiled)
    for batch in state.batches[:DELTA_PROBES]:
        with tracer.span("streaming.apply", cat="probe"):
            tiled, report = apply_delta_tiled(tiled, batch)
        with tracer.span("core.partition.repair", cat="probe"):
            cache = repair_plan(partitioner, tiled, cache, report.dirty_tile_keys).cache
