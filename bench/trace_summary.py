"""Per-layer metrics from the spans of a traced run.

Spans come from two places: the benchmark's own tracer (a span around
each call into a layer, plus the spans the simulator records inside
``simulate``) and the Chrome trace a ``hottiles serve --trace`` server
writes on shutdown.  A span's self time is its duration minus the part
its children from *other* layers cover; a child of the same layer (the
simulator's ``sim.simulate`` inside the benchmark's ``sim.engine``) is
counted as the parent's own time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import save_chrome_trace
from repro.obs.tracer import SIM, WALL, EventRecord, SpanRecord, Tracer

from bench.common import Op, WorkloadRun, pct

#: Spans recorded inside the program, named after the layer they time.
LAYER_ALIASES = {"sim.simulate": "sim.engine"}


def layer_of(name: str) -> str:
    return LAYER_ALIASES.get(name, name)


@dataclass(frozen=True)
class Span:
    name: str
    track: str
    ts: float  #: seconds
    dur: float  #: seconds
    args: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(frozen=True)
class PassFacts:
    """What one traced pass produced, for the per-layer ratios."""

    nnz: int
    tiles: int
    split_won: bool
    hot_nnz_frac: float
    cache_lines_per_nnz: float
    bw_util_frac: float


def wall_spans(tracer: Tracer) -> List[Span]:
    return [
        Span(r.name, r.track, r.ts, r.dur, r.args)
        for r in tracer.spans()
        if r.process == WALL
    ]


def chrome_spans(path: Path) -> List[Span]:
    """The wall-clock spans of a Chrome trace written by ``repro.obs``."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    wall_pids = {
        e["pid"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name" and e["args"]["name"] == WALL
    }
    return [
        Span(e["name"], str(e["tid"]), e["ts"] / 1e6, e["dur"] / 1e6, e.get("args", {}))
        for e in events
        if e["ph"] == "X" and e["pid"] in wall_pids
    ]


def nest(spans: Sequence[Span]) -> List[Optional[int]]:
    """Parent index of every span: the innermost span on its track that
    fully contains it (spans on one thread nest; backfilled waits that
    overlap without nesting get no parent)."""
    parent: List[Optional[int]] = [None] * len(spans)
    by_track: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_track[span.track].append(i)
    for idx in by_track.values():
        idx.sort(key=lambda i: (spans[i].ts, -spans[i].dur))
        stack: List[int] = []
        for i in idx:
            span = spans[i]
            while stack and span.end > spans[stack[-1]].end + 1e-9:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
    return parent


def self_times(spans: Sequence[Span]) -> List[Tuple[Span, float]]:
    """``(span, self seconds)`` for every span not inside its own layer."""
    parent = nest(spans)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)

    def foreign(i: int) -> float:
        layer = layer_of(spans[i].name)
        return sum(
            spans[c].dur if layer_of(spans[c].name) != layer else foreign(c)
            for c in children[i]
        )

    return [
        (span, span.dur - foreign(i))
        for i, span in enumerate(spans)
        if parent[i] is None or layer_of(spans[parent[i]].name) != layer_of(span.name)
    ]


def _ms_p50(values: Sequence[float]) -> float:
    return pct(values, 50) * 1e3


def pipeline_layers(tracer: Tracer, facts: Sequence[PassFacts]) -> Dict[str, float]:
    """The per-layer metrics of traced pipeline passes (``bench.pipeline``)."""
    calls: Dict[str, List[float]] = defaultdict(list)
    per_op: Dict[str, Dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_s in self_times(wall_spans(tracer)):
        layer = layer_of(span.name)
        calls[layer].append(self_s)
        per_op[layer][span.args.get("op")] += self_s
    records = tracer.records()
    chunks = sum(
        isinstance(r, SpanRecord) and r.process == SIM and r.name.startswith("chunk")
        for r in records
    )
    rebalances = sum(isinstance(r, EventRecord) and r.name == "rebalance" for r in records)

    sim, plans = per_op["sim.engine"], per_op["sim.worker_sim"]
    fluid = [sim[op] - plans[op] for op in sim if op in plans]
    nnz = sum(f.nnz for f in facts)
    tiles = sum(f.tiles for f in facts)
    n = len(facts)
    return {
        "sparse.tiling.self_ms": _ms_p50(calls["sparse.tiling"]),
        "sparse.tiling.ns_per_nnz": sum(calls["sparse.tiling"]) / nnz * 1e9,
        "core.model.tile_costs_ms": _ms_p50(calls["core.model"]),
        "core.model.ns_per_tile": sum(calls["core.model"]) / tiles * 1e9,
        "core.partition.self_ms": _ms_p50(calls["core.partition"]),
        "core.partition.us_per_tile": sum(calls["core.partition"]) / tiles * 1e6,
        "core.partition.score_us": pct(calls["core.partition.score"], 50) * 1e6,
        "core.partition.block_split_won_frac": sum(f.split_won for f in facts) / n,
        "core.partition.hot_nnz_frac": sum(f.hot_nnz_frac for f in facts) / n,
        "pipeline.formats.self_ms": _ms_p50(list(per_op["pipeline.formats"].values())),
        "sim.worker_sim.build_plans_ms": _ms_p50(calls["sim.worker_sim"]),
        "sim.engine.self_ms": _ms_p50(calls["sim.engine"]),
        "sim.engine.fluid_ms": _ms_p50(fluid),
        "sim.engine.chunks_per_pass": chunks / len(sim),
        "sim.engine.host_us_per_chunk": sum(fluid) / chunks * 1e6,
        "sim.engine.rebalances_per_pass": rebalances / len(sim),
        "sim.engine.cache_lines_per_nnz": sum(f.cache_lines_per_nnz for f in facts) / n,
        "sim.engine.bw_util_frac": sum(f.bw_util_frac for f in facts) / n,
    }


def service_layers(
    server: Sequence[Span],
    client_s: Mapping[str, float],
    stats: Mapping[str, Any],
) -> Dict[str, float]:
    """Service-side layers of a traced serving run.

    ``client_s`` maps a 12-hex digest prefix to the client's send-to-reply
    seconds for requests whose digest is unique (cold plans and deltas);
    those are joined to the server's ``http.request`` spans.
    """
    parent = nest(server)
    http_s: Dict[str, float] = {}
    for i, span in enumerate(server):
        if span.name == "http.request" and span.args.get("path", "").endswith("/delta"):
            http_s[span.args["path"].split("/")[2][:12]] = span.dur
        elif span.name == "service.request" and span.args.get("outcome") == "computed":
            p = parent[i]
            if p is not None:
                http_s[span.args["digest"]] = server[p].dur
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in server:
        durations[span.name].append(span.dur)
    httpd = [
        s for span, s in self_times(server)
        if span.name == "http.request" and span.args.get("method") == "POST"
    ]
    gaps = [client_s[d] - http_s[d] for d in client_s if d in http_s]
    counters = stats["counters"]
    store = stats["store"]
    lookups = store["session_hits"] + store["session_misses"]
    out = {
        "service.httpd.self_ms_p50": _ms_p50(httpd),
        "service.httpd.client_gap_ms_p50": _ms_p50(gaps),
        "service.planner.queue_wait_ms_p50": _ms_p50(durations["service.queue_wait"]),
        "service.planner.queue_wait_ms_p90": pct(durations["service.queue_wait"], 90) * 1e3,
        "service.planner.resolve_matrix_ms_p50": _ms_p50(durations["service.resolve_matrix"]),
        "service.planner.preprocess_ms_p50": _ms_p50(durations["service.preprocess"]),
        "service.planner.coalesced_frac": counters["requests_coalesced"]
        / counters["requests_accepted"],
        "service.planner.rejected": float(counters["requests_rejected"]),
        "service.store.lookup_ms_p50": _ms_p50(durations["service.store_lookup"]),
        "service.store.save_artifacts_ms_p50": _ms_p50(durations["service.save_artifacts"]),
        "service.store.publish_ms_p50": _ms_p50(durations["service.store_publish"]),
        "service.store.hit_rate": store["session_hits"] / lookups,
        "streaming.apply.apply_delta_ms_p50": _ms_p50(durations["service.apply_delta"]),
    }
    return {name: value for name, value in out.items() if value == value}  # drop NaN


def streaming_layers(tracer: Tracer, repaired_fracs: Sequence[float]) -> Dict[str, float]:
    """In-process probes of the delta path on the batches the server got."""
    calls: Dict[str, List[float]] = defaultdict(list)
    for span in wall_spans(tracer):
        calls[span.name].append(span.dur)
    return {
        "streaming.apply.apply_tiled_ms_p50": _ms_p50(calls["streaming.apply"]),
        "streaming.apply.repair_ms_p50": _ms_p50(calls["core.partition.repair"]),
        "streaming.apply.tiles_repaired_frac": sum(repaired_fracs) / len(repaired_fracs),
    }


def bench_health(run: WorkloadRun, traced_ops: Sequence[Op]) -> Dict[str, float]:
    """Validity checks: generator lateness and what tracing costs."""
    traced_p50 = pct([run.latency_ms(op) for op in traced_ops if op.nnz], 50)
    return {
        "bench.gen_late_ms_p90": run.extra["bench.gen_late_ms_p90"],
        "bench.trace_overhead_pct": 100.0 * (traced_p50 / run.metrics["p50_ms"] - 1.0),
    }


def save_bench_trace(run: WorkloadRun, tracer: Tracer, trace_dir: Path) -> None:
    """Write the bench process's spans to ``DIR/<workload>-bench.json``."""
    run.files.append(save_chrome_trace(tracer, str(trace_dir / f"{run.workload}-bench.json")))
