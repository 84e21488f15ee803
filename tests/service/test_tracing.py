"""Tracing under service concurrency.

Drives the live HTTP service with concurrent plan requests while a
global tracer is installed, then reconciles the recorded spans against
the server's own counters: every accepted request produced exactly one
complete ``service.request`` span, and every plan computation produced
exactly one ``service.queue_wait`` span (the time the job sat in the
queue before a worker picked it up).
"""

import json
import threading
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import Tracer, use_tracer
from repro.service.httpd import make_server
from repro.service.planner import PlanService
from repro.service.store import PlanStore

SERVED_OUTCOMES = {"store", "computed", "coalesced"}
SETTLED_OUTCOMES = SERVED_OUTCOMES | {"failed", "timeout"}


def plan_payloads(plans):
    """``plans`` small R-MAT plan requests that differ only in seed."""
    return [
        {"arch": "spade-sextans", "scale": 4,
         "generator": {"kind": "rmat", "scale": 9, "nnz": 6_000, "seed": seed}}
        for seed in range(plans)
    ]


def post_plans(base, payloads, requests, concurrency):
    """POST ``requests`` plan requests, round-robin over ``payloads``, from
    ``concurrency`` threads with one connection per request.  Returns the
    decoded replies in order; a reply that is not ``200`` raises."""

    def post(i):
        req = urllib.request.Request(
            f"{base}/plan", data=json.dumps(payloads[i % len(payloads)]).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            return json.loads(resp.read())

    with ThreadPoolExecutor(concurrency) as pool:
        return list(pool.map(post, range(requests)))


def get_stats(base):
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
        return json.loads(resp.read())


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


def test_request_spans_reconcile_with_counters(live_server):
    base, _service = live_server
    with use_tracer(Tracer(enabled=True)) as tracer:
        replies = post_plans(base, plan_payloads(3), requests=20, concurrency=4)
        stats = get_stats(base)
    assert len(replies) == 20

    counters = stats["counters"]
    spans = tracer.spans()
    request_spans = [s for s in spans if s.name == "service.request"]
    outcomes = Counter(s.args.get("outcome") for s in request_spans)

    # Exactly one complete request span per accepted request...
    settled = sum(n for o, n in outcomes.items() if o in SETTLED_OUTCOMES)
    assert settled == counters["requests_accepted"]
    # ...and the outcome split matches the counter split.
    served = sum(n for o, n in outcomes.items() if o in SERVED_OUTCOMES)
    assert served == counters["requests_completed"] == 20
    assert outcomes.get("failed", 0) == counters["requests_failed"] == 0
    assert outcomes.get("timeout", 0) == counters["requests_timeout"] == 0
    assert outcomes.get("rejected", 0) == counters["requests_rejected"]
    # Every span closed with an outcome: nothing leaked half-open.
    assert None not in outcomes
    # The served-by split the clients saw is the spans' split.
    assert Counter(r["served"] for r in replies) == +Counter(
        {o: outcomes[o] for o in SERVED_OUTCOMES}
    )

    # Served spans carry the plan digest annotation.
    for span in request_spans:
        if span.args.get("outcome") in SERVED_OUTCOMES:
            assert len(span.args.get("digest", "")) == 12


def test_queue_wait_spans_match_plans_computed(live_server):
    base, _service = live_server
    with use_tracer(Tracer(enabled=True)) as tracer:
        post_plans(base, plan_payloads(3), requests=12, concurrency=3)
        stats = get_stats(base)

    counters = stats["counters"]
    waits = [s for s in tracer.spans() if s.name == "service.queue_wait"]
    computes = [s for s in tracer.spans() if s.name == "service.compute"]
    assert len(waits) == counters["plans_computed"]
    assert len(computes) == counters["plans_computed"]
    # A wait span ends where the worker picked the job up, so it must not
    # extend past its compute span's start on the same worker thread.
    compute_start = {}
    for span in computes:
        compute_start.setdefault((span.track, span.args.get("digest")), span.ts)
    for span in waits:
        key = (span.track, span.args.get("digest"))
        if key in compute_start:
            assert span.end <= compute_start[key] + 1e-6
    # Wait durations reconcile with the queue_wait_s histogram count.
    assert stats["histograms"]["queue_wait_s"]["count"] == len(waits)


@pytest.mark.parametrize(
    "name",
    ["service.resolve_matrix", "service.preprocess", "service.save_artifacts",
     "service.store_publish"],
)
def test_compute_stage_spans_match_plans_computed(live_server, name):
    """``bench/trace_summary.py`` times these stages from the server's
    trace: each computed plan runs each stage once, inside its
    ``service.compute`` span on the same worker thread."""
    base, _service = live_server
    with use_tracer(Tracer(enabled=True)) as tracer:
        post_plans(base, plan_payloads(3), requests=12, concurrency=3)
        stats = get_stats(base)

    stages = [s for s in tracer.spans() if s.name == name]
    computes = [s for s in tracer.spans() if s.name == "service.compute"]
    assert len(stages) == stats["counters"]["plans_computed"] == 3
    for stage in stages:
        assert any(
            c.track == stage.track and c.ts <= stage.ts and stage.end <= c.end
            for c in computes
        ), stage


def test_store_lookup_spans_match_store_lookups(live_server):
    """One ``service.store_lookup`` span per lookup the store counts: the
    denominator of the hit rate ``bench/trace_summary.py`` reports."""
    base, _service = live_server
    with use_tracer(Tracer(enabled=True)) as tracer:
        post_plans(base, plan_payloads(2), requests=8, concurrency=2)
        post_plans(base, plan_payloads(2), requests=8, concurrency=2)
        stats = get_stats(base)

    lookups = [s for s in tracer.spans() if s.name == "service.store_lookup"]
    store = stats["store"]
    assert len(lookups) == store["session_hits"] + store["session_misses"] == 16
    assert store["session_hits"] >= 8  # the whole second pass


def test_http_spans_cover_all_requests(live_server):
    base, _service = live_server
    with use_tracer(Tracer(enabled=True)) as tracer:
        # A server span closes only after its reply is sent: the first
        # read's GET span is closed before the POSTs end, and the last read
        # waits out the POSTs' spans.
        get_stats(base)
        replies = post_plans(base, plan_payloads(2), requests=8, concurrency=2)
        get_stats(base)

    http_spans = [s for s in tracer.spans() if s.name == "http.request"]
    posts = [s for s in http_spans if s.args.get("method") == "POST"]
    gets = [s for s in http_spans if s.args.get("method") == "GET"]
    # One POST span per request sent, each closed with the status sent.
    assert len(posts) == len(replies) == 8
    assert gets  # the /stats read
    assert all(s.args.get("status") == 200 for s in posts)


def test_disabled_tracer_records_nothing_under_load(live_server):
    base, _service = live_server
    with use_tracer(Tracer(enabled=False)) as tracer:
        replies = post_plans(base, plan_payloads(2), requests=6, concurrency=2)
    assert len(replies) == 6
    assert len(tracer) == 0
