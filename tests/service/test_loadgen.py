"""Closed-loop load generator tests (the acceptance-criteria workload)."""

import threading

import pytest

from repro.service.httpd import make_server
from repro.service.loadgen import (
    LoadgenPass,
    LoadgenReport,
    default_request_payloads,
    run_loadgen,
    run_pass,
)
from repro.service.planner import PlanService
from repro.service.store import PlanStore


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


class TestPayloads:
    def test_distinct_by_seed(self):
        payloads = default_request_payloads(4)
        assert len(payloads) == 4
        assert len({p["generator"]["seed"] for p in payloads}) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_request_payloads(0)


class TestAccounting:
    """The report arithmetic, without a server."""

    @pytest.mark.parametrize(
        "counters, ok",
        [
            ({"requests_accepted": 5, "requests_completed": 5}, True),
            ({"requests_accepted": 6, "requests_completed": 3, "requests_failed": 1,
              "requests_timeout": 1, "requests_degraded": 1}, True),
            # Rejected requests were never accepted, so they do not count.
            ({"requests_accepted": 2, "requests_completed": 2,
              "requests_rejected": 7}, True),
            ({"requests_accepted": 5, "requests_completed": 4}, False),
        ],
    )
    def test_reconciles_accepted_against_settled(self, counters, ok):
        report = LoadgenReport(passes=[], server_stats={"counters": counters})
        assert report.reconciles() is ok
        assert report.to_dict()["reconciles"] is ok
        assert report.render().endswith(
            "(accepted = completed + failed + timeout + degraded): "
            + ("yes" if ok else "NO")
            + "\ndropped connections (transport errors): 0"
        )

    def test_empty_pass_rates_are_zero(self):
        empty = LoadgenPass(name="cold")
        assert empty.throughput_rps == 0.0
        assert empty.store_hit_rate == 0.0

    def test_pass_record_converts_latency_to_ms(self):
        run = LoadgenPass(name="warm", requests=4, completed=4, wall_s=2.0,
                          store_hits_delta=3, store_gets_delta=4)
        for latency_s in (0.01, 0.02, 0.03, 0.04):
            run.latency.observe(latency_s)
        record = run.to_dict()
        assert record["throughput_rps"] == 2.0
        assert record["store_hit_rate"] == 0.75
        assert record["latency_ms"]["p50"] == pytest.approx(25.0)
        assert record["shards"] == {}

    def test_report_totals_failures_and_transport_errors(self):
        passes = [
            LoadgenPass(name="cold", failed=2, transport_errors=1),
            LoadgenPass(name="warm", failed=1, transport_errors=0),
        ]
        report = LoadgenReport(passes=passes, server_stats={})
        assert report.failed == 3
        assert report.transport_errors == 1
        assert [p["name"] for p in report.to_dict()["passes"]] == ["cold", "warm"]

    @pytest.mark.parametrize("kwargs", [{"requests": 0}, {"concurrency": 0}])
    def test_run_pass_rejects_empty_workloads(self, kwargs):
        # Checked before any request, so no server is needed.
        args = {"requests": 1, "concurrency": 1, **kwargs}
        with pytest.raises(ValueError, match="must be >= 1"):
            run_pass("http://127.0.0.1:9", [{}], **args)


class TestLoadgen:
    def test_cold_then_warm(self, live_server):
        base, _service = live_server
        report = run_loadgen(base, requests=40, concurrency=4, plans=3, passes=2)
        cold, warm = report.passes
        assert cold.completed == 40 and cold.failed == 0
        assert warm.completed == 40 and warm.failed == 0
        # Warm pass must be served (almost) entirely from the plan store.
        assert warm.store_hit_rate > 0.9
        assert warm.served.get("store", 0) == 40
        assert warm.latency.percentile(50) <= cold.latency.percentile(99)
        assert report.reconciles()
        rendered = report.render()
        assert "p95" in rendered and "reconcile" in rendered

    def test_pass_counts_served_breakdown(self, live_server):
        base, _service = live_server
        result = run_pass(
            base, default_request_payloads(2), requests=10, concurrency=2
        )
        assert result.completed == 10
        assert sum(result.served.values()) == 10
        assert result.throughput_rps > 0

    def test_backpressure_retries_are_not_failures(self, tmp_path):
        service = PlanService(
            store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=1
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            report = run_loadgen(base, requests=30, concurrency=8, plans=3, passes=1)
            (cold,) = report.passes
            # Under a depth-1 queue the server sheds load; the client
            # retries and still finishes every request without failure.
            assert cold.completed == 30
            assert cold.failed == 0
            assert report.reconciles()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
