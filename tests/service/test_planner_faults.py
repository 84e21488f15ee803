"""Fault-path tests for the plan service: structured errors, retry,
degraded fallback, and the HTTP mapping for retryable vs terminal failures.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults.retry import RetryPolicy
from repro.service.httpd import make_server
from repro.service.planner import PlanFailed, PlanService, PlanTimeout
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore


def rmat_request(seed=0, **overrides):
    payload = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}
    payload.update(overrides)
    return PlanRequest.from_dict(payload)


class TestStructuredErrors:
    def test_terminal_failure_carries_structured_error(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            def boom(request, digest):
                raise ValueError("synthetic terminal failure")

            svc._compute = boom
            with pytest.raises(PlanFailed) as info:
                svc.plan(rmat_request())
            error = info.value.error
            assert error.type == "ValueError"
            assert error.message == "synthetic terminal failure"
            assert error.retryable is False
            assert info.value.retryable is False
            assert "ValueError: synthetic terminal failure" in error.traceback_tail

            stats = svc.stats()
            assert stats["counters"]["requests_failed"] == 1
            last = stats["last_errors"]
            assert len(last) == 1
            assert last[0]["type"] == "ValueError"
            assert last[0]["retryable"] is False
            assert "digest" in last[0]

    def test_error_ring_is_bounded(self, tmp_path):
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, error_ring=4
        ) as svc:
            def boom(request, digest):
                raise ValueError("always")

            svc._compute = boom
            for seed in range(6):
                with pytest.raises(PlanFailed):
                    svc.plan(rmat_request(seed=seed))
            assert len(svc.stats()["last_errors"]) == 4


class TestRetry:
    def test_retryable_failure_retried_until_success(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001, jitter=0.0)
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, retry=policy
        ) as svc:
            real_compute = svc._compute
            calls = []

            def flaky(request, digest):
                calls.append(1)
                if len(calls) < 3:
                    raise TimeoutError("transient backend stall")
                return real_compute(request, digest)

            svc._compute = flaky
            result, served = svc.plan(rmat_request())
            assert served == "computed"
            assert len(calls) == 3
            counters = svc.stats()["counters"]
            assert counters["plans_retried"] == 2
            assert counters["requests_completed"] == 1
            assert counters["requests_failed"] == 0

    def test_retryable_exhaustion_surfaces_original_error(self, tmp_path):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001, jitter=0.0)
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, retry=policy
        ) as svc:
            calls = []

            def always(request, digest):
                calls.append(1)
                raise TimeoutError("never recovers")

            svc._compute = always
            with pytest.raises(PlanFailed) as info:
                svc.plan(rmat_request())
            assert len(calls) == 2
            assert info.value.error.type == "TimeoutError"
            assert info.value.retryable is True
            # One retry was scheduled (attempt 1 -> 2); the final attempt
            # surfaces the error instead of scheduling another.
            assert svc.stats()["counters"]["plans_retried"] == 1

    def test_terminal_failure_never_retried(self, tmp_path):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.001, jitter=0.0)
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, retry=policy
        ) as svc:
            calls = []

            def boom(request, digest):
                calls.append(1)
                raise ValueError("deterministic")

            svc._compute = boom
            with pytest.raises(PlanFailed):
                svc.plan(rmat_request())
            assert len(calls) == 1
            assert svc.stats()["counters"]["plans_retried"] == 0


class TestDegradedFallback:
    def test_timeout_serves_roofline_plan(self, tmp_path):
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, degraded_fallback=True
        ) as svc:
            real_compute = svc._compute
            release = threading.Event()

            def slow(request, digest):
                release.wait(5.0)
                return real_compute(request, digest)

            svc._compute = slow
            try:
                result, served = svc.plan(rmat_request(), timeout_s=0.05)
                # Look before the real computation is released: once it
                # finishes it publishes its own plan under the same digest.
                stored = svc.store.get(result.digest)
            finally:
                release.set()
            assert served == "degraded"
            assert result.label.startswith("roofline")
            assert result.n_tiles == 0
            assert result.predicted_time_s > 0

            stats = svc.stats()
            counters = stats["counters"]
            assert counters["requests_degraded"] == 1
            assert stats["config"]["degraded_fallback"] is True
            # The degraded plan is served, never stored.
            assert stored is None

    def test_fallback_off_still_raises_plantimeout(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            release = threading.Event()
            svc._compute = lambda request, digest: release.wait(5.0)
            try:
                with pytest.raises(PlanTimeout):
                    svc.plan(rmat_request(), timeout_s=0.05)
            finally:
                release.set()

    def test_counters_reconcile_with_degraded(self, tmp_path):
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, degraded_fallback=True
        ) as svc:
            release = threading.Event()
            real_compute = svc._compute
            svc._compute = lambda request, digest: (
                release.wait(5.0),
                real_compute(request, digest),
            )[1]
            try:
                svc.plan(rmat_request(), timeout_s=0.05)
            finally:
                release.set()
            svc.close()
            c = svc.stats()["counters"]
            accounted = (
                c["requests_completed"]
                + c["requests_failed"]
                + c["requests_timeout"]
                + c["requests_degraded"]
            )
            assert c["requests_accepted"] <= accounted + c.get("requests_cancelled", 0)
            assert c["requests_degraded"] == 1


class _LiveServer:
    def __init__(self, service):
        self.httpd = make_server(service, host="127.0.0.1", port=0)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def post(self, path, payload):
        body = json.dumps(payload).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, dict(resp.headers), json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestHttpErrorMapping:
    def test_retryable_maps_to_503_with_retry_after(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            def stall(request, digest):
                raise TimeoutError("backend stall")

            svc._compute = stall
            server = _LiveServer(svc)
            try:
                status, headers, body = server.post(
                    "/plan", {"generator": {"kind": "rmat", "scale": 8, "nnz": 500}}
                )
            finally:
                server.shutdown()
            assert status == 503
            assert "Retry-After" in headers
            assert body["retry_after_s"] > 0
            assert body["error_detail"]["type"] == "TimeoutError"
            assert body["error_detail"]["retryable"] is True

    def test_terminal_maps_to_500_with_detail(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            def boom(request, digest):
                raise ValueError("bad plan input")

            svc._compute = boom
            server = _LiveServer(svc)
            try:
                status, headers, body = server.post(
                    "/plan", {"generator": {"kind": "rmat", "scale": 8, "nnz": 500}}
                )
            finally:
                server.shutdown()
            assert status == 500
            assert "Retry-After" not in headers
            assert body["error_detail"]["type"] == "ValueError"
            assert body["error_detail"]["retryable"] is False

    def test_stats_exposes_last_errors(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            svc._compute = lambda request, digest: (_ for _ in ()).throw(
                ValueError("ring me")
            )
            server = _LiveServer(svc)
            try:
                server.post(
                    "/plan", {"generator": {"kind": "rmat", "scale": 8, "nnz": 500}}
                )
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/stats", timeout=10
                ) as resp:
                    stats = json.loads(resp.read())
            finally:
                server.shutdown()
            assert stats["last_errors"]
            assert stats["last_errors"][-1]["type"] == "ValueError"


class TestHttpWaitBound:
    """The wire field ``timeout_s`` bounds one request's wait over HTTP."""

    PAYLOAD = {
        "generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0},
        "timeout_s": 0.05,
    }

    def _post_while_held(self, svc):
        real_compute = svc._compute
        release = threading.Event()

        def slow(request, digest):
            release.wait(5.0)
            return real_compute(request, digest)

        svc._compute = slow
        server = _LiveServer(svc)
        try:
            return server.post("/plan", self.PAYLOAD)
        finally:
            release.set()
            server.shutdown()

    def test_elapsed_wait_serves_degraded_plan(self, tmp_path):
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, degraded_fallback=True
        ) as svc:
            status, _, body = self._post_while_held(svc)
        assert status == 200
        assert body["served"] == "degraded"
        assert body["plan"]["label"].startswith("roofline-")

    def test_elapsed_wait_without_fallback_answers_504(self, tmp_path):
        with PlanService(
            store=PlanStore(tmp_path / "p"), workers=1, degraded_fallback=False
        ) as svc:
            status, _, body = self._post_while_held(svc)
        assert status == 504
        assert body["digest"] == PlanRequest.from_dict(self.PAYLOAD).digest()
