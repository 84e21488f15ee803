"""Failure-path tests for the plan service: the structured error record,
the one way each cause fails, and its HTTP mapping.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Tracer, use_tracer
from repro.service.httpd import make_server
from repro.service.planner import (
    ERROR_RING,
    TRACEBACK_TAIL_LINES,
    PlanFailed,
    PlanService,
    PlanTimeout,
    StructuredError,
)
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore

RECORD_KEYS = {"type", "message", "traceback_tail"}


def rmat_request(seed=0, **overrides):
    payload = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}
    payload.update(overrides)
    return PlanRequest.from_dict(payload)


class TestStructuredErrorRecord:
    def test_from_exception_captures_traceback_tail(self):
        try:
            raise ValueError("bad matrix spec")
        except ValueError as exc:
            record = StructuredError.from_exception(exc)
        assert record.type == "ValueError"
        assert record.message == "bad matrix spec"
        assert "ValueError: bad matrix spec" in record.traceback_tail
        assert "test_planner_faults" in record.traceback_tail  # a real frame
        assert set(record.to_dict()) == RECORD_KEYS

    def test_str_is_type_colon_message(self):
        record = StructuredError.from_exception(ValueError("boom"))
        assert str(record) == "ValueError: boom"
        assert str(PlanFailed(record)) == "ValueError: boom"

    def test_tail_keeps_the_last_lines(self):
        def deep(n):
            if n == 0:
                raise RuntimeError("bottom")
            deep(n - 1)

        try:
            deep(40)
        except RuntimeError as exc:
            record = StructuredError.from_exception(exc)
        lines = record.traceback_tail.splitlines()
        assert len(lines) == TRACEBACK_TAIL_LINES
        assert lines[-1] == "RuntimeError: bottom"

    def test_tail_is_capped_in_characters(self):
        message = "x" * 10_000
        record = StructuredError.from_exception(ValueError(message))
        assert record.message == message
        assert len(record.traceback_tail) <= 4096


class TestComputeFailure:
    def test_failure_carries_structured_error_and_runs_once(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            calls = []

            def boom(request, digest):
                calls.append(1)
                raise TimeoutError("synthetic failure")

            svc._compute = boom
            with pytest.raises(PlanFailed) as info:
                svc.plan(rmat_request())
            error = info.value.error
            assert error.type == "TimeoutError"
            assert error.message == "synthetic failure"
            assert "TimeoutError: synthetic failure" in error.traceback_tail
            # A plan is deterministic: it runs once, whatever it raised.
            assert calls == [1]

            stats = svc.stats()
            assert stats["counters"]["requests_failed"] == 1
            assert stats["counters"]["plans_computed"] == 1
            last = stats["last_errors"]
            assert len(last) == 1
            assert last[0]["type"] == "TimeoutError"
            assert set(last[0]) == RECORD_KEYS | {"digest", "unix"}

    def test_coalesced_waiters_share_one_failure(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            gate = threading.Event()
            calls = []

            def boom(request, digest):
                calls.append(1)
                gate.wait(10.0)
                raise ValueError("shared")

            svc._compute = boom
            errors = []

            def call():
                try:
                    svc.plan(rmat_request(timeout_s=30.0))
                except PlanFailed as exc:
                    errors.append(exc.error)

            threads = [threading.Thread(target=call) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while svc.metrics.counter("requests_accepted").value < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert calls == [1]
            assert len(errors) == 3 and errors.count(errors[0]) == 3
            c = svc.stats()["counters"]
            assert (c["requests_failed"], c["requests_coalesced"]) == (3, 2)
            assert c["plans_computed"] == 1
            assert len(svc.stats()["last_errors"]) == 1

    def test_failure_is_not_stored_so_a_repeat_runs_again(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            calls = []

            def boom(request, digest):
                calls.append(1)
                raise ValueError("deterministic")

            svc._compute = boom
            for _ in range(2):
                with pytest.raises(PlanFailed):
                    svc.plan(rmat_request())
            assert calls == [1, 1]
            assert rmat_request().digest() not in svc.store
            assert svc.stats()["counters"]["plans_computed"] == 2

    def test_error_ring_is_bounded(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            def boom(request, digest):
                raise ValueError(f"seed {request.generator['seed']}")

            svc._compute = boom
            for seed in range(ERROR_RING + 2):
                with pytest.raises(PlanFailed):
                    svc.plan(rmat_request(seed=seed))
            last = svc.stats()["last_errors"]
            assert len(last) == ERROR_RING
            assert [e["message"] for e in last] == [
                f"seed {seed}" for seed in range(2, ERROR_RING + 2)
            ]


class TestWaitBound:
    def test_elapsed_wait_raises_plantimeout(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            release = threading.Event()
            svc._compute = lambda request, digest: release.wait(5.0)
            try:
                with pytest.raises(PlanTimeout):
                    svc.plan(rmat_request(timeout_s=0.05))
            finally:
                release.set()


class TestOutcomeNamesTheCounter:
    """A failing request's ``service.request`` span names its counter."""

    @pytest.mark.parametrize("outcome", ["failed", "timeout", "closed"])
    def test_span_outcome_and_counters_agree(self, tmp_path, outcome):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1)
        release = threading.Event()
        if outcome == "failed":
            svc._compute = lambda request, digest: {}["missing"]
        else:
            svc._compute = lambda request, digest: release.wait(5.0)
        if outcome == "closed":
            svc.begin_close()
        try:
            with use_tracer(Tracer(enabled=True)) as tracer:
                with pytest.raises(Exception):
                    svc.plan(rmat_request(timeout_s=0.05))
        finally:
            release.set()
            svc.close()
        (span,) = [s for s in tracer.spans() if s.name == "service.request"]
        assert span.args["outcome"] == outcome
        c = svc.stats()["counters"]
        settled = {"failed": c["requests_failed"], "timeout": c["requests_timeout"]}
        assert c["requests_accepted"] == sum(settled.values())
        assert settled.get(outcome, 0) == c["requests_accepted"]
        assert c["requests_accepted"] == (0 if outcome == "closed" else 1)


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
            with exc:
                return exc.code, dict(exc.headers), json.loads(exc.read())

    def shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestHttpErrorMapping:
    @pytest.mark.parametrize("exc_type", [ValueError, TimeoutError, ConnectionError])
    def test_compute_failure_maps_to_500_with_detail(self, tmp_path, exc_type):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            def boom(request, digest):
                raise exc_type("bad plan input")

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
            assert body["error"] == f"{exc_type.__name__}: bad plan input"
            assert set(body["error_detail"]) == RECORD_KEYS
            assert body["error_detail"]["type"] == exc_type.__name__

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

    def test_elapsed_wait_answers_504_with_the_digest(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            real_compute = svc._compute
            release = threading.Event()

            def slow(request, digest):
                release.wait(5.0)
                return real_compute(request, digest)

            svc._compute = slow
            server = _LiveServer(svc)
            try:
                status, _, body = server.post("/plan", self.PAYLOAD)
            finally:
                release.set()
                server.shutdown()
            counters = svc.stats()["counters"]
        assert status == 504
        assert body["digest"] == PlanRequest.from_dict(self.PAYLOAD).digest()
        assert counters["requests_timeout"] == 1
