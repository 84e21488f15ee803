"""Drain-safety regression: deltas vs ``close()``.

The contract (docs/service.md): a draining service answers every new
delta ``503`` + ``Retry-After``, and a delta admitted *before* the drain
began completes fully -- the lineage head is never left half-advanced
(head moved but repaired plan unpublished, or vice versa).
"""

import threading
import time

import pytest

from repro.service import api
from repro.service.planner import PlanService, ServiceClosed
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
DELTA = {
    "insert_rows": [0, 1],
    "insert_cols": [0, 1],
    "insert_vals": [1.5, 2.5],
    "delete_rows": [],
    "delete_cols": [],
}


@pytest.fixture
def service(tmp_path):
    svc = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    yield svc
    svc.close()


class TestDeltaDuringDrain:
    def test_begin_close_opens_the_503_window_synchronously(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        assert service.begin_close()
        # From this instant -- before close() has joined anything -- a
        # delta must answer 503 + Retry-After through the endpoint layer.
        status, body, headers = api.delta_endpoint(service, base.digest, DELTA)
        assert status == 503
        assert "Retry-After" in headers
        assert body["retry_after_s"] > 0
        # And the head never moved.
        assert service.lineages.resolve(base.digest).head_digest == base.digest

    def test_begin_close_is_first_caller_wins(self, service):
        assert service.begin_close() is True
        assert service.begin_close() is False

    def test_raw_apply_delta_raises_service_closed(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        service.begin_close()
        with pytest.raises(ServiceClosed):
            service.apply_delta(base.digest, DELTA)

    def test_inflight_delta_completes_before_close_returns(
        self, service, monkeypatch
    ):
        """No half-advanced heads: close() waits for admitted deltas."""
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        started = threading.Event()
        release = threading.Event()
        original_apply = service.lineages.apply

        def held_apply(digest, delta, **kwargs):
            started.set()
            assert release.wait(10.0), "test deadlock: release never set"
            return original_apply(digest, delta, **kwargs)

        monkeypatch.setattr(service.lineages, "apply", held_apply)

        outcome = {}

        def do_delta():
            try:
                result, update = service.apply_delta(base.digest, DELTA)
                outcome["result"] = result
                outcome["update"] = update
            except Exception as exc:  # pragma: no cover - fails the test
                outcome["error"] = exc

        delta_thread = threading.Thread(target=do_delta)
        delta_thread.start()
        assert started.wait(10.0)

        closer = threading.Thread(target=service.close)
        closer.start()
        time.sleep(0.2)
        # close() must be parked on the in-flight delta, not returned.
        assert closer.is_alive()

        release.set()
        delta_thread.join(10.0)
        closer.join(10.0)
        assert not closer.is_alive()

        assert "error" not in outcome, outcome.get("error")
        update = outcome["update"]
        # Fully advanced: the head is the new digest AND the repaired
        # plan is addressable under it -- nothing half-done.
        assert service.lineages.resolve(base.digest).head_digest == update.new_digest
        assert service.store.get(update.new_digest) == outcome["result"]

    def test_delta_after_full_close_is_503_with_retry_after(self, service):
        base, _ = service.plan(PlanRequest.from_dict(RMAT))
        result, update = service.apply_delta(base.digest, DELTA)
        service.close()
        status, _, headers = api.delta_endpoint(
            service, update.new_digest, {"delete_rows": [0], "delete_cols": [0]}
        )
        assert status == 503
        assert "Retry-After" in headers
        assert service.lineages.resolve(base.digest).head_digest == update.new_digest
