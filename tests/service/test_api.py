"""The transport-agnostic endpoint handlers: outcome -> (status, body, headers).

The HTTP front end answers through these handlers, so the status
contract in ``repro.service.api`` is checked here without a socket.
Exceptions the planner raises are injected through a stub so each row
of the contract is hit exactly.
"""

import pytest

from repro.service import api
from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanService,
    PlanTimeout,
    ServiceClosed,
    StructuredError,
)
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore

RMAT = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}


@pytest.fixture
def service(tmp_path):
    svc = PlanService(store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=4)
    yield svc
    svc.close()


class RaisingService:
    """Stands in for :class:`PlanService`: ``plan`` raises ``exc``."""

    def __init__(self, exc, hint=0.25):
        self.exc = exc
        self.hint = hint

    def plan(self, request):
        raise self.exc

    def retry_after_hint(self):
        return self.hint


class TestPlanEndpoint:
    def test_served_plan_is_200(self, service):
        status, body, headers = api.plan_endpoint(service, RMAT)
        assert status == 200
        assert headers == {}
        assert body["served"] == "computed"
        assert body["plan"] == service.store.get(body["plan"]["digest"]).to_dict()

    @pytest.mark.parametrize(
        "field", ["tenant", "tier", "deadline_s", "cache_aware"]
    )
    def test_removed_request_field_is_400_naming_it(self, service, field):
        status, body, _ = api.plan_endpoint(service, dict(RMAT, **{field: 1}))
        assert status == 400
        assert body == {"error": f"unknown request field(s): {field}"}
        assert service.metrics.counter("requests_accepted").value == 0

    def test_queue_full_is_429_with_retry_after(self):
        status, body, headers = api.plan_endpoint(
            RaisingService(AdmissionRejected(0.25)), RMAT
        )
        assert status == 429
        assert body == {
            "error": "admission queue full, retry after 0.250s",
            "retry_after_s": 0.25,
        }
        assert headers == {"Retry-After": "0.250"}

    def test_elapsed_wait_bound_is_504_with_digest(self):
        digest = "ab" * 32
        status, body, headers = api.plan_endpoint(
            RaisingService(PlanTimeout(digest, 1.5)), RMAT
        )
        assert status == 504
        assert body["digest"] == digest
        assert "1.500s" in body["error"]
        assert headers == {}

    def test_closed_service_is_503_with_the_service_hint(self):
        status, body, headers = api.plan_endpoint(
            RaisingService(ServiceClosed("service is shutting down"), hint=0.4), RMAT
        )
        assert status == 503
        assert body == {"error": "service is shutting down", "retry_after_s": 0.4}
        assert headers == {"Retry-After": "0.400"}

    def test_generator_rejection_at_compute_time_is_400(self):
        error = StructuredError(type="ProtocolError", message="bad nnz")
        status, body, headers = api.plan_endpoint(RaisingService(PlanFailed(error)), RMAT)
        assert (status, body, headers) == (400, {"error": "bad nnz"}, {})

    @pytest.mark.parametrize("type_name", ["KeyError", "TimeoutError", "ConnectionError"])
    def test_compute_failure_is_500_without_retry_after(self, type_name):
        error = StructuredError(type=type_name, message="'x'", traceback_tail="tb")
        status, body, headers = api.plan_endpoint(RaisingService(PlanFailed(error)), RMAT)
        assert status == 500
        assert body == {
            "error": f"{type_name}: 'x'",
            "error_detail": {"type": type_name, "message": "'x'", "traceback_tail": "tb"},
        }
        assert headers == {}

    @pytest.mark.parametrize("payload", [[], "plan", 7])
    def test_non_object_body_is_400(self, service, payload):
        status, body, headers = api.plan_endpoint(service, payload)
        assert (status, body, headers) == (
            400, {"error": "request body must be a JSON object"}, {}
        )

    def test_unreadable_matrix_path_is_400(self, service, tmp_path):
        payload = {"matrix_path": str(tmp_path / "missing.mtx")}
        status, body, _ = api.plan_endpoint(service, payload)
        assert status == 400
        assert "cannot read matrix_path" in body["error"]


class TestGetPlanEndpoint:
    @pytest.mark.parametrize("digest", ["", "xyz", "ABCDEF", "ab/cd", "ab cd"])
    def test_non_hex_digest_is_400(self, service, digest):
        status, body, _ = api.get_plan_endpoint(service, digest)
        assert status == 400
        assert repr(digest) in body["error"]

    def test_unknown_digest_is_404(self, service):
        status, body, _ = api.get_plan_endpoint(service, "ef" * 32)
        assert status == 404
        assert "efefefefefef" in body["error"]

    def test_stored_plan_is_200(self, service):
        result, _ = service.plan(PlanRequest.from_dict(RMAT))
        status, body, _ = api.get_plan_endpoint(service, result.digest)
        assert status == 200
        assert body == {"served": "store", "plan": result.to_dict()}


class TestDeltaEndpoint:
    def test_non_hex_digest_is_400(self, service):
        status, _, _ = api.delta_endpoint(service, "not-hex", {})
        assert status == 400

    def test_unknown_lineage_is_404(self, service):
        digest = "12" * 32
        status, body, _ = api.delta_endpoint(service, digest, {"delete_rows": [0],
                                                               "delete_cols": [0]})
        assert status == 404
        assert body["digest"] == digest

    @pytest.mark.parametrize(
        "payload",
        [{"insert_rows": 0}, {"insert_rows": ["a"]}, {"shuffle": []}],
    )
    def test_malformed_delta_is_400(self, service, payload):
        result, _ = service.plan(PlanRequest.from_dict(RMAT))
        status, _, _ = api.delta_endpoint(service, result.digest, payload)
        assert status == 400
        assert service.metrics.counter("deltas_applied").value == 0


    def test_applied_delta_is_200_with_the_repaired_plan(self, service):
        result, _ = service.plan(PlanRequest.from_dict(RMAT))
        delta = {"insert_rows": [0, 1], "insert_cols": [0, 1], "insert_vals": [1.5, 2.5]}
        status, body, headers = api.delta_endpoint(service, result.digest, delta)
        assert (status, headers) == (200, {})
        applied = body["applied"]
        assert applied["prev_digest"] == result.digest
        assert applied["new_digest"] == body["plan"]["digest"] != result.digest
        assert applied["nnz"] == body["plan"]["nnz"]
        assert set(applied) == {
            "prev_digest", "new_digest", "n_inserted", "n_overwritten", "n_deleted",
            "nnz", "n_tiles", "tiles_repaired", "repaired_fraction",
        }
        assert body["plan"] == service.store.get(applied["new_digest"]).to_dict()

    def test_superseded_head_is_409_naming_the_live_head(self, service):
        result, _ = service.plan(PlanRequest.from_dict(RMAT))
        delta = {"delete_rows": [0], "delete_cols": [0]}
        _, first, _ = api.delta_endpoint(service, result.digest, delta)
        status, body, headers = api.delta_endpoint(service, result.digest, delta)
        assert (status, headers) == (409, {})
        assert body["digest"] == result.digest
        assert body["head_digest"] == first["applied"]["new_digest"]

    def test_out_of_range_coordinates_are_400(self, service):
        result, _ = service.plan(PlanRequest.from_dict(RMAT))
        delta = {"insert_rows": [1 << 20], "insert_cols": [0], "insert_vals": [1.0]}
        status, body, _ = api.delta_endpoint(service, result.digest, delta)
        assert status == 400
        assert service.lineages.resolve(result.digest).head_digest == result.digest
        assert service.metrics.counter("deltas_applied").value == 0


class TestHealthAndStats:
    def test_healthz_ok_while_open(self, service):
        assert api.healthz_endpoint(service) == (200, {"status": "ok"}, {})

    def test_healthz_503_once_closing(self, service):
        service.begin_close()
        assert api.healthz_endpoint(service) == (503, {"status": "draining"}, {})

    def test_stats_folds_in_the_server_record(self, service):
        server = {"host": "127.0.0.1", "port": 8750}
        status, body, _ = api.stats_endpoint(service, server=server)
        assert status == 200
        assert body["server"] == server
        assert body["server"] is not server
        assert "server" not in api.stats_endpoint(service)[1]

    def test_stats_report_the_fixed_pool_and_fifo_queue(self, service):
        _, body, _ = api.stats_endpoint(service)
        assert body["config"] == {
            "workers": 1,
            "queue_depth": 4,
            "default_timeout_s": 60.0,
        }
        assert set(body["gauges"]) == {"queue_depth", "plans_in_flight"}
        assert set(body) == {
            "counters", "gauges", "histograms", "store", "lineages",
            "uptime_s", "config", "last_errors", "closed",
        }
