"""One planner shard in-process: frame ops, drain, and the frame loop.

``ShardServer.dispatch`` is the whole op table, so most tests call it
directly; the frame-loop tests run the server on a thread and talk to it
over a loopback socket with the same framing the router uses.
"""

import os
import socket
import threading
import time

import pytest

from repro.cluster.ipc import recv_frame, send_frame
from repro.cluster.manager import _HANDSHAKE_RE
from repro.cluster.shard import ShardServer
from repro.service.metrics import MetricsRegistry
from repro.service.planner import PlanService
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
def shard(tmp_path):
    service = PlanService(store=PlanStore(tmp_path / "plans"), workers=1, queue_depth=8)
    server = ShardServer(3, service, port=0)
    yield server
    server.server_close()
    service.close()


@pytest.fixture
def live_shard(shard):
    """``shard`` serving frames on a background thread."""
    thread = threading.Thread(
        target=shard.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield shard, thread
    shard.shutdown()
    thread.join(10.0)


def planned_digest(shard):
    reply = shard.dispatch({"op": "plan", "payload": RMAT})
    assert reply["status"] == 200
    return reply["body"]["plan"]["digest"]


class TestDispatch:
    def test_plan_op_computes_then_serves_from_store(self, shard):
        first = shard.dispatch({"op": "plan", "payload": RMAT})
        second = shard.dispatch({"op": "plan", "payload": RMAT})
        assert first["status"] == second["status"] == 200
        assert first["body"]["served"] == "computed"
        assert second["body"]["served"] == "store"
        assert first["body"]["plan"] == second["body"]["plan"]

    def test_plan_op_without_payload_is_400(self, shard):
        reply = shard.dispatch({"op": "plan"})
        assert reply["status"] == 400
        assert "exactly one" in reply["body"]["error"]

    def test_delta_op_advances_the_lineage(self, shard):
        digest = planned_digest(shard)
        reply = shard.dispatch({"op": "delta", "digest": digest, "payload": DELTA})
        assert reply["status"] == 200
        applied = reply["body"]["applied"]
        assert applied["prev_digest"] == digest
        assert applied["new_digest"] != digest
        assert reply["body"]["plan"]["digest"] == applied["new_digest"]

    def test_delta_op_on_unknown_lineage_is_404(self, shard):
        reply = shard.dispatch({"op": "delta", "digest": "ab" * 32, "payload": DELTA})
        assert reply["status"] == 404

    def test_get_plan_op_reads_the_store(self, shard):
        digest = planned_digest(shard)
        reply = shard.dispatch({"op": "get_plan", "digest": digest})
        assert reply["status"] == 200
        assert reply["body"] == {
            "served": "store",
            "plan": shard.service.store.get(digest).to_dict(),
        }

    def test_get_plan_op_for_unknown_digest_is_404(self, shard):
        reply = shard.dispatch({"op": "get_plan", "digest": "cd" * 32})
        assert reply["status"] == 404

    def test_stats_op_carries_metrics_dump_and_server(self, shard):
        planned_digest(shard)
        reply = shard.dispatch({"op": "stats"})
        assert reply["status"] == 200
        body = reply["body"]
        assert body["server"]["shard"] == 3
        assert body["server"]["port"] == shard.bound_port
        assert body["draining"] is False
        # The dump is what the router merges: it must rebuild the counters.
        merged = MetricsRegistry()
        merged.merge(body["metrics_dump"])
        assert merged.snapshot()["counters"] == body["counters"]

    def test_healthz_op_reports_shard_and_drain_state(self, shard):
        reply = shard.dispatch({"op": "healthz"})
        assert reply["status"] == 200
        assert reply["body"] == {
            "status": "ok", "shard": 3, "draining": False, "drained": False,
        }

    @pytest.mark.parametrize("op", ["bogus", None])
    def test_unknown_op_is_400_naming_it(self, shard, op):
        reply = shard.dispatch({"op": op})
        assert reply["status"] == 400
        assert repr(op) in reply["body"]["error"]

    def test_stop_op_flags_the_reply_only(self, shard):
        # dispatch() answers; the frame loop acts on the flag after sending.
        reply = shard.dispatch({"op": "stop"})
        assert reply["_stop"] is True
        assert reply["body"] == {"stopping": True, "shard": 3}
        assert not shard._stop_requested.is_set()


class TestDrain:
    def test_drain_closes_admission_before_replying(self, shard):
        reply = shard.dispatch({"op": "drain"})
        assert reply == {
            "status": 200, "body": {"draining": True, "shard": 3}, "headers": {},
        }
        plan = shard.dispatch({"op": "plan", "payload": RMAT})
        assert plan["status"] == 503
        assert float(plan["headers"]["Retry-After"]) > 0
        assert shard._drained.wait(10.0)
        health = shard.dispatch({"op": "healthz"})
        assert health["status"] == 503
        assert health["body"]["draining"] is True
        assert health["body"]["drained"] is True

    def test_drain_is_idempotent(self, shard):
        shard.dispatch({"op": "drain"})
        first_thread = shard._drain_thread
        again = shard.dispatch({"op": "drain"})
        assert again["status"] == 200
        assert shard._drain_thread is first_thread

    def test_drain_lets_an_admitted_plan_finish(self, shard):
        service = shard.service
        gate = threading.Event()
        real = service._compute
        service._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]
        replies = []
        client = threading.Thread(
            target=lambda: replies.append(shard.dispatch({"op": "plan", "payload": RMAT}))
        )
        client.start()
        deadline = time.monotonic() + 5.0
        while service.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        shard.dispatch({"op": "drain"})
        assert not shard._drained.is_set()
        gate.set()
        client.join(10.0)
        assert replies[0]["status"] == 200
        assert replies[0]["body"]["served"] == "computed"
        assert shard._drained.wait(10.0)


class TestFrameLoop:
    def connect(self, shard):
        return socket.create_connection(("127.0.0.1", shard.bound_port), timeout=10.0)

    def test_several_frames_share_one_connection(self, live_shard):
        shard, _ = live_shard
        with self.connect(shard) as sock:
            send_frame(sock, {"op": "healthz"})
            assert recv_frame(sock)["body"]["status"] == "ok"
            send_frame(sock, {"op": "plan", "payload": RMAT})
            assert recv_frame(sock)["body"]["served"] == "computed"

    def test_dispatch_error_answers_500_and_keeps_the_connection(self, live_shard):
        shard, _ = live_shard
        with self.connect(shard) as sock:
            send_frame(sock, ["not", "an", "object"])
            reply = recv_frame(sock)
            assert reply["status"] == 500
            assert reply["body"]["error"].startswith("AttributeError")
            send_frame(sock, {"op": "healthz"})
            assert recv_frame(sock)["status"] == 200

    def test_stop_op_ends_the_serve_loop(self, live_shard):
        shard, thread = live_shard
        with self.connect(shard) as sock:
            send_frame(sock, {"op": "stop"})
            assert recv_frame(sock)["body"]["stopping"] is True
            # The handler closes its side after the stop reply.
            assert recv_frame(sock) is None
        thread.join(10.0)
        assert not thread.is_alive()

    def test_handshake_line_parses_with_the_manager_pattern(self, shard):
        match = _HANDSHAKE_RE.search(shard.handshake_line())
        assert match is not None
        assert int(match.group(1)) == 3
        assert int(match.group(2)) == shard.bound_port > 0
        assert int(match.group(3)) == os.getpid()
