"""PlanService tests: coalescing, backpressure, timeout, drain."""

import sys
import threading
import time

import pytest

from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanService,
    PlanTimeout,
    ServiceClosed,
)
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore


def rmat_request(seed=0, **overrides):
    payload = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}
    payload.update(overrides)
    return PlanRequest.from_dict(payload)


@pytest.fixture
def service(tmp_path):
    svc = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    yield svc
    svc.close()


def hold_worker(svc, seed=99):
    """Block ``svc``'s compute on a gate and occupy one worker with it.

    Returns ``(gate, thread)``: set the gate to let computes finish.
    """
    gate = threading.Event()
    real = svc._compute
    svc._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]
    thread = threading.Thread(
        target=svc.plan, args=(rmat_request(seed=seed),), kwargs={"timeout_s": 30.0}
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while svc.metrics.gauge("plans_in_flight").value < 1:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return gate, thread


def wait_for_queue(svc, size):
    deadline = time.monotonic() + 5.0
    while svc._queue.qsize() < size:
        assert time.monotonic() < deadline
        time.sleep(0.01)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"default_timeout_s": 0},
            {"default_timeout_s": -1.0},
            {"default_timeout_s": float("nan")},
            {"default_timeout_s": float("inf")},
            {"default_timeout_s": 1e300},
        ],
    )
    def test_rejects_out_of_range_settings(self, tmp_path, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PlanService(store=PlanStore(tmp_path / "p"), **kwargs)

    @pytest.mark.parametrize(
        "walls, hint", [([], 0.1), ([0.001], 0.05), ([0.5], 0.5), ([60.0], 5.0)]
    )
    def test_retry_after_hint_tracks_median_plan_wall(self, service, walls, hint):
        for wall in walls:
            service._plan_wall.observe(wall)
        assert service.retry_after_hint() == pytest.approx(hint)


class TestHappyPath:
    def test_computed_then_store(self, service):
        result, served = service.plan(rmat_request())
        assert served == "computed"
        again, served2 = service.plan(rmat_request())
        assert served2 == "store"
        assert again == result
        counters = service.metrics.snapshot()["counters"]
        assert counters["requests_accepted"] == 2
        assert counters["requests_completed"] == 2
        assert counters["plans_computed"] == 1

    def test_store_survives_restart(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p")) as svc:
            first, _ = svc.plan(rmat_request())
        with PlanService(store=PlanStore(tmp_path / "p")) as svc:
            again, served = svc.plan(rmat_request())
        assert served == "store"
        assert again == first

    def test_distinct_requests_distinct_plans(self, service):
        a, _ = service.plan(rmat_request(seed=1))
        b, _ = service.plan(rmat_request(seed=2))
        assert a.digest != b.digest


class TestCoalescing:
    def test_concurrent_same_digest_computes_once(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=2, queue_depth=8)
        gate = threading.Event()
        real_compute = svc._compute

        def slow_compute(request, digest):
            gate.wait(5.0)
            return real_compute(request, digest)

        svc._compute = slow_compute
        outcomes = []

        def call():
            outcomes.append(svc.plan(rmat_request(), timeout_s=10.0))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        # Let every request register against the in-flight entry.
        deadline = time.monotonic() + 5.0
        while svc.metrics.counter("requests_coalesced").value < 3:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        gate.set()
        for t in threads:
            t.join()
        svc.close()
        assert len(outcomes) == 4
        assert len({r.digest for r, _ in outcomes}) == 1
        counters = svc.metrics.snapshot()["counters"]
        assert counters["plans_computed"] == 1
        assert counters["requests_coalesced"] == 3
        served = sorted(s for _, s in outcomes)
        assert served == ["coalesced", "coalesced", "coalesced", "computed"]


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=1)
        gate = threading.Event()
        real = svc._compute
        svc._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]

        def call(seed):
            svc.plan(rmat_request(seed=seed), timeout_s=30.0)

        # Occupy the worker, then fill the single queue slot.
        t1 = threading.Thread(target=call, args=(1,))
        t1.start()
        deadline = time.monotonic() + 5.0
        while svc.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        t2 = threading.Thread(target=call, args=(2,))
        t2.start()
        deadline = time.monotonic() + 5.0
        while svc._queue.qsize() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(AdmissionRejected) as excinfo:
            svc.plan(rmat_request(seed=3))
        assert excinfo.value.retry_after_s > 0
        assert svc.metrics.counter("requests_rejected").value == 1
        gate.set()
        t1.join()
        t2.join()
        svc.close()


    def test_store_hit_is_served_while_the_queue_is_full(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=1)
        stored, _ = svc.plan(rmat_request(seed=0))
        gate, blocker = hold_worker(svc, seed=1)
        queued = threading.Thread(
            target=svc.plan, args=(rmat_request(seed=2),), kwargs={"timeout_s": 30.0}
        )
        queued.start()
        wait_for_queue(svc, 1)
        with pytest.raises(AdmissionRejected):
            svc.plan(rmat_request(seed=3))
        result, served = svc.plan(rmat_request(seed=0))
        assert served == "store"
        assert result == stored
        gate.set()
        blocker.join()
        queued.join()
        svc.close()


class TestQueueOrder:
    def test_queued_plans_run_in_arrival_order(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=8)
        gate = threading.Event()
        started = []
        real = svc._compute

        def gated_compute(request, digest):
            started.append(request.generator["seed"])
            gate.wait(10.0)
            return real(request, digest)

        svc._compute = gated_compute
        threads = []

        def submit(seed):
            thread = threading.Thread(
                target=svc.plan, args=(rmat_request(seed=seed),),
                kwargs={"timeout_s": 30.0},
            )
            thread.start()
            threads.append(thread)

        # Hold the only worker on the first plan, then queue the rest one
        # at a time so their arrival order is known.
        submit(0)
        deadline = time.monotonic() + 5.0
        while svc.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        arrivals = [3, 1, 4, 2]
        deadline = time.monotonic() + 5.0
        for queued, seed in enumerate(arrivals, start=1):
            submit(seed)
            while svc._queue.qsize() < queued:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join()
        svc.close()
        assert started == [0] + arrivals
        assert svc.metrics.counter("plans_computed").value == 5


class TestTimeoutAndCancellation:
    def test_timeout_raises_and_counts(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=4)
        gate = threading.Event()
        real = svc._compute
        svc._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]
        blocker = threading.Thread(
            target=lambda: svc.plan(rmat_request(seed=1), timeout_s=10.0)
        )
        blocker.start()
        deadline = time.monotonic() + 5.0
        while svc.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # A second, queued plan abandoned by its only waiter is cancelled.
        with pytest.raises(PlanTimeout):
            svc.plan(rmat_request(seed=2), timeout_s=0.05)
        gate.set()
        blocker.join()
        svc.close()
        counters = svc.metrics.snapshot()["counters"]
        assert counters["requests_timeout"] == 1
        assert counters["plans_cancelled"] == 1
        # The cancelled plan never executed.
        assert counters["plans_computed"] == 1

    @pytest.mark.parametrize(
        "service_bound, request_bound, call_bound",
        [(0.05, None, None), (60.0, 0.05, None), (60.0, 30.0, 0.05)],
        ids=["service-default", "request-field", "call-argument"],
    )
    def test_wait_bound_precedence(self, tmp_path, service_bound, request_bound,
                                   call_bound):
        # The call argument beats the request's timeout_s, which beats
        # the service default; each case waits 0.05 s, not the others.
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1,
                          default_timeout_s=service_bound)
        gate, blocker = hold_worker(svc)
        overrides = {} if request_bound is None else {"timeout_s": request_bound}
        with pytest.raises(PlanTimeout, match=r"within 0\.050s"):
            svc.plan(rmat_request(seed=1, **overrides), timeout_s=call_bound)
        gate.set()
        blocker.join()
        svc.close()

    def test_cancelled_entry_keeps_its_replacement_registered(self, tmp_path):
        # A queued plan abandoned by its waiter is re-requested before a
        # worker discards it.  Discarding the stale entry must leave the
        # replacement in the in-flight map, so a third request joins it
        # instead of computing the same plan again.
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=8)
        gates = {1: threading.Event(), 2: threading.Event()}
        started = []
        real = svc._compute

        def gated_compute(request, digest):
            seed = request.generator["seed"]
            started.append(seed)
            gates[seed].wait(10.0)
            return real(request, digest)

        svc._compute = gated_compute
        blocker = threading.Thread(
            target=svc.plan, args=(rmat_request(seed=1),), kwargs={"timeout_s": 30.0}
        )
        blocker.start()
        deadline = time.monotonic() + 5.0
        while started != [1]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(PlanTimeout):
            svc.plan(rmat_request(seed=2), timeout_s=0.05)
        outcomes = []

        def request_seed_2():
            outcomes.append(svc.plan(rmat_request(seed=2), timeout_s=30.0)[1])

        replacement = threading.Thread(target=request_seed_2)
        replacement.start()
        wait_for_queue(svc, 2)
        gates[1].set()
        deadline = time.monotonic() + 5.0
        while started != [1, 2]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        joiner = threading.Thread(target=request_seed_2)
        joiner.start()
        deadline = time.monotonic() + 5.0
        while svc.metrics.counter("requests_accepted").value < 4:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        gates[2].set()
        for thread in (blocker, replacement, joiner):
            thread.join(10.0)
        svc.close()
        assert started == [1, 2]
        assert sorted(outcomes) == ["coalesced", "computed"]
        counters = svc.metrics.snapshot()["counters"]
        assert counters["plans_cancelled"] == 1
        assert counters["plans_computed"] == 2

    def test_failure_surfaces_error_text(self, service):
        # Digests fine, but the generator rejects it at compute time:
        # 2000 nonzeros cannot fit a 16x16 matrix.
        bad = PlanRequest.from_dict(
            {"generator": {"kind": "rmat", "scale": 4, "nnz": 2000, "seed": 0}}
        )
        with pytest.raises(PlanFailed):
            service.plan(bad)
        assert service.metrics.counter("requests_failed").value == 1


class TestShutdown:
    def test_close_rejects_new_requests(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.plan(rmat_request())

    def test_close_is_idempotent(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"))
        svc.close()
        svc.close()

    def test_drain_completes_inflight_plans(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=8)
        results = []

        def call(seed):
            results.append(svc.plan(rmat_request(seed=seed), timeout_s=30.0))

        threads = [threading.Thread(target=call, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while svc.metrics.counter("requests_accepted").value < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        svc.close()
        for t in threads:
            t.join()
        # Every admitted request completed; none were abandoned.
        assert len(results) == 3
        counters = svc.metrics.snapshot()["counters"]
        assert counters["requests_completed"] == counters["requests_accepted"]

    def test_close_racing_enqueue_still_computes_admitted_plan(self, tmp_path):
        # close() starts while a new plan is being enqueued.  The plan
        # was admitted, so it must be queued ahead of the shutdown
        # sentinels and computed, not left in a queue no worker reads.
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=4)
        real_put = svc._queue.put_nowait
        closers = []

        def put_racing_close(item, *args, **kwargs):
            closer = threading.Thread(target=svc.close)
            closer.start()
            closers.append(closer)
            closer.join(0.5)
            return real_put(item, *args, **kwargs)

        svc._queue.put_nowait = put_racing_close
        try:
            result, served = svc.plan(rmat_request(), timeout_s=3.0)
        finally:
            for closer in closers:
                closer.join(10.0)
        assert served == "computed"
        assert result.digest == rmat_request().digest()
        assert svc.closed

    def test_close_under_concurrent_submissions_answers_every_request(self, tmp_path):
        # Clients keep submitting new plans while close() drains: every
        # request is computed or refused, and none waits out its bound.
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=4, queue_depth=64)
        svc._compute = lambda request, digest: digest
        outcomes = []
        lock = threading.Lock()

        def client(first_seed):
            for seed in range(first_seed, first_seed + 10_000):
                try:
                    _, served = svc.plan(rmat_request(seed=seed), timeout_s=5.0)
                except ServiceClosed:
                    served = "closed"
                except PlanTimeout:
                    served = "timeout"
                with lock:
                    outcomes.append(served)
                if served == "closed":
                    return

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [
                threading.Thread(target=client, args=(k * 10_000,)) for k in range(8)
            ]
            for thread in clients:
                thread.start()
            time.sleep(0.2)
            svc.close()
            for thread in clients:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in clients)
        assert "timeout" not in outcomes
        assert outcomes.count("closed") == len(clients)
        counters = svc.metrics.snapshot()["counters"]
        assert counters["requests_completed"] == counters["requests_accepted"]

    def test_stats_snapshot_shape(self, service):
        service.plan(rmat_request())
        stats = service.stats()
        assert stats["uptime_s"] >= 0
        assert stats["config"]["workers"] == 2
        assert "store" in stats
        assert stats["counters"]["requests_completed"] == 1
        assert stats["histograms"]["request_latency_s"]["count"] == 1
