"""The partition-planning service core.

:class:`PlanService` owns a bounded admission queue, a pool of plan
worker threads running :class:`~repro.pipeline.preprocess.
HotTilesPreprocessor`, the content-addressed :class:`~repro.service.
store.PlanStore`, and a :class:`~repro.service.metrics.MetricsRegistry`.

Request lifecycle::

    plan(request)
      -> store hit?            serve immediately           [completed]
      -> digest in flight?     join the existing compute   [coalesced, completed]
      -> queue has room?       enqueue a new compute       [completed | failed]
      -> queue full            AdmissionRejected           [rejected]

Every admitted request waits on the shared computation with its own
timeout; a computation abandoned by all of its waiters before a worker
picks it up is cancelled instead of executed.  Threads (not processes)
are the right grain here: one plan is milliseconds-to-seconds of
numpy-heavy work that releases the GIL in its hot loops, and the store
and coalescing map are cheap to share in-process.

Failure handling (docs/service.md): the same request on the same code
gives the same plan, so a plan runs once and is never retried.  A
worker-side exception is captured as a :class:`StructuredError`
(exception type, message, traceback tail) and raised to every waiter as
:class:`PlanFailed`; the most recent :data:`ERROR_RING` failures are
exposed as ``last_errors`` in :meth:`PlanService.stats`.  An elapsed
wait raises :class:`PlanTimeout`.

Counter semantics (checked under load by ``tests/service/test_tracing.py``,
``TestConcurrentLoad`` in ``tests/service/test_httpd.py`` and the SIGTERM
drain test in ``tests/test_cli.py``):

- every admitted request ends in exactly one of ``requests_timeout``,
  ``requests_failed``, or ``requests_completed``; a request shed by the
  full queue ends in ``requests_rejected``, and one refused while the
  service drains counts in none;
- ``requests_accepted`` counts everything admitted past backpressure
  (store hits, coalesced joins, and new computations), so after a drain
  ``accepted == completed + failed + timeout``;
- ``requests_coalesced`` is informational (a subset of ``accepted``);
- ``plans_computed`` / ``plans_cancelled`` count unique computations,
  not requests.
"""

from __future__ import annotations

import collections
import dataclasses
import queue
import threading
import time
import traceback
from typing import Any, Deque, Dict, Mapping, Optional, Tuple, Union

from repro.obs.tracer import get_tracer
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import PlanRequest, PlanResult, is_wait_bound
from repro.service.store import PlanStore
from repro.streaming.delta import DeltaBatch
from repro.streaming.lineage import LineageRegistry, LineageUpdate, MatrixLineage

__all__ = [
    "AdmissionRejected",
    "PlanTimeout",
    "PlanFailed",
    "ServiceClosed",
    "StructuredError",
    "PlanService",
    "check_settings",
]

#: Failures kept for ``last_errors`` in :meth:`PlanService.stats`.
ERROR_RING = 16
#: Matrix lineages a service keeps for streaming deltas (oldest evicted).
MAX_LINEAGES = 64
#: Traceback lines a :class:`StructuredError` keeps.
TRACEBACK_TAIL_LINES = 10


class AdmissionRejected(RuntimeError):
    """The admission queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"admission queue full, retry after {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


class PlanTimeout(TimeoutError):
    """The caller's wait bound elapsed before the plan completed."""

    def __init__(self, digest: str, timeout_s: float) -> None:
        super().__init__(f"plan {digest[:12]} not ready within {timeout_s:.3f}s")
        self.digest = digest


@dataclasses.dataclass(frozen=True)
class StructuredError:
    """The record of one worker-side failure.

    It is what :class:`PlanFailed` carries, what a ``500`` answers as
    ``error_detail``, and what ``last_errors`` in ``/stats`` lists.
    """

    type: str  #: exception class name
    message: str
    traceback_tail: str = ""  #: last traceback lines, newline-joined

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "StructuredError":
        """Capture ``exc`` with the last :data:`TRACEBACK_TAIL_LINES` lines."""
        lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
        tail = "".join(lines)[-4096:]
        tail = "\n".join(tail.strip().splitlines()[-TRACEBACK_TAIL_LINES:])
        return cls(type=type(exc).__name__, message=str(exc), traceback_tail=tail)


class PlanFailed(RuntimeError):
    """The plan computation raised; carries the structured worker error.

    ``error`` is the :class:`StructuredError` record; ``str(exc)`` is
    its ``"Type: message"`` form.
    """

    def __init__(self, error: StructuredError) -> None:
        super().__init__(str(error))
        self.error = error


class ServiceClosed(RuntimeError):
    """The service is draining or stopped and admits no new requests."""


class _Inflight:
    """One shared computation that any number of requests wait on."""

    __slots__ = ("digest", "request", "event", "result", "error", "waiters",
                 "started", "cancelled", "enqueued_at")

    def __init__(self, digest: str, request: PlanRequest) -> None:
        self.digest = digest
        self.request = request
        self.event = threading.Event()
        self.result: Optional[PlanResult] = None
        self.error: Optional[StructuredError] = None
        self.waiters = 1
        self.started = False
        self.cancelled = False
        self.enqueued_at = time.monotonic()


_SENTINEL = object()  #: shutdown: the receiving worker exits (close())


def check_settings(workers: int, queue_depth: int, default_timeout_s: float) -> None:
    """Raise :class:`ValueError` unless :class:`PlanService` can run with these.

    ``hottiles serve`` checks its flags with this before it creates or
    binds anything.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    if not is_wait_bound(default_timeout_s):
        raise ValueError(
            "default_timeout_s must be a positive number of seconds, at most "
            f"{threading.TIMEOUT_MAX:g}, got {default_timeout_s}"
        )


class PlanService:
    """Async plan-serving: admission control, coalescing, worker pool."""

    def __init__(
        self,
        store: Optional[PlanStore] = None,
        workers: int = 2,
        queue_depth: int = 16,
        default_timeout_s: float = 60.0,
    ) -> None:
        check_settings(workers, queue_depth, default_timeout_s)
        self.store = store if store is not None else PlanStore()
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.default_timeout_s = float(default_timeout_s)
        self.metrics = MetricsRegistry()
        self.lineages = LineageRegistry(max_lineages=MAX_LINEAGES)
        self.started_unix = time.time()
        self._errors: Deque[Dict[str, Any]] = collections.deque(maxlen=ERROR_RING)

        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._shutdown_started = False
        self._deltas_inflight = 0
        self._deltas_idle = threading.Event()
        self._deltas_idle.set()

        m = self.metrics
        self._accepted = m.counter("requests_accepted")
        self._rejected = m.counter("requests_rejected")
        self._coalesced = m.counter("requests_coalesced")
        self._completed = m.counter("requests_completed")
        self._failed = m.counter("requests_failed")
        self._timeout = m.counter("requests_timeout")
        self._computed = m.counter("plans_computed")
        # Which runtime model selected each computed plan (audit trail;
        # 'contention' only appears for PCIe-attached architectures).
        self._scored_contention = m.counter("plans_scored_contention")
        self._scored_naive = m.counter("plans_scored_naive")
        self._cancelled = m.counter("plans_cancelled")
        self._deltas_applied = m.counter("deltas_applied")
        self._tiles_repaired = m.counter("tiles_repaired")
        self._queue_gauge = m.gauge("queue_depth")
        self._inflight_gauge = m.gauge("plans_in_flight")
        self._latency = m.histogram("request_latency_s")
        self._plan_wall = m.histogram("plan_wall_s")
        self._queue_wait = m.histogram("queue_wait_s")
        self._delta_wall = m.histogram("delta_apply_s")

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"plan-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def plan(self, request: PlanRequest) -> Tuple[PlanResult, str]:
        """Serve one plan request, blocking until done or timed out.

        The wait is bounded by ``request.timeout_s``, or by the service's
        ``default_timeout_s`` when the request sets none.  Returns
        ``(result, served)`` where ``served`` is ``"store"`` (warm hit),
        ``"computed"`` (this request triggered the computation), or
        ``"coalesced"`` (joined an in-flight one).

        Raises :class:`ServiceClosed`, :class:`AdmissionRejected`,
        :class:`PlanTimeout`, :class:`PlanFailed`, or
        :class:`~repro.service.protocol.ProtocolError`.

        Every call emits exactly one ``service.request`` span on the
        global tracer, annotated with the request digest and its final
        outcome (``store`` / ``computed`` / ``coalesced`` / ``rejected``
        / ``timeout`` / ``failed`` / ``closed``) -- the invariant the
        tracing concurrency test reconciles against the counters above.
        """
        with get_tracer().span("service.request", cat="service") as req_span:
            try:
                result, served = self._plan_traced(request, req_span)
            except AdmissionRejected:
                req_span.set(outcome="rejected")
                raise
            except PlanTimeout:
                req_span.set(outcome="timeout")
                raise
            except PlanFailed:
                req_span.set(outcome="failed")
                raise
            except ServiceClosed:
                req_span.set(outcome="closed")
                raise
            req_span.set(outcome=served)
            return result, served

    def _plan_traced(
        self, request: PlanRequest, req_span: Any
    ) -> Tuple[PlanResult, str]:
        tracer = get_tracer()
        start = time.monotonic()
        if self._closed:
            raise ServiceClosed("service is shutting down")
        timeout_s = (
            request.timeout_s
            if request.timeout_s is not None
            else self.default_timeout_s
        )
        digest = request.digest()
        req_span.set(digest=digest[:12])

        with tracer.span("service.store_lookup", cat="service", digest=digest[:12]):
            cached = self.store.get(digest)
        if cached is not None:
            self._accepted.inc()
            self._completed.inc()
            self._latency.observe(time.monotonic() - start)
            return cached, "store"

        entry, primary = self._join_or_register(digest, request)
        self._accepted.inc()
        if primary:
            self._queue_gauge.set(self._queue.qsize())
        else:
            self._coalesced.inc()

        served = "computed" if primary else "coalesced"
        with tracer.span(
            "service.wait", cat="service", digest=digest[:12], served=served
        ):
            completed = entry.event.wait(timeout_s)
        if not completed:
            with self._lock:
                entry.waiters -= 1
                if entry.waiters <= 0 and not entry.started:
                    entry.cancelled = True
            self._timeout.inc()
            raise PlanTimeout(digest, timeout_s)
        if entry.error is not None:
            self._failed.inc()
            raise PlanFailed(entry.error)
        self._completed.inc()
        self._latency.observe(time.monotonic() - start)
        assert entry.result is not None
        return entry.result, served

    def apply_delta(
        self, digest: str, delta: Union[DeltaBatch, Mapping[str, Any]]
    ) -> Tuple[PlanResult, LineageUpdate]:
        """Apply a streaming delta to the matrix lineage behind ``digest``.

        ``digest`` must be the *current head* of a lineage this service
        registered (the digest returned by the original plan, or by the
        most recent delta).  ``delta`` is a :class:`~repro.streaming.
        delta.DeltaBatch` or its wire-form mapping (``DeltaBatch.
        from_dict``).  Returns the repaired plan's :class:`~repro.
        service.protocol.PlanResult` -- published to the store under the
        new head digest -- together with the :class:`~repro.streaming.
        lineage.LineageUpdate` accounting record.

        Raises :class:`ServiceClosed` when draining,
        :class:`~repro.streaming.lineage.UnknownLineageError` for a
        digest no lineage ever carried (HTTP 404),
        :class:`~repro.streaming.lineage.StaleDigestError` when the
        digest names a superseded head (HTTP 409; the error carries the
        current head), and :class:`ValueError` for a malformed payload
        (HTTP 400).  An empty batch is a pure no-op: same digest, same
        plan, no counters advanced.
        """
        tracer = get_tracer()
        # Admission and the in-flight count move together under the lock:
        # once close() has observed zero in-flight deltas after setting
        # _closed, no new delta can slip in, so a drain never interrupts
        # a half-advanced lineage head (every delta either completes
        # fully or is rejected here, before touching the lineage).
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            self._deltas_inflight += 1
            self._deltas_idle.clear()
        try:
            return self._apply_delta_admitted(digest, delta, tracer)
        finally:
            with self._lock:
                self._deltas_inflight -= 1
                if self._deltas_inflight == 0:
                    self._deltas_idle.set()

    def _apply_delta_admitted(
        self, digest: str, delta: Union[DeltaBatch, Mapping[str, Any]], tracer: Any
    ) -> Tuple[PlanResult, LineageUpdate]:
        if not isinstance(delta, DeltaBatch):
            delta = DeltaBatch.from_dict(delta)
        start = time.monotonic()
        with tracer.span(
            "service.apply_delta", cat="service", digest=digest[:12]
        ) as span:
            update = self.lineages.apply(digest, delta)
            lineage = self.lineages.resolve(update.new_digest)
            wall = time.monotonic() - start
            span.set(
                new_digest=update.new_digest[:12],
                tiles_repaired=update.repair.tiles_repaired,
            )
            if update.new_digest == update.prev_digest:
                base = lineage.meta
                assert isinstance(base, PlanResult)
                return base, update
            chosen = update.partition.chosen
            base = lineage.meta
            assert isinstance(base, PlanResult)
            result = dataclasses.replace(
                base,
                digest=update.new_digest,
                nnz=update.nnz,
                label=chosen.label,
                mode=chosen.mode.value,
                n_tiles=update.n_tiles,
                hot_tiles=chosen.hot_tile_count,
                hot_nnz_fraction=update.hot_nnz_fraction,
                predicted_time_s=chosen.predicted_time_s,
                naive_time_s=(
                    chosen.naive_time_s
                    if chosen.naive_time_s is not None
                    else chosen.predicted_time_s
                ),
                scorer=chosen.scorer,
                scan_s=0.0,
                partition_s=wall,
                format_generation_s=0.0,
                plan_wall_s=wall,
                artifacts=(),
                created_unix=time.time(),
            )
            lineage.meta = result
            with tracer.span(
                "service.store_publish", cat="service", digest=update.new_digest[:12]
            ):
                self.store.put(result)
            self._deltas_applied.inc()
            self._tiles_repaired.inc(update.repair.tiles_repaired)
            self._delta_wall.observe(wall)
            return result, update

    def _join_or_register(
        self, digest: str, request: PlanRequest
    ) -> Tuple[_Inflight, bool]:
        """Join the computation in flight for ``digest``, or enqueue one.

        Returns ``(entry, primary)``; ``primary`` is true when this call
        enqueued a new computation.  The enqueue happens under the lock
        :meth:`begin_close` takes, so a plan admitted here is always
        queued ahead of the shutdown sentinels :meth:`close` puts after
        it, and a worker computes it before exiting.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            entry = self._inflight.get(digest)
            if entry is not None and not entry.cancelled:
                entry.waiters += 1
                return entry, False
            entry = _Inflight(digest, request)
            try:
                self._queue.put_nowait(entry)
            except queue.Full:
                self._rejected.inc()
                raise AdmissionRejected(self.retry_after_hint()) from None
            self._inflight[digest] = entry
            return entry, True

    def retry_after_hint(self) -> float:
        """Advisory client backoff: about one plan's worth of queue motion."""
        p50 = self._plan_wall.percentile(50)
        return max(0.05, min(p50 if p50 > 0 else 0.1, 5.0))

    # ------------------------------------------------------------------
    # The worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            tracer = get_tracer()
            self._queue_gauge.set(self._queue.qsize())
            with self._lock:
                if item.cancelled:
                    # Every waiter left before a worker picked it up.  A
                    # request may already have registered a replacement
                    # for this digest; deregister only this entry.
                    if self._inflight.get(item.digest) is item:
                        del self._inflight[item.digest]
                    self._cancelled.inc()
                    tracer.event(
                        "service.cancelled", cat="service", digest=item.digest[:12]
                    )
                    continue
                item.started = True
            picked_up = time.monotonic()
            self._queue_wait.observe(picked_up - item.enqueued_at)
            if tracer.enabled:
                # The wait already happened; backfill it as a completed
                # span ending now, on this worker's wall track.
                tracer.complete(
                    "service.queue_wait",
                    ts=tracer.rel(item.enqueued_at),
                    dur=picked_up - item.enqueued_at,
                    process="wall",
                    track=threading.current_thread().name,
                    cat="service",
                    digest=item.digest[:12],
                )
            self._inflight_gauge.inc()
            start = time.monotonic()
            try:
                with tracer.span(
                    "service.compute", cat="service", digest=item.digest[:12]
                ):
                    item.result = self._compute(item.request, item.digest)
            except Exception as exc:  # noqa: BLE001 -- surfaced to every waiter
                item.error = StructuredError.from_exception(exc)
                self._record_error(item.digest, item.error)
            finally:
                wall = time.monotonic() - start
                with self._lock:
                    self._inflight.pop(item.digest, None)
                item.event.set()
                self._inflight_gauge.dec()
                self._computed.inc()
                self._plan_wall.observe(wall)

    def _record_error(self, digest: str, error: StructuredError) -> None:
        """Append one failure to the ``last_errors`` ring (``/stats``)."""
        record = error.to_dict()
        record["digest"] = digest[:12]
        record["unix"] = time.time()
        with self._lock:
            self._errors.append(record)

    def _compute(self, request: PlanRequest, digest: str) -> PlanResult:
        """Resolve, preprocess, persist -- the whole Sec. VI-B pipeline."""
        from repro.pipeline.preprocess import HotTilesPreprocessor

        tracer = get_tracer()
        start = time.monotonic()
        with tracer.span("service.resolve_matrix", cat="service"):
            matrix = request.resolve_matrix()
        arch = request.build_architecture()
        with tracer.span("service.preprocess", cat="service"):
            preprocessor = HotTilesPreprocessor(arch)
            preprocess = preprocessor.run(matrix)
        with tracer.span("service.save_artifacts", cat="service", digest=digest[:12]):
            artifacts = tuple(self.store.save_artifacts(digest, preprocess))
        result = PlanResult.from_preprocess(
            request,
            digest,
            matrix,
            preprocess,
            plan_wall_s=time.monotonic() - start,
            artifacts=artifacts,
        )
        if result.scorer == "contention":
            self._scored_contention.inc()
        else:
            self._scored_naive.inc()
        # Publish to the store *before* waking waiters/deregistering so a
        # request that misses the in-flight map can only do so after the
        # store already holds the result.
        with tracer.span("service.store_publish", cat="service", digest=digest[:12]):
            self.store.put(result)
        with tracer.span("service.register_lineage", cat="service", digest=digest[:12]):
            self.lineages.register(
                MatrixLineage(
                    digest,
                    preprocess.tiled,
                    preprocessor.partitioner,
                    result=preprocess.partition,
                    meta=result,
                )
            )
        return result

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One JSON-serializable snapshot (the ``/stats`` payload)."""
        snapshot = self.metrics.snapshot()
        snapshot["store"] = self.store.stats()
        snapshot["lineages"] = len(self.lineages)
        snapshot["uptime_s"] = time.time() - self.started_unix
        snapshot["config"] = {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "default_timeout_s": self.default_timeout_s,
        }
        with self._lock:
            snapshot["last_errors"] = list(self._errors)
        snapshot["closed"] = self._closed
        return snapshot

    @property
    def closed(self) -> bool:
        return self._closed

    def begin_close(self) -> bool:
        """Atomically stop admission without waiting for shutdown.

        The first caller wins (returns ``True``); from that point every
        new ``plan``/``apply_delta`` answers :class:`ServiceClosed`.  A
        graceful drain (docs/service.md) can call this synchronously so
        the 503 window opens at once, then finish the slow part --
        :meth:`close` -- off the calling thread.
        """
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            return True

    def close(self) -> None:
        """Stop admission, finish every admitted plan, join the workers.

        No accepted request is abandoned: a plan admitted before the
        drain began still runs and answers its waiters.  Idempotent.
        """
        self.begin_close()
        with self._lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        # Plans are enqueued only under the lock while _closed is unset,
        # so every admitted plan is already queued ahead of these.
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()
        # Let in-flight deltas (HTTP handler threads, not workers) finish
        # so no lineage head is left half-advanced; new ones are already
        # rejected because _closed is set.
        self._deltas_idle.wait(timeout=60.0)
        self.store.flush_counters()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
