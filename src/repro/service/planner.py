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

Failure handling (docs/service.md): a worker-side exception is captured
as a typed :class:`~repro.faults.errors.StructuredError` (exception
type, message, traceback tail, retryable flag) instead of a flattened
string.  *Retryable* failures (timeouts, connection-shaped OS errors,
:class:`~repro.faults.errors.RetryableError`) are retried in the worker
under a bounded exponential-backoff-with-jitter
:class:`~repro.faults.retry.RetryPolicy` before the error is surfaced;
*terminal* failures surface immediately.  The most recent failures are
kept in a ring exposed as ``last_errors`` in :meth:`PlanService.stats`.
With ``degraded_fallback=True``, a request whose wait bound elapses
receives a roofline-only fallback plan (label ``roofline-*``) instead of
a :class:`PlanTimeout` -- graceful degradation for callers that prefer a
coarse answer over none.

Counter semantics (the reconciliation the load generator checks):

- every arriving request ends in exactly one of ``requests_rejected``,
  ``requests_timeout``, ``requests_failed``, ``requests_degraded``, or
  ``requests_completed``;
- ``requests_accepted`` counts everything admitted past backpressure
  (store hits, coalesced joins, and new computations), so after a drain
  ``accepted == completed + failed + timeout + degraded``;
- ``requests_coalesced`` is informational (a subset of ``accepted``);
- ``plans_computed`` / ``plans_cancelled`` count unique computations,
  not requests; ``plans_retried`` counts retry attempts after
  retryable failures (also not requests).
"""

from __future__ import annotations

import collections
import dataclasses
import queue
import threading
import time
from typing import Any, Deque, Dict, Mapping, Optional, Tuple, Union

from repro.faults.errors import StructuredError, is_retryable
from repro.faults.retry import RetryPolicy
from repro.obs.tracer import get_tracer
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import PlanRequest, PlanResult
from repro.service.store import PlanStore
from repro.streaming.delta import DeltaBatch
from repro.streaming.lineage import LineageRegistry, LineageUpdate, MatrixLineage

__all__ = [
    "AdmissionRejected",
    "PlanTimeout",
    "PlanFailed",
    "ServiceClosed",
    "PlanService",
]


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


class PlanFailed(RuntimeError):
    """The plan computation raised; carries the structured worker error.

    ``error`` is the :class:`~repro.faults.errors.StructuredError`
    record (type, message, traceback tail, retryable flag); ``str(exc)``
    stays the ``"Type: message"`` form earlier callers parsed.
    """

    def __init__(self, error: StructuredError) -> None:
        super().__init__(str(error))
        self.error = error

    @property
    def retryable(self) -> bool:
        return self.error.retryable


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


class PlanService:
    """Async plan-serving: admission control, coalescing, worker pool."""

    def __init__(
        self,
        store: Optional[PlanStore] = None,
        workers: int = 2,
        queue_depth: int = 16,
        default_timeout_s: float = 60.0,
        metrics: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
        degraded_fallback: bool = False,
        error_ring: int = 16,
        track_lineage: bool = True,
        max_lineages: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.store = store if store is not None else PlanStore()
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.default_timeout_s = float(default_timeout_s)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.degraded_fallback = bool(degraded_fallback)
        self.track_lineage = bool(track_lineage)
        self.lineages = LineageRegistry(max_lineages=max_lineages)
        self.started_unix = time.time()
        self._retry_rng = self.retry.rng()
        self._errors: Deque[Dict[str, Any]] = collections.deque(maxlen=error_ring)

        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._discard = False
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
        self._degraded = m.counter("requests_degraded")
        self._computed = m.counter("plans_computed")
        # Which runtime model selected each computed plan (audit trail;
        # 'contention' only appears for PCIe-attached architectures).
        self._scored_contention = m.counter("plans_scored_contention")
        self._scored_naive = m.counter("plans_scored_naive")
        self._cancelled = m.counter("plans_cancelled")
        self._retried = m.counter("plans_retried")
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
    def plan(
        self, request: PlanRequest, timeout_s: Optional[float] = None
    ) -> Tuple[PlanResult, str]:
        """Serve one plan request, blocking until done or timed out.

        Returns ``(result, served)`` where ``served`` is ``"store"``
        (warm hit), ``"computed"`` (this request triggered the
        computation), ``"coalesced"`` (joined an in-flight one), or
        ``"degraded"`` (wait bound elapsed and ``degraded_fallback``
        produced a roofline-only plan).

        Raises :class:`ServiceClosed`, :class:`AdmissionRejected`,
        :class:`PlanTimeout`, :class:`PlanFailed`, or
        :class:`~repro.service.protocol.ProtocolError`.

        Every call emits exactly one ``service.request`` span on the
        global tracer, annotated with the request digest and its final
        outcome (``store`` / ``computed`` / ``coalesced`` / ``degraded``
        / ``rejected`` / ``timeout`` / ``failed`` / ``closed``) -- the
        invariant the
        tracing concurrency test reconciles against the counters above.
        """
        with get_tracer().span("service.request", cat="service") as req_span:
            try:
                result, served = self._plan_traced(request, timeout_s, req_span)
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
        self, request: PlanRequest, timeout_s: Optional[float], req_span: Any
    ) -> Tuple[PlanResult, str]:
        tracer = get_tracer()
        start = time.monotonic()
        if self._closed:
            raise ServiceClosed("service is shutting down")
        if timeout_s is None:
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
            if self.degraded_fallback:
                fallback = self._degraded_plan(request, digest, tracer)
                if fallback is not None:
                    self._degraded.inc()
                    self._latency.observe(time.monotonic() - start)
                    return fallback, "degraded"
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

    def _degraded_plan(
        self, request: PlanRequest, digest: str, tracer: Any
    ) -> Optional[PlanResult]:
        """Roofline-only fallback for a request whose wait bound elapsed.

        Skips the scan/partition/format-generation pipeline entirely:
        resolve the matrix, predict the whole-matrix runtime of each
        worker group with the holistic roofline (PCIe-capped bandwidth
        for the hot group, as in the IUnaware baseline), and answer with
        the faster group's homogeneous plan.  The result is *not*
        published to the store -- it is a coarse stopgap, not the real
        plan (docs/service.md).  Returns ``None`` if even the fallback
        fails, in which case the caller falls through to PlanTimeout.
        """
        from repro.core.contention import effective_cold_bw, effective_hot_bw
        from repro.core.roofline import roofline_estimate

        start = time.monotonic()
        try:
            with tracer.span("service.degraded", cat="service", digest=digest[:12]):
                matrix = request.resolve_matrix()
                arch = request.build_architecture()
                # Same drain-rate caps as the contention evaluator: the hot
                # group is serialized through PCIe *and* DRAM; the cold
                # group through DRAM (and its own aggregate peak rate).
                bw = effective_cold_bw(arch)
                hot_bw = effective_hot_bw(arch)
                candidates = []
                if arch.hot.count > 0:
                    th = roofline_estimate(
                        matrix, arch.hot.traits, arch.problem, hot_bw
                    ).time_s
                    candidates.append((th / arch.hot.count, "roofline-hot-only", 1.0))
                if arch.cold.count > 0:
                    tc = roofline_estimate(
                        matrix, arch.cold.traits, arch.problem, bw
                    ).time_s
                    candidates.append((tc / arch.cold.count, "roofline-cold-only", 0.0))
                predicted_s, label, hot_frac = min(candidates)
                return PlanResult(
                    digest=digest,
                    arch=request.arch,
                    scale=request.scale,
                    n_rows=matrix.n_rows,
                    n_cols=matrix.n_cols,
                    nnz=matrix.nnz,
                    label=label,
                    mode="parallel",
                    n_tiles=0,
                    hot_tiles=0,
                    hot_nnz_fraction=hot_frac,
                    predicted_time_s=predicted_s,
                    scan_s=0.0,
                    partition_s=0.0,
                    format_generation_s=0.0,
                    plan_wall_s=time.monotonic() - start,
                    artifacts=(),
                    created_unix=time.time(),
                    naive_time_s=predicted_s,
                    scorer="roofline",
                )
        except Exception as exc:  # noqa: BLE001 -- fallback is best-effort
            tracer.event(
                "service.degraded_failed",
                cat="service",
                digest=digest[:12],
                error=f"{type(exc).__name__}: {exc}",
            )
            return None

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
                if item.cancelled or self._discard:
                    # A request may already have registered a replacement
                    # for this digest; deregister only this entry.
                    if self._inflight.get(item.digest) is item:
                        del self._inflight[item.digest]
                    item.error = StructuredError(
                        type="Cancelled",
                        message="cancelled before execution",
                        retryable=True,
                    )
                    item.event.set()
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
                item.result = self._compute_with_retry(item)
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

    def _compute_with_retry(self, item: _Inflight) -> PlanResult:
        """Run one computation under the bounded-backoff retry policy.

        Only *retryable* failures are retried, and only while the
        service is open; the exception that finally escapes is the
        underlying one (not a wrapper), so the ``StructuredError`` the
        waiters receive names the real fault.
        """
        tracer = get_tracer()
        policy = self.retry
        for attempt in range(1, policy.max_attempts + 1):
            try:
                with tracer.span(
                    "service.compute", cat="service", digest=item.digest[:12]
                ):
                    return self._compute(item.request, item.digest)
            except Exception as exc:  # noqa: BLE001 -- classified below
                if (
                    not is_retryable(exc)
                    or attempt == policy.max_attempts
                    or self._closed
                ):
                    raise
                self._retried.inc()
                tracer.event(
                    "service.retry",
                    cat="service",
                    digest=item.digest[:12],
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
                with self._lock:
                    delay = policy.delay_s(attempt, self._retry_rng)
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _record_error(self, digest: str, error: StructuredError) -> None:
        """Append one failure to the ``last_errors`` ring (``/stats``)."""
        record = dict(error.to_dict())
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
        if self.track_lineage:
            with tracer.span(
                "service.register_lineage", cat="service", digest=digest[:12]
            ):
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
            "degraded_fallback": self.degraded_fallback,
            "retry_max_attempts": self.retry.max_attempts,
        }
        with self._lock:
            snapshot["last_errors"] = list(self._errors)
        snapshot["closed"] = self._closed
        return snapshot

    @property
    def closed(self) -> bool:
        return self._closed

    def begin_close(self, drain: bool = True) -> bool:
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
            if not drain:
                self._discard = True
            return True

    def close(self, drain: bool = True) -> None:
        """Stop admission, finish (or discard) queued plans, join workers.

        ``drain=True`` lets every already-admitted plan complete so no
        accepted request is abandoned; ``drain=False`` cancels whatever a
        worker has not yet started.  Idempotent.
        """
        self.begin_close(drain)
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
        self.close(drain=True)
