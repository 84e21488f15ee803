"""Transport-agnostic endpoint handlers for the plan service.

One place owns the mapping from :class:`~repro.service.planner.
PlanService` outcomes and exceptions to ``(status, body, headers)``
triples; the stdlib HTTP front end (:mod:`repro.service.httpd`) only
carries them, so the status contract is testable without a socket.

Status contract (docs/service.md, docs/streaming.md):

========  ===========================================================
``200``   served (plan / applied delta / stored plan / stats)
``400``   malformed request, digest, or delta payload
``404``   unknown endpoint, digest, or lineage
``409``   superseded lineage head (body carries ``head_digest``)
``429``   admission queue shed the request (+ ``Retry-After``)
``500``   the plan computation raised (structured ``error_detail``)
``503``   draining service (+ ``Retry-After``)
``504``   per-request wait bound elapsed
========  ===========================================================
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanService,
    PlanTimeout,
    ServiceClosed,
)
from repro.service.protocol import PlanRequest, ProtocolError
from repro.streaming.lineage import StaleDigestError, UnknownLineageError

__all__ = [
    "Reply",
    "is_hex_digest",
    "plan_endpoint",
    "delta_endpoint",
    "get_plan_endpoint",
    "healthz_endpoint",
    "stats_endpoint",
]

#: ``(status, body, headers)`` -- what every endpoint handler answers.
Reply = Tuple[int, Dict[str, Any], Dict[str, str]]

_HEX = set("0123456789abcdef")


def is_hex_digest(digest: str) -> bool:
    return bool(digest) and not (set(digest) - _HEX)


def _retry_headers(retry_after_s: float) -> Dict[str, str]:
    return {"Retry-After": f"{retry_after_s:.3f}"}


def _draining_reply(service: PlanService, exc: ServiceClosed) -> Reply:
    # A draining service is a *transient* condition for the caller: the
    # server restarts or a replica takes over, so answer 503 plus an
    # advisory Retry-After instead of a bare 503 the client cannot
    # distinguish from "gone".
    retry_after = service.retry_after_hint()
    body = {"error": str(exc), "retry_after_s": retry_after}
    return 503, body, _retry_headers(retry_after)


def plan_endpoint(service: PlanService, payload: Mapping[str, Any]) -> Reply:
    """``POST /plan`` -- compute or fetch the plan for ``payload``."""
    try:
        request = PlanRequest.from_dict(payload)
    except ProtocolError as exc:
        return 400, {"error": str(exc)}, {}
    try:
        result, served = service.plan(request)
    except AdmissionRejected as exc:
        body = {"error": str(exc), "retry_after_s": exc.retry_after_s}
        return 429, body, _retry_headers(exc.retry_after_s)
    except PlanTimeout as exc:
        return 504, {"error": str(exc), "digest": exc.digest}, {}
    except ServiceClosed as exc:
        return _draining_reply(service, exc)
    except PlanFailed as exc:
        if exc.error.type == ProtocolError.__name__:
            # The worker could not build the matrix the request names (a
            # generator rejected its parameters, or the ``matrix_path``
            # file is not MatrixMarket): malformed, not a failure.
            return 400, {"error": exc.error.message}, {}
        # A plan is deterministic, so a retry would fail the same way:
        # 500, with the structured record for diagnosis (docs/service.md).
        return 500, {"error": str(exc), "error_detail": exc.error.to_dict()}, {}
    except ProtocolError as exc:
        # Raised by ``request.digest()`` for an unreadable ``matrix_path``.
        return 400, {"error": str(exc)}, {}
    return 200, {"served": served, "plan": result.to_dict()}, {}


def delta_endpoint(
    service: PlanService, digest: str, payload: Mapping[str, Any]
) -> Reply:
    """``POST /matrices/<digest>/delta`` -- apply a streaming delta."""
    if not is_hex_digest(digest):
        return 400, {"error": f"not a hex digest: {digest!r}"}, {}
    try:
        result, update = service.apply_delta(digest, payload)
    except ProtocolError as exc:
        return 400, {"error": str(exc)}, {}
    except UnknownLineageError as exc:
        return 404, {"error": str(exc.args[0]), "digest": exc.digest}, {}
    except StaleDigestError as exc:
        body = {
            "error": str(exc),
            "digest": exc.digest,
            "head_digest": exc.head_digest,
        }
        return 409, body, {}
    except ServiceClosed as exc:
        return _draining_reply(service, exc)
    except ValueError as exc:
        # Malformed DeltaBatch wire form or out-of-bounds coordinates.
        return 400, {"error": str(exc)}, {}
    body = {
        "applied": {
            "prev_digest": update.prev_digest,
            "new_digest": update.new_digest,
            "n_inserted": update.report.n_inserted,
            "n_overwritten": update.report.n_overwritten,
            "n_deleted": update.report.n_deleted,
            "nnz": update.nnz,
            "n_tiles": update.n_tiles,
            "tiles_repaired": update.repair.tiles_repaired,
            "repaired_fraction": update.repair.repaired_fraction,
        },
        "plan": result.to_dict(),
    }
    return 200, body, {}


def get_plan_endpoint(service: PlanService, digest: str) -> Reply:
    """``GET /plan/<digest>`` -- a previously stored plan."""
    if not is_hex_digest(digest):
        return 400, {"error": f"not a hex digest: {digest!r}"}, {}
    result = service.store.get(digest)
    if result is None:
        return 404, {"error": f"no stored plan for {digest[:12]}"}, {}
    return 200, {"served": "store", "plan": result.to_dict()}, {}


def healthz_endpoint(service: PlanService) -> Reply:
    """``GET /healthz`` -- liveness (503 while draining)."""
    if service.closed:
        return 503, {"status": "draining"}, {}
    return 200, {"status": "ok"}, {}


def stats_endpoint(
    service: PlanService, server: Optional[Mapping[str, Any]] = None
) -> Reply:
    """``GET /stats`` -- the full metrics snapshot.

    ``server`` (host, bound port, ...) is folded in under the
    ``"server"`` key so callers that started the listener on ``--port 0``
    can discover the kernel-chosen ephemeral port from the API as well
    as from the startup line on stdout.
    """
    snapshot = service.stats()
    if server is not None:
        snapshot["server"] = dict(server)
    return 200, snapshot, {}
