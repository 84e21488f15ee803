"""Simulator backend selection (``HOTTILES_BACKEND``).

The simulator ships two implementations of its hottest loops: the pure
Python/NumPy engine (always available) and the compiled kernels in
:mod:`repro.sim._native` (require numba).  Which one runs is resolved
here, per call, from -- in precedence order -- the process-local
override set by :func:`set_backend` / :func:`use_backend`, the
``HOTTILES_BACKEND`` environment variable, and the default ``auto``:

- ``auto``    -- native when numba is importable, else python (silent).
- ``python``  -- always the pure-Python engine.
- ``native``  -- the compiled kernels; *raises*
  :class:`BackendUnavailable` when numba is missing rather than quietly
  degrading, so CI jobs that demand the native path cannot pass on the
  fallback.

Both backends produce bit-identical results (no tolerances -- see
:mod:`repro.sim._native`), so selection is purely a performance choice;
``hottiles bench --backend`` and the service ``/stats`` endpoint report
which one is active via :func:`backend_info`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "VALID_BACKENDS",
    "BackendUnavailable",
    "requested_backend",
    "active_backend",
    "native_available",
    "set_backend",
    "use_backend",
    "backend_info",
    "native_fluid",
    "native_lru",
]

ENV_VAR = "HOTTILES_BACKEND"
VALID_BACKENDS = ("auto", "python", "native")

_override: Optional[str] = None


class BackendUnavailable(RuntimeError):
    """``native`` was explicitly requested but cannot run here."""


def _validate(name: str) -> str:
    name = name.strip().lower()
    if name not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}: expected one of {', '.join(VALID_BACKENDS)}"
        )
    return name


def native_available() -> bool:
    """True when the compiled backend can run (numba importable)."""
    from repro.sim._native.compiled import numba_available

    return numba_available()


def requested_backend() -> str:
    """The configured backend name before availability resolution."""
    if _override is not None:
        return _override
    return _validate(os.environ.get(ENV_VAR, "auto") or "auto")


def active_backend() -> str:
    """Resolve the backend that will actually execute: python|native.

    Raises :class:`BackendUnavailable` for an explicit ``native`` request
    on a machine without numba.
    """
    requested = requested_backend()
    if requested == "python":
        return "python"
    if requested == "native":
        if not native_available():
            raise BackendUnavailable(
                "HOTTILES_BACKEND=native requested but numba is not installed; "
                "install numba or use HOTTILES_BACKEND=auto|python"
            )
        return "native"
    return "native" if native_available() else "python"


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-local backend override.

    The override takes precedence over ``HOTTILES_BACKEND``; validation
    is eager, resolution (availability check) stays per-call.
    """
    global _override
    _override = None if name is None else _validate(name)


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scoped :func:`set_backend`, restoring the previous override."""
    global _override
    previous = _override
    set_backend(name)
    try:
        yield
    finally:
        _override = previous


def backend_info() -> Dict[str, object]:
    """JSON-safe snapshot for ``/stats`` and ``BENCH_PERF.json``.

    Never raises: an unsatisfiable ``native`` request is reported as
    ``active: "python"`` plus an ``error`` field (the simulate call
    itself *will* raise -- see :func:`active_backend`).
    """
    from repro.sim._native.compiled import numba_version

    info: Dict[str, object] = {
        "requested": requested_backend(),
        "native_available": native_available(),
        "numba_version": numba_version(),
    }
    try:
        info["active"] = active_backend()
    except BackendUnavailable as exc:
        info["active"] = "python"
        info["error"] = str(exc)
    return info


def native_fluid() -> Optional[Callable]:
    """The native ``_run_fluid`` twin when the native backend is active.

    Returns ``None`` when the python engine should run.  Called by
    ``engine._run_fluid`` on its untraced, fault-free path; propagates
    :class:`BackendUnavailable` for explicit-native misconfiguration.
    """
    if active_backend() != "native":
        return None
    from repro.sim import _native

    return _native.run_fluid


def native_lru() -> Optional[Callable]:
    """The native LRU kernel when active, else ``None``.

    The caller (``cache.windowed_lru_misses``) still guards the dense
    id-range precondition (``repro.sim._native.DENSE_ID_LIMIT``).
    """
    if active_backend() != "native":
        return None
    from repro.sim import _native

    return _native.lru_misses
