"""The simulator's engine, as reported by the repository benchmark.

The pure-Python/NumPy fluid engine (:func:`repro.sim.engine._run_fluid`)
is the only engine, so there is nothing to select; :func:`backend_info`
stays as the constant snapshot that ``bench`` reports embed.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["backend_info"]


def backend_info() -> Dict[str, object]:
    """JSON-safe snapshot of the engine that runs: always ``python``."""
    return {"active": "python"}
