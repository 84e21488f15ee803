"""The content-addressed plan store.

Layered on the experiment cache machinery from PR 1: completed
:class:`~repro.service.protocol.PlanResult` records live in a
:class:`~repro.experiments.cache.ResultCache` keyed by the request
digest, and the generated hot/cold formats plus the tile assignment are
persisted as ``.npz`` artifacts (via :mod:`repro.pipeline.serialize`,
whose writes are atomic) under ``<store_dir>/artifacts/<digest>/``.

A warm request therefore costs one pickle load; the accelerator-ready
formats are already on disk, which is exactly the paper's
save-and-reuse story (Sec. VI-B) turned into a serving cache.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.cache import ResultCache, default_cache_dir
from repro.service.protocol import PlanResult

__all__ = ["PlanStore", "default_store_dir"]


def default_store_dir() -> Path:
    """``$HOTTILES_CACHE_DIR``/plans (or ``~/.cache/hottiles/plans``)."""
    return default_cache_dir() / "plans"


class PlanStore:
    """Digest-keyed persistence for plan results and their artifacts."""

    def __init__(
        self,
        store_dir: Union[str, Path, None] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir is not None else default_store_dir()
        self.results = ResultCache(self.store_dir / "results", max_bytes=max_bytes)
        self.artifacts_dir = self.store_dir / "artifacts"
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[PlanResult]:
        """The stored plan for ``digest``, or ``None`` (counts hit/miss)."""
        value = self.results.get(digest)
        if value is not None and not isinstance(value, PlanResult):
            # Foreign or stale entry under our key: treat as a miss.
            return None
        return value

    def put(self, result: PlanResult) -> None:
        self.results.put(result.digest, result)

    def __contains__(self, digest: str) -> bool:
        # Same type check as get(): a foreign or stale pickle under our
        # key must not make the digest look present when get() would
        # answer None.  peek() keeps presence probes out of the hit rate.
        return isinstance(self.results.peek(digest), PlanResult)

    # ------------------------------------------------------------------
    def save_artifacts(self, digest: str, preprocess) -> List[str]:
        """Persist the formats + assignment of one preprocessing run.

        Returns the written paths.  Each file write is atomic, so a
        concurrent reader (or a crashed worker) can never observe a torn
        ``.npz``; the directory itself fills in piecemeal, which is why
        the :class:`PlanResult` (written last, into the results cache)
        is the only publication point readers trust.
        """
        from repro.pipeline.serialize import save_artifacts

        return save_artifacts(preprocess, self.artifacts_dir / digest)

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.results.hits

    @property
    def misses(self) -> int:
        return self.results.misses

    @property
    def hit_rate(self) -> float:
        return self.results.hit_rate

    def stats(self) -> Dict[str, Any]:
        stats = self.results.stats()
        stats["store_dir"] = str(self.store_dir)
        stats["hit_rate"] = self.hit_rate
        return stats

    def flush_counters(self) -> None:
        self.results.flush_counters()

    def clear(self) -> int:
        """Drop every stored plan and artifact; returns plans removed."""
        removed = self.results.clear()
        if self.artifacts_dir.exists():
            shutil.rmtree(self.artifacts_dir)
            self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        return removed
