"""Windowed-LRU cache approximation for demand reuse.

The SPADE PEs access *Din* through a private L1 (and the PIUMA MTPs
through a small cache); the analytical model deliberately ignores this
reuse (Sec. IV-C), but the ground-truth simulator must honor it -- it is
the source of the ColdOnly prediction error in Fig. 17.

Simulating an exact row-granularity LRU over millions of accesses is a
sequential O(nnz log nnz) job; instead we use the standard *window*
approximation: an access to row ``r`` hits iff the previous access to
``r`` happened within the last ``capacity_rows`` accesses.  Because at
most ``gap`` distinct rows fit between two accesses ``gap`` apart, every
window-hit is also a true LRU hit, so the approximation never
over-credits the cache -- the simulated cold workers sit between the
model's no-cache pessimism and a perfect LRU.
"""

from __future__ import annotations

import numpy as np

__all__ = ["windowed_lru_misses", "exact_lru_misses"]


def windowed_lru_misses(ids: np.ndarray, capacity_rows: int) -> np.ndarray:
    """Boolean miss mask over an access sequence of row ids.

    ``capacity_rows <= 0`` disables the cache (everything misses).
    Vectorized: previous-occurrence distances come from one sort of packed
    ``id * n + position`` keys.  The keys are unique and strictly
    increasing in position within each id, so an unstable ``np.sort``
    (typically far faster than a stable ``argsort`` plus gathers)
    reproduces the stable grouped order exactly; positions are recovered
    with a modulo.  Ids too large to pack fall back to the argsort path.
    """
    ids = np.asarray(ids)
    n = ids.shape[0]
    misses = np.ones(n, dtype=bool)
    if n == 0 or capacity_rows <= 0:
        return misses
    ids64 = ids.astype(np.int64, copy=False)
    lo = int(ids64.min())
    hi = int(ids64.max())
    if lo >= 0 and hi < (2**62) // n:
        span = np.int64(n)
        key = ids64 * span + np.arange(n, dtype=np.int64)
        key = np.sort(key)
        pos = key % span
        grp = key // span
        same_as_prev = grp[1:] == grp[:-1]
        hits = pos[1:][same_as_prev & (pos[1:] - pos[:-1] <= capacity_rows)]
        misses[hits] = False
        return misses
    order = np.argsort(ids, kind="stable")  # stable keeps position order per id
    sorted_ids = ids[order]
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = sorted_ids[1:] == sorted_ids[:-1]
    gaps = np.empty(n, dtype=np.int64)
    gaps[0] = np.iinfo(np.int64).max
    gaps[1:] = order[1:] - order[:-1]
    hit_sorted = same_as_prev & (gaps <= capacity_rows)
    misses[order] = ~hit_sorted
    return misses


def exact_lru_misses(ids: np.ndarray, capacity_rows: int) -> np.ndarray:
    """Exact fully-associative LRU miss mask (reference; O(n) Python loop).

    Used by the tests to check that the window approximation never reports
    a hit the true LRU would miss.  Too slow for full benchmark matrices.
    """
    ids = np.asarray(ids)
    misses = np.ones(ids.shape[0], dtype=bool)
    if capacity_rows <= 0:
        return misses
    from collections import OrderedDict

    cache: "OrderedDict[int, None]" = OrderedDict()
    for i, row in enumerate(ids.tolist()):
        if row in cache:
            cache.move_to_end(row)
            misses[i] = False
        else:
            cache[row] = None
            if len(cache) > capacity_rows:
                cache.popitem(last=False)
    return misses
