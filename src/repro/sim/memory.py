"""Max-min fair bandwidth allocation (the shared memory subsystem).

At every simulator event the active workers demand memory bandwidth up to
their own maximum draw rate.  The memory controllers are a shared,
capacity-``BW`` resource; the PCIe link in front of an off-chip worker
group is a second, narrower resource crossed only by that group's traffic.
Rates are assigned by progressive filling (water-filling): all unfrozen
users rise together until one hits its own cap or a resource it crosses is
exhausted, which is the classic max-min fair allocation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["allocate_rates", "RateAllocator"]

#: Relative tolerance for rate comparisons.  The quantities here are
#: bytes/s of order 1e10-1e11, where double rounding error after a few
#: arithmetic steps is ~1e-5 absolute -- an absolute epsilon like 1e-18
#: can never detect a tie between two resources (e.g. DRAM and PCIe
#: exhausting together), which would leave one of them uncounted as
#: limiting.  1e-9 relative is ~1e-16 in units of the compared values,
#: far above accumulated rounding noise yet far below any physical
#: bandwidth difference the configs express.
_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` are equal up to float rounding noise."""
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b))


def allocate_rates(
    caps: np.ndarray,
    bw_bytes_per_sec: float,
    pcie_members: Optional[np.ndarray] = None,
    pcie_bw_bytes_per_sec: Optional[float] = None,
) -> np.ndarray:
    """Max-min fair memory rates for one simulator event.

    Parameters
    ----------
    caps:
        Per-user maximum draw rate in bytes/s; users with cap 0 are idle.
    bw_bytes_per_sec:
        Main memory bandwidth, shared by every user.
    pcie_members:
        Boolean mask of users whose traffic also crosses the PCIe link.
    pcie_bw_bytes_per_sec:
        PCIe link bandwidth (required when ``pcie_members`` has any user).

    Returns the per-user allocated rates (bytes/s).
    """
    caps = np.asarray(caps, dtype=np.float64)
    if caps.ndim != 1:
        raise ValueError("caps must be a 1-D array")
    if np.any(caps < 0):
        raise ValueError("rate caps must be non-negative")
    if bw_bytes_per_sec <= 0:
        raise ValueError("bandwidth must be positive")

    n = caps.shape[0]
    rates = np.zeros(n, dtype=np.float64)
    unfrozen = caps > 0

    resources = [(np.ones(n, dtype=bool), float(bw_bytes_per_sec))]
    if pcie_members is not None and np.any(pcie_members):
        if pcie_bw_bytes_per_sec is None or pcie_bw_bytes_per_sec <= 0:
            raise ValueError("pcie_bw_bytes_per_sec required for PCIe members")
        resources.append((np.asarray(pcie_members, dtype=bool), float(pcie_bw_bytes_per_sec)))

    remaining = [cap for _, cap in resources]
    while np.any(unfrozen):
        # Largest uniform rate increase every unfrozen user can take.
        delta = float(np.min(caps[unfrozen] - rates[unfrozen]))
        limiting: list[int] = []
        for ri, (members, _) in enumerate(resources):
            users = int(np.count_nonzero(unfrozen & members))
            if users == 0:
                continue
            headroom = remaining[ri] / users
            if _close(headroom, delta):
                limiting.append(ri)
            elif headroom < delta:
                delta = headroom
                limiting = [ri]
        if delta < 0:
            delta = 0.0
        rates[unfrozen] += delta
        for ri, (members, _) in enumerate(resources):
            remaining[ri] -= delta * int(np.count_nonzero(unfrozen & members))
        # Freeze users that reached their own cap (relative comparison:
        # caps are bytes/s-scale, an absolute epsilon would never fire) ...
        unfrozen &= rates < caps * (1.0 - _REL_TOL)
        # ... and all users of any exhausted resource.
        for ri in limiting:
            unfrozen &= ~resources[ri][0]
    return rates


class RateAllocator:
    """Memoized max-min water-filling for a fixed user population.

    The fluid engine calls the allocator at every event, but the per-user
    caps are static for a whole run (``max_rates`` comes from the worker
    traits): the allocation depends *only on which users are demanding*.
    This class keys the water-filling result on that demand bitmask, so a
    run with thousands of events but a handful of distinct demand sets
    pays for the progressive-filling loop once per set.

    Returned arrays are the cached objects with ``writeable=False`` --
    callers must not mutate them.  Results are produced by the exact same
    :func:`allocate_rates` call the unmemoized path would make, so they
    are bit-identical to a fresh computation (pinned by the property tests
    in ``tests/sim/test_engine_property.py``).
    """

    def __init__(
        self,
        max_rates: np.ndarray,
        bw_bytes_per_sec: float,
        pcie_members: Optional[np.ndarray] = None,
        pcie_bw_bytes_per_sec: Optional[float] = None,
    ) -> None:
        self.max_rates = np.asarray(max_rates, dtype=np.float64)
        if self.max_rates.ndim != 1:
            raise ValueError("max_rates must be a 1-D array")
        self.n = int(self.max_rates.shape[0])
        self.bw_bytes_per_sec = float(bw_bytes_per_sec)
        self.pcie_members = (
            None if pcie_members is None else np.asarray(pcie_members, dtype=bool)
        )
        self.pcie_bw_bytes_per_sec = pcie_bw_bytes_per_sec
        #: demand bitmask -> (rates array, aggregate bytes/s)
        self._memo: dict = {}

    def mask_key(self, demand: np.ndarray) -> int:
        """Pack a boolean demand mask into the memoization key."""
        key = 0
        for i in np.flatnonzero(demand):
            key |= 1 << int(i)
        return key

    def rates_for_key(self, key: int) -> Tuple[np.ndarray, float]:
        """``(rates, rates.sum())`` for a packed demand bitmask."""
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        caps = np.zeros(self.n, dtype=np.float64)
        for i in range(self.n):
            if key >> i & 1:
                caps[i] = self.max_rates[i]
        rates = allocate_rates(
            caps, self.bw_bytes_per_sec, self.pcie_members, self.pcie_bw_bytes_per_sec
        )
        rates.flags.writeable = False
        entry = (rates, float(rates.sum()))
        self._memo[key] = entry
        return entry

    def rates(self, demand: np.ndarray) -> np.ndarray:
        """Rates for a boolean demand mask (memoized)."""
        demand = np.asarray(demand, dtype=bool)
        if demand.shape != (self.n,):
            raise ValueError(f"demand mask must have shape ({self.n},)")
        return self.rates_for_key(self.mask_key(demand))[0]
