"""Judge a change against its parent from benchmark reports.

    python bench/compare.py --parent P1.json ... --change C1.json ...

Each file is a report written by ``python -m bench run --out FILE``.  The
runs must come in at least 10 parent/change pairs whose order alternates
(pair 1 runs the parent first, pair 2 the change first, ...), judged by
each report's ``started_unix``.  Every workload prints as its own rows.

Per metric and workload:

- ``gain``: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own spread (interquartile range over
  median) is wider than the bound, and not every change run beats every
  parent run;
- deterministic metrics compare exactly: ``same``, ``gain`` or
  ``REGRESSION``.

Exits 1 on any regression, when the change fails more operations than
the parent, or when the runs are too few or do not alternate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Simulated outcomes: a fixed seed gives the same value on every run.
DETERMINISTIC = {"sim_speedup_geomean", "pred_err_pct"}
MIN_PAIRS = 10


def _bounds(spec: Dict) -> Dict[str, Tuple[float, bool]]:
    """``name -> (bound, higher_is_better)`` for every gated metric."""
    return {m["name"]: (m["bound"], m["better"] == "higher") for m in spec["end_to_end"]}


def _bound_of(name: str, bounds: Dict[str, Tuple[float, bool]]):
    """The bound of ``name``; per-class latencies in the reports
    (``read_p50_ms``, ...) take that of the percentile they refine."""
    if name in bounds:
        return bounds[name]
    for suffix in ("p50_ms", "p90_ms"):
        if name.endswith("_" + suffix):
            return bounds[suffix]
    return None


def _pairs(parents: List[Dict], changes: List[Dict]) -> List[Tuple[Dict, Dict]]:
    if len(parents) != len(changes) or len(parents) < MIN_PAIRS:
        raise SystemExit(
            f"need at least {MIN_PAIRS} parent/change pairs, got "
            f"{len(parents)} parent and {len(changes)} change reports"
        )
    runs = sorted(
        [(r["started_unix"], "parent", r) for r in parents]
        + [(r["started_unix"], "change", r) for r in changes],
        key=lambda t: t[0],
    )
    pairs, previous_first = [], None
    for (_, side_a, a), (_, side_b, b) in zip(runs[::2], runs[1::2]):
        if side_a == side_b or side_a == previous_first:
            raise SystemExit("runs must alternate: parent/change pairs, first side alternating")
        previous_first = side_a
        pairs.append((a, b) if side_a == "parent" else (b, a))
    return pairs


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(
    parent: Sequence[float], change: Sequence[float], bound: float, higher: bool, exact: bool
) -> Tuple[str, int]:
    """Verdict and the number of pairs the change won."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if exact:
        if c_med == p_med and list(parent) == list(change):
            return "same", wins
        return ("gain" if sign * (c_med - p_med) > 0 else "REGRESSION"), wins
    p_q1, _, p_q3 = _quartiles(parent)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    gain = wins * 10 >= 9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1
    if spread > bound:
        beats_all = (min(change) > max(parent)) if higher else (max(change) < min(parent))
        return ("gain" if beats_all and gain else "unresolved"), wins
    if worse > bound:
        return "REGRESSION", wins
    return ("gain" if gain else "ok"), wins


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        bounds = _bounds(json.load(fh))
    parents, changes = (
        [json.loads(p.read_text(encoding="utf-8")) for p in paths]
        for paths in (args.parent, args.change)
    )
    pairs = _pairs(parents, changes)

    bad = False
    header = f"{'workload':<18} {'metric':<22} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>6}  verdict"
    print(header)
    workloads = sorted(set.intersection(*(set(r["workloads"]) for pair in pairs for r in pair)))
    for workload in workloads:
        rows = [(p["workloads"][workload], c["workloads"][workload]) for p, c in pairs]
        failed_p = sum(p["failed"] for p, _ in rows)
        failed_c = sum(c["failed"] for _, c in rows)
        for name in sorted(rows[0][0]["metrics"]):
            spec = _bound_of(name, bounds)
            if spec is None or any(name not in c["metrics"] for _, c in rows):
                continue
            bound, higher = spec
            parent = [p["metrics"][name]["value"] for p, _ in rows]
            change = [c["metrics"][name]["value"] for _, c in rows]
            verdict, wins = judge(parent, change, bound, higher, name in DETERMINISTIC)
            bad |= verdict == "REGRESSION"
            p_q1, p_med, p_q3 = _quartiles(parent)
            c_q1, c_med, c_q3 = _quartiles(change)
            print(
                f"{workload:<18} {name:<22} {p_med:>12.5g} [{p_q1:>8.5g}, {p_q3:>8.5g}] "
                f"{c_med:>12.5g} [{c_q1:>8.5g}, {c_q3:>8.5g}] {wins:>3}/{len(rows):<2}  {verdict}"
            )
        if failed_c > failed_p:
            print(f"{workload:<18} {'failed':<22} {failed_p:>34} {failed_c:>34}         FAILURES")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
