"""Plumbing shared by every workload: bootstrap, run records, statistics."""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything a run writes (reports, traces, temporary plan stores).
OUT_DIR = ROOT / ".bench_out"

#: Untimed warm-up before every timed window, in seconds.
WARMUP_S = 3.0
#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: An operation meets the latency limit when it answered correctly within
#: this long of its due time (``within_slo_frac``).
SLO_S = 1.0

#: Each CPU of a shared host changes speed on its own (by up to half, for
#: seconds at a time), so the host-speed probe runs on the CPU of the
#: measured work where that work fits one CPU: every set-up, the pipeline
#: workloads' only thread, or the serve-deltas server, which has it to
#: itself.
CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = CPUS[-1]
#: The serve-deltas client threads (the work CPU too on a 1-CPU host).
CLIENT_CPUS = set(CPUS[:-1]) or {WORK_CPU}


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, on the python backend.

    Exits non-zero when the checkout holds no source to benchmark, so a
    directory with only the benchmark in it never produces a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'repro'} is missing; nothing to benchmark")
    sys.path.insert(0, str(SRC))
    os.environ["HOTTILES_BACKEND"] = "python"
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["HOTTILES_CACHE_DIR"] = str(OUT_DIR / "cache")
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {SRC}")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class HostClock:
    """Scales timings to the reference host running at full speed.

    The shared machines this benchmark runs on slow down by up to half for
    seconds to minutes at a time, each CPU on its own.  A fixed probe (an
    interpreted loop and a NumPy sort, the two kinds of work every layer
    mixes) runs on :data:`WORK_CPU` next to the timed operations, and each
    timing is multiplied by :attr:`PROBE_NOMINAL_S` over the median time
    of the probes taken during it or within a second of it.  Normalized
    times read as seconds on the reference host: a code change moves them,
    a slow phase of the host moves them much less than it moves wall time.
    """

    #: the probe's time on the reference host (a 2-core x86 VM) at full speed
    PROBE_NOMINAL_S = 0.0020
    WINDOW_S = 1.0
    BURST = 30

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).standard_normal(100_000)
        self.starts: List[float] = []
        self.durations: List[float] = []

    def probe(self, times: int = 1) -> None:
        """Time the probe ``times`` times on :data:`WORK_CPU` (the calling
        thread moves there for the probe and back)."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {WORK_CPU})
        try:
            for _ in range(times):
                start = time.perf_counter()
                acc = 0
                for i in range(20_000):
                    acc += i * i
                np.sort(self._data)
                self.starts.append(start)
                self.durations.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, cpus)

    def scale(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` of this host, in reference seconds.

        Without probes that close, the nearest :attr:`BURST` probes on
        either side stand in (the bursts taken around a window in which
        probing would compete with the measured server).
        """
        lo = bisect.bisect_left(self.starts, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + self.WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - self.BURST), hi + self.BURST
        return (end - start) * self.PROBE_NOMINAL_S / statistics.median(self.durations[lo:hi])


@dataclass(frozen=True)
class Op:
    """One timed operation: a pipeline pass or an HTTP request.

    Times are ``time.perf_counter()`` seconds; ``due`` is when the
    operation was scheduled to start (its start, in a closed loop).
    """

    cls: str  #: "pass", "read", "cold" or "delta"
    due: float
    sent: float
    done: float
    ok: bool
    #: nonzeros the plan this operation produced covers; 0 for reads,
    #: which return a stored plan instead of producing one
    nnz: int = 0


@dataclass
class WorkloadRun:
    """Everything one workload run measured."""

    workload: str
    clock: HostClock = field(default_factory=HostClock)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-class latencies, raw times, error rate: report-only numbers
    extra: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)

    def check(self, problems: Sequence[str]) -> bool:
        """Count one checked output; ``problems`` empty means correct."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def everything(self) -> Dict[str, float]:
        return {**self.metrics, **self.extra, **self.layers}

    def latency_ms(self, op: Op) -> float:
        """Due-to-reply time of ``op`` in reference milliseconds."""
        return self.clock.scale(op.due, op.done) * 1e3


T = TypeVar("T")


def repeat_setup(run: WorkloadRun, setup: Callable[[], T], release: Callable[[T], None]) -> T:
    """Set up :data:`SETUP_REPEATS` times from scratch and keep the last.

    ``setup_s`` is the median, in reference seconds; ``release`` frees a
    set-up before the next one starts.  Set-up is sequential, so it runs
    on :data:`WORK_CPU`, where the probe measures the host's speed; a
    server it starts must be pinned there too.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {WORK_CPU})
    times, state = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                release(state)
                state = None
            run.clock.probe(3)
            start = time.perf_counter()
            state = setup()
            end = time.perf_counter()
            run.clock.probe(3)
            times.append(run.clock.scale(start, end))
    finally:
        os.sched_setaffinity(0, cpus)
    run.metrics["setup_s"] = statistics.median(times)
    run.samples["setup_s"] = len(times)
    return state


def pct(values: Iterable[float], q: float) -> float:
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(
    run: WorkloadRun, ops: Sequence[Op], producing: Optional[Sequence[Op]] = None
) -> None:
    """The end-to-end latency metrics of a timed window.

    ``p50_ms``, ``p90_ms`` and ``mnnz_per_s`` cover ``producing``, by
    default the operations that produce a plan (passes, cold plans,
    deltas), in reference time; ``within_slo_frac`` covers every
    operation, in wall time.  Each class also gets its own percentiles,
    and the wall-time ones, in ``extra``.
    """
    if producing is None:
        producing = [op for op in ops if op.nnz]
    ms = [run.latency_ms(op) for op in producing]
    run.metrics["p50_ms"] = pct(ms, 50)
    run.metrics["p90_ms"] = pct(ms, 90)
    busy = sum(run.clock.scale(op.sent, op.done) for op in producing)
    run.metrics["mnnz_per_s"] = sum(op.nnz for op in producing) / busy / 1e6
    run.samples["p50_ms"] = run.samples["p90_ms"] = run.samples["mnnz_per_s"] = len(ms)
    run.metrics["within_slo_frac"] = sum(
        op.ok and op.done - op.due <= SLO_S for op in ops
    ) / len(ops)
    run.samples["within_slo_frac"] = len(ops)
    for cls in sorted({op.cls for op in ops}):
        of_cls = [op for op in ops if op.cls == cls]
        cls_ms = [run.latency_ms(op) for op in of_cls]
        wall_ms = [(op.done - op.due) * 1e3 for op in of_cls]
        run.extra[f"{cls}_p50_ms"] = pct(cls_ms, 50)
        run.extra[f"{cls}_p90_ms"] = pct(cls_ms, 90)
        run.extra[f"{cls}_wall_p50_ms"] = pct(wall_ms, 50)
        run.extra[f"{cls}_wall_p90_ms"] = pct(wall_ms, 90)
        for name in ("p50_ms", "p90_ms", "wall_p50_ms", "wall_p90_ms"):
            run.samples[f"{cls}_{name}"] = len(of_cls)
    late = [(op.sent - op.due) * 1e3 for op in ops]
    run.extra["bench.gen_late_ms_p90"] = pct(late, 90)
    run.extra["host.probe_ms_p50"] = pct(run.clock.durations, 50) * 1e3


def quality_metrics(run: WorkloadRun, speedups: Sequence[float], errors: Sequence[float]) -> None:
    """Simulated plan quality (paper Figs. 10/11 and 17); deterministic."""
    run.metrics["sim_speedup_geomean"] = geomean(speedups)
    run.metrics["pred_err_pct"] = 100.0 * sum(errors) / len(errors)
    run.samples["sim_speedup_geomean"] = len(speedups)
    run.samples["pred_err_pct"] = len(errors)


def own_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
