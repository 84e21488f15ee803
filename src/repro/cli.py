"""Command-line entry point.

Two modes:

*Experiments* -- regenerate any paper table or figure::

    hottiles list
    hottiles fig10 [--subset ski pap ...] [--seed N] [--csv out.csv]
    hottiles all

Experiment cells (one ``evaluate_matrix`` per architecture/matrix pair)
run through the parallel cached executor: ``--jobs N`` fans independent
cells out over N processes, results are reused from a content-addressed
on-disk cache (``--cache-dir``, default ``~/.cache/hottiles``;
``--no-cache`` disables it).

*Partitioning* -- run the HotTiles preprocessing pipeline on a
MatrixMarket file, exactly what the paper's host-side framework does
(Sec. VI-B)::

    hottiles partition matrix.mtx --arch spade-sextans --scale 4 \\
        [--save-dir out/] [--verify]

*Fault injection* (docs/faults.md) -- simulate under a deterministic
fault schedule and sweep fault intensity::

    hottiles simulate pap --arch spade-sextans --faults faults.json
    hottiles simulate pap --random-faults 1.0 --seed 0
    hottiles resilience pap [--rates 0 0.5 1 2] [--json resilience.json]

*Serving* -- run the preprocessing pipeline as a long-lived plan service
(see docs/service.md) and drive it, optionally with chaos injection::

    hottiles serve [--port 8750] [--workers 2] [--queue-depth 16]
    hottiles serve --cluster 4 [--port 0]      # sharded multi-process cluster
    hottiles serve --admission --autoscale [--max-workers 8] \\
        [--queue-wait-slo 0.5]                 # SLO-aware (docs/autoscaling.md)
    hottiles loadgen [--requests 200] [--concurrency 8]
    hottiles loadgen --chaos [--chaos-rate 0.1] [--chaos-kinds timeout]
    hottiles loadgen --cluster [--json report.json]  # per-shard latency
    hottiles loadgen --record trace.json       # record a replayable trace
    hottiles loadgen --replay trace.json [--warp 2]   # open-loop live replay
    hottiles loadgen --replay trace.json --virtual [--no-autoscale]
    hottiles loadgen --synth-burst burst.json --seed 0

``serve --cluster N`` (docs/cluster.md) runs N planner shard processes
behind an asyncio router that consistent-hashes on matrix digest, so
plan caching, coalescing, and delta lineages stay shard-local; ``--port
0`` binds an ephemeral port, reported as a ``port=`` token on stdout.

*Streaming* (docs/streaming.md) -- replay a seeded delta stream and
check incremental plan repair against from-scratch replanning::

    hottiles delta-replay pap [--steps 5] [--inserts 60] [--deletes 40] \\
        [--epsilon 0.01] [--json deltas.json]

*Tracing* -- profile one simulated execution end to end (docs/tracing.md)
and emit a Chrome-trace/Perfetto JSON plus a text flamegraph summary::

    hottiles trace pap --arch spade-sextans -o trace.json

Experiment runs and the service take ``--trace FILE`` to record their
whole lifetime into the same format.

*Perf benchmarks* -- time the simulator hot path (preprocess /
build_plans / simulate) against the frozen pre-optimization reference
and gate against a committed baseline (docs/performance.md)::

    hottiles bench [--quick] [-o BENCH_PERF.json] \\
        [--baseline benchmarks/BENCH_PERF_BASELINE.json] [--tolerance 0.25]

*Cache maintenance*::

    hottiles cache stats|clear [--cache-dir D]

(or ``python -m repro.cli ...``).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.experiments import figures
from repro.experiments.executor import configure_executor, use_executor
from repro.experiments.export import result_to_csv

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: Dict[str, Callable] = {
    "fig04": figures.figure04,
    "fig05": figures.figure05,
    "fig10": figures.figure10_table06,
    "table06": figures.figure10_table06,
    "fig11": figures.figure11,
    "fig12": figures.figure12,
    "table07": figures.table07,
    "fig13": figures.figure13,
    "fig14": figures.figure14,
    "fig15": figures.figure15,
    "fig16": figures.figure16,
    "table09": figures.table09,
    "fig17": figures.figure17,
    "fig18": figures.figure18,
}

#: Experiments whose signature takes no seed (deterministic pipelines).
_NO_SEED = {"fig18"}
#: Experiments taking a single matrix name instead of a subset.
_SINGLE_MATRIX = {"fig05"}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("--version", "-V"):
        from repro import __version__

        print(f"hottiles {__version__}")
        return 0
    if argv and argv[0] in SUBCOMMANDS:
        handler, _ = SUBCOMMANDS[argv[0]]
        return handler(argv[1:])
    return _experiment_command(argv)


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Shared flags controlling the parallel cached experiment executor."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiment cells (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="experiment result cache directory "
        "(default: $HOTTILES_CACHE_DIR or ~/.cache/hottiles)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (always re-simulate)",
    )


@contextmanager
def _maybe_tracing(path: Optional[str]) -> Iterator[None]:
    """Install an enabled global tracer for the body; save on exit."""
    if not path:
        yield
        return
    from repro.obs import Tracer, save_chrome_trace, use_tracer

    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        yield
    saved = save_chrome_trace(tracer, path)
    print(f"trace written to {saved} ({len(tracer)} records)")


def _executor_from(args: argparse.Namespace):
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    try:
        return configure_executor(
            jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache
        )
    except NotADirectoryError as exc:
        raise SystemExit(f"--cache-dir: {exc}")


# ----------------------------------------------------------------------
def _experiment_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="hottiles", description="HotTiles (HPCA 2024) reproduction experiments"
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'hottiles list'), 'list', 'all', or 'partition'",
    )
    parser.add_argument(
        "--subset",
        nargs="*",
        default=None,
        help="benchmark short names to restrict to (default: the full set)",
    )
    parser.add_argument("--seed", type=int, default=0, help="IUnaware placement seed")
    parser.add_argument("--csv", default=None, help="also export the rows as CSV")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a Chrome-trace JSON of the whole run (docs/tracing.md)",
    )
    _add_executor_flags(parser)
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        for name, (_, summary) in SUBCOMMANDS.items():
            print(f"{name:12s} {summary}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment or subcommand: {', '.join(unknown)} -- "
            f"run 'hottiles list' for experiments; "
            f"subcommands: {', '.join(SUBCOMMANDS)}",
            file=sys.stderr,
        )
        return 2

    executor = _executor_from(args)
    with _maybe_tracing(args.trace), use_executor(executor):
        for name in names:
            fn = EXPERIMENTS[name]
            kwargs = {}
            if name in _SINGLE_MATRIX:
                if args.subset:
                    kwargs["short"] = args.subset[0]
                kwargs["seed"] = args.seed
            else:
                if args.subset is not None:
                    kwargs["subset"] = args.subset
                if name not in _NO_SEED:
                    kwargs["seed"] = args.seed
            start = time.perf_counter()
            result = fn(**kwargs)
            elapsed = time.perf_counter() - start
            print(result.render())
            print(f"[{name} completed in {elapsed:.1f}s]\n")
            if args.csv and len(names) == 1:
                result_to_csv(result, args.csv)
                print(f"rows exported to {args.csv}")
    if executor.stats.cells:
        print(executor.stats.render())
    if executor.cache is not None:
        executor.cache.flush_counters()
    return 0


# ----------------------------------------------------------------------
def _sweep_command(argv: List[str]) -> int:
    from repro.arch.configs import spade_sextans
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.experiments.sweeps import bandwidth_sweep, cold_count_sweep, k_sweep
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles sweep",
        description="Machine-parameter sensitivity sweeps around SPADE-Sextans",
    )
    parser.add_argument(
        "matrix",
        help="benchmark short name (e.g. pap) or path to a MatrixMarket file",
    )
    parser.add_argument(
        "--kind",
        choices=("bandwidth", "k", "cold-count"),
        default="bandwidth",
        help="which machine parameter to sweep",
    )
    parser.add_argument(
        "--points",
        nargs="+",
        type=float,
        default=None,
        help="sweep points (bandwidth factors, K values, or worker counts)",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="SPADE-Sextans system scale"
    )
    _add_executor_flags(parser)
    args = parser.parse_args(argv)

    matrix = (
        load_matrix(args.matrix)
        if args.matrix in ALL_MATRICES
        else read_matrix_market(args.matrix)
    )
    arch = spade_sextans(args.scale)
    executor = _executor_from(args)
    with use_executor(executor):
        if args.kind == "bandwidth":
            points = args.points or [0.25, 0.5, 1.0, 2.0, 4.0]
            result = bandwidth_sweep(arch, matrix, points)
        elif args.kind == "k":
            points = [int(v) for v in (args.points or [8, 16, 32, 64])]
            result = k_sweep(arch, matrix, points)
        else:
            points = [int(v) for v in (args.points or [4, 8, 16, 32])]
            result = cold_count_sweep(arch, matrix, points)
    print(result.render())
    winners = ", ".join(
        f"{row[0]:g}: {name}"
        for row, name in zip(result.rows, result.best_strategy_per_point())
    )
    print(f"best strategy per point -- {winners}")
    print(executor.stats.render())
    if executor.cache is not None:
        executor.cache.flush_counters()
    return 0


# ----------------------------------------------------------------------
def _simulate_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES, build_architecture
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.faults.errors import FaultScheduleError, SimFault
    from repro.faults.schedule import FaultSchedule
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.sim.engine import simulate
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles simulate",
        description="Partition and simulate one matrix, optionally under a "
        "fault-injection schedule (docs/faults.md)",
    )
    parser.add_argument(
        "matrix",
        help="benchmark short name (e.g. pap) or path to a MatrixMarket file",
    )
    parser.add_argument(
        "--arch",
        default="spade-sextans",
        choices=sorted(ARCHITECTURE_FACTORIES),
        help="target architecture",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="system scale (SPADE-Sextans variants)"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="FILE",
        help="fault schedule JSON to inject (docs/faults.md)",
    )
    parser.add_argument(
        "--random-faults",
        type=float,
        default=None,
        metavar="RATE",
        help="instead of --faults, draw a seeded schedule with about RATE "
        "events of each type over the fault-free makespan",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --random-faults"
    )
    args = parser.parse_args(argv)
    if args.faults is not None and args.random_faults is not None:
        raise SystemExit("--faults and --random-faults are mutually exclusive")

    arch = build_architecture(args.arch, args.scale)
    matrix = (
        load_matrix(args.matrix)
        if args.matrix in ALL_MATRICES
        else read_matrix_market(args.matrix)
    )
    print(f"matrix: {matrix}")
    print(f"architecture: {arch}")

    preprocess = HotTilesPreprocessor(arch).run(matrix)
    chosen = preprocess.partition.chosen
    base = simulate(
        arch, preprocess.tiled, chosen.assignment, chosen.mode, split=chosen.split
    )
    print(
        f"\nfault-free '{chosen.label}' ({chosen.mode.value}): "
        f"{base.time_s * 1e3:.3f} ms, {base.bytes_total / 1e6:.1f} MB moved"
    )

    schedule = None
    if args.faults is not None:
        try:
            schedule = FaultSchedule.load(args.faults)
            schedule.validate_against(arch.hot.count, arch.cold.count)
        except (OSError, FaultScheduleError) as exc:
            raise SystemExit(f"--faults: {exc}")
    elif args.random_faults is not None:
        schedule = FaultSchedule.random(
            seed=args.seed,
            horizon_s=base.time_s,
            hot_instances=arch.hot.count,
            cold_instances=arch.cold.count,
            failure_rate=args.random_faults,
            slowdown_rate=args.random_faults,
            bandwidth_rate=args.random_faults,
        )
    if schedule is None or schedule.empty:
        if schedule is not None:
            print("fault schedule is empty -- nothing to inject")
        return 0

    print(f"injecting {schedule!r}")
    try:
        faulted = simulate(
            arch, preprocess.tiled, chosen.assignment, chosen.mode,
            faults=schedule, split=chosen.split,
        )
    except SimFault as exc:
        print(f"execution did not survive: {exc}", file=sys.stderr)
        return 1
    summary = faulted.faults
    print(
        f"degraded: {faulted.time_s * 1e3:.3f} ms "
        f"({faulted.time_s / base.time_s:.2f}x inflation)"
    )
    if summary is not None:
        print(
            f"injected {summary.slowdowns} slowdowns, {summary.failures} "
            f"failures, {summary.bandwidth_windows} bandwidth windows; "
            f"{summary.reassigned_phases} phases reassigned"
            + (
                f" off {', '.join(summary.failed_instances)}"
                if summary.failed_instances
                else ""
            )
        )
    return 0


def _resilience_command(argv: List[str]) -> int:
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.experiments.resilience import (
        DEFAULT_ARCHES,
        DEFAULT_RATES,
        resilience_sweep,
    )
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles resilience",
        description="Fault-rate sweep: makespan inflation vs the fault-free "
        "run per architecture (docs/faults.md)",
    )
    parser.add_argument(
        "matrix",
        help="benchmark short name (e.g. pap) or path to a MatrixMarket file",
    )
    parser.add_argument(
        "--arch",
        nargs="+",
        default=list(DEFAULT_ARCHES),
        help=f"architectures to sweep (default: {' '.join(DEFAULT_ARCHES)})",
    )
    parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=list(DEFAULT_RATES),
        help="expected events of each fault type over the fault-free makespan",
    )
    parser.add_argument("--seed", type=int, default=0, help="schedule seed")
    parser.add_argument(
        "--scale", type=int, default=4, help="system scale (SPADE-Sextans variants)"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the sweep as a JSON report (the CI artifact)",
    )
    args = parser.parse_args(argv)

    matrix = (
        load_matrix(args.matrix)
        if args.matrix in ALL_MATRICES
        else read_matrix_market(args.matrix)
    )
    try:
        result = resilience_sweep(
            matrix,
            arches=args.arch,
            rates=args.rates,
            seed=args.seed,
            scale=args.scale,
            label=args.matrix,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(result.render())
    print(f"max makespan inflation {result.max_inflation():.2f}x")
    if args.json:
        result.save_json(args.json)
        print(f"report written to {args.json}")
    return 0 if result.all_finite() else 1


# ----------------------------------------------------------------------
def _partition_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES, build_architecture
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles partition",
        description="Partition a MatrixMarket matrix for a heterogeneous accelerator",
    )
    parser.add_argument("matrix", help="path to a MatrixMarket .mtx file")
    parser.add_argument(
        "--arch",
        default="spade-sextans",
        choices=sorted(ARCHITECTURE_FACTORIES),
        help="target architecture",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="system scale (SPADE-Sextans variants)"
    )
    parser.add_argument(
        "--save-dir", default=None, help="write the hot/cold formats as .npz files"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="execute both formats on a random dense input and check the merge",
    )
    args = parser.parse_args(argv)

    arch = build_architecture(args.arch, args.scale)
    matrix = read_matrix_market(args.matrix)
    print(f"matrix: {matrix}")
    print(f"architecture: {arch}")

    start = time.perf_counter()
    result = HotTilesPreprocessor(arch).run(matrix)
    elapsed = time.perf_counter() - start
    chosen = result.partition.chosen
    tiled = result.tiled
    print(
        f"\npartitioned {tiled.n_tiles} non-empty tiles in {elapsed * 1e3:.1f} ms: "
        f"heuristic '{chosen.label}' ({chosen.mode.value} execution)"
    )
    naive_s = (
        chosen.naive_time_s
        if chosen.naive_time_s is not None
        else chosen.predicted_time_s
    )
    print(
        f"hot: {int(chosen.assignment.sum())} tiles / "
        f"{chosen.hot_nnz_fraction(tiled):.1%} of nonzeros; "
        f"predicted runtime {chosen.predicted_time_s * 1e3:.3f} ms "
        f"[{chosen.scorer} scorer; naive model: {naive_s * 1e3:.3f} ms]"
    )
    if chosen.split is not None:
        s = chosen.split
        print(
            f"block split: tile {s.tile} cut at row {s.row_cut} "
            f"({s.hot_nnz} nnz hot / {s.cold_nnz} nnz cold), "
            f"selected by the {chosen.scorer} scorer"
        )
    cost = result.cost
    print(
        f"preprocessing: scan {cost.scan_s * 1e3:.1f} ms, "
        f"partition {cost.partition_s * 1e3:.1f} ms, "
        f"formats {cost.format_generation_s * 1e3:.1f} ms "
        f"(HotTiles overhead share {cost.overhead_fraction:.0%})"
    )

    if args.verify:
        rng = np.random.default_rng(0)
        din = rng.standard_normal((matrix.n_cols, arch.problem.k)).astype(np.float32)
        err = float(np.max(np.abs(result.verify_spmm(din) - matrix.spmm(din))))
        print(f"verification: max |merged - reference| = {err:.3e}")
        if not np.isfinite(err) or err > 1e-2:
            print("verification FAILED", file=sys.stderr)
            return 1

    if args.save_dir:
        out = Path(args.save_dir)
        out.mkdir(parents=True, exist_ok=True)
        saved = _save_formats(result, out)
        print(f"formats written: {', '.join(saved)}")
    return 0


def _save_formats(result, out: Path) -> List[str]:
    from repro.pipeline.serialize import save_assignment, save_format

    saved = []
    for side, fmt in (("hot", result.hot_format), ("cold", result.cold_format)):
        if fmt is None:
            continue
        path = out / f"{side}_{type(fmt).__name__.lower()}.npz"
        save_format(fmt, path)
        saved.append(str(path))
    chosen = result.partition.chosen
    assignment_path = out / "assignment.npz"
    save_assignment(
        chosen.assignment, assignment_path, label=chosen.label, mode=chosen.mode.value
    )
    saved.append(str(assignment_path))
    return saved


# ----------------------------------------------------------------------
def _trace_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES, build_architecture
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.obs import Tracer, flamegraph_summary, save_chrome_trace, use_tracer
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.sim.engine import simulate
    from repro.sim.utilization import bandwidth_sparkline
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles trace",
        description="Trace one partition+simulate run into a Chrome-trace JSON "
        "(open in Perfetto / chrome://tracing; see docs/tracing.md)",
    )
    parser.add_argument(
        "matrix",
        help="benchmark short name (e.g. pap) or path to a MatrixMarket file",
    )
    parser.add_argument(
        "arch",
        nargs="?",
        default="spade-sextans",
        choices=sorted(ARCHITECTURE_FACTORIES),
        help="target architecture (default: spade-sextans)",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="system scale (SPADE-Sextans variants)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="Chrome-trace JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--no-summary",
        action="store_true",
        help="skip the text flamegraph summary on stdout",
    )
    args = parser.parse_args(argv)

    arch = build_architecture(args.arch, args.scale)
    matrix = (
        load_matrix(args.matrix)
        if args.matrix in ALL_MATRICES
        else read_matrix_market(args.matrix)
    )
    print(f"matrix: {matrix}")
    print(f"architecture: {arch}")

    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        with tracer.span("pipeline.preprocess", cat="pipeline"):
            preprocess = HotTilesPreprocessor(arch).run(matrix)
        chosen = preprocess.partition.chosen
        result = simulate(
            arch, preprocess.tiled, chosen.assignment, chosen.mode, split=chosen.split
        )
    path = save_chrome_trace(tracer, args.output)

    print(
        f"\nsimulated '{chosen.label}' ({chosen.mode.value}): "
        f"{result.time_s * 1e3:.3f} ms, "
        f"{result.bytes_total / 1e6:.1f} MB moved, "
        f"{result.bandwidth_utilization_bytes_per_sec / 1e9:.1f} GB/s avg"
    )
    print(f"bandwidth |{bandwidth_sparkline(result)}|")
    if not args.no_summary:
        print()
        print(flamegraph_summary(tracer))
    print(f"\ntrace written to {path} ({len(tracer)} records) -- "
          f"open in https://ui.perfetto.dev or chrome://tracing")
    return 0


# ----------------------------------------------------------------------
def _serve_command(argv: List[str]) -> int:
    from repro.service.httpd import make_server
    from repro.service.planner import PlanService
    from repro.service.store import PlanStore

    parser = argparse.ArgumentParser(
        prog="hottiles serve",
        description="Run the HTTP partition-planning service (docs/service.md)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8750, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="run N planner shard processes behind a digest-affinity router "
        "instead of one in-process service (docs/cluster.md)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="plan worker threads (default: 2)"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission queue depth before 429 load shedding (default: 16)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="default per-request wait bound in seconds (default: 60)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="plan store directory (default: <cache dir>/plans)",
    )
    parser.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="byte cap for stored plan results (oldest evicted first)",
    )
    parser.add_argument(
        "--no-degraded-fallback",
        action="store_true",
        help="on a request timeout answer 504 instead of serving the "
        "roofline-only degraded plan (docs/faults.md)",
    )
    parser.add_argument(
        "--admission",
        action="store_true",
        help="tiered predictive admission: estimate each request's "
        "planning cost on arrival, EDF-queue with per-tenant quotas, "
        "degrade or shed by policy tier (docs/autoscaling.md)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="grow/shrink the worker pool (or, with --cluster, the shard "
        "count) against the queue-wait SLO; implies --admission",
    )
    parser.add_argument(
        "--min-workers", type=int, default=1,
        help="autoscale floor: workers (or shards) (default: 1)",
    )
    parser.add_argument(
        "--max-workers", type=int, default=8,
        help="autoscale ceiling: workers (or shards) (default: 8)",
    )
    parser.add_argument(
        "--queue-wait-slo", type=float, default=0.5, metavar="S",
        help="queue-wait p99 SLO the pool is sized against (default: 0.5s)",
    )
    parser.add_argument(
        "--autoscale-tick", type=float, default=0.25, metavar="S",
        help="autoscaler observe-decide-apply interval (default: 0.25s)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record request/compute spans for the server's lifetime into "
        "a Chrome-trace JSON, written on shutdown (docs/tracing.md)",
    )
    args = parser.parse_args(argv)

    _drain_on_sigterm()
    if args.cluster:
        return _serve_cluster(args)

    store = PlanStore(args.store_dir, max_bytes=args.store_max_bytes)
    admission = None
    if args.admission or args.autoscale:
        from repro.service.admission import AdmissionController

        admission = AdmissionController()
    service = PlanService(
        store=store,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_timeout_s=args.timeout,
        degraded_fallback=not args.no_degraded_fallback,
        admission=admission,
    )
    if args.autoscale:
        from repro.service.autoscale import AutoscaleConfig, Autoscaler

        try:
            autoscale_cfg = AutoscaleConfig(
                min_workers=args.min_workers,
                max_workers=args.max_workers,
                tick_s=args.autoscale_tick,
                queue_wait_slo_s=args.queue_wait_slo,
            )
        except ValueError as exc:
            raise SystemExit(f"--autoscale: {exc}")
        service.attach_autoscaler(
            Autoscaler(
                service.autoscale_snapshot,
                service.set_workers,
                config=autoscale_cfg,
                decision_log=admission.decisions if admission else None,
                unit="workers",
            ).start()
        )
    server = make_server(service, host=args.host, port=args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.bound_port
    policy = []
    if admission is not None:
        policy.append("admission")
    if args.autoscale:
        policy.append(
            f"autoscale {args.min_workers}-{args.max_workers} "
            f"slo {args.queue_wait_slo:g}s"
        )
    print(
        f"hottiles plan service on http://{host}:{port} port={port} "
        f"({args.workers} workers, queue depth {args.queue_depth}, "
        f"store {store.store_dir}"
        + (", " + ", ".join(policy) if policy else "")
        + ")",
        flush=True,
    )
    with _maybe_tracing(args.trace):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\ndraining in-flight plans...", flush=True)
        finally:
            server.server_close()
            service.close(drain=True)
    counters = service.metrics.snapshot()["counters"]
    print(
        "served: "
        + ", ".join(f"{k.split('_', 1)[1]}={v}" for k, v in counters.items()
                    if k.startswith("requests_"))
    )
    return 0


def _drain_on_sigterm() -> None:
    """Turn SIGTERM into the KeyboardInterrupt drain path.

    Background jobs in non-interactive shells (CI steps, systemd units)
    start with SIGINT ignored, so ``kill -INT`` never reaches the
    server; SIGTERM is always deliverable and should mean the same
    thing: drain in-flight work, then exit.
    """
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        pass  # not the main thread (embedded use); caller handles signals


def _serve_cluster(args: argparse.Namespace) -> int:
    """``hottiles serve --cluster N`` (docs/cluster.md)."""
    import threading

    from repro.cluster.manager import ClusterManager
    from repro.service.store import PlanStore

    if args.cluster < 1:
        raise SystemExit("--cluster must be >= 1")
    # Resolve the shared store directory once so every shard gets the
    # same content-addressed tree (the default is per-user cache dir).
    store_dir = PlanStore(args.store_dir, max_bytes=args.store_max_bytes).store_dir

    def log(line: str) -> None:
        print(line, flush=True)

    manager = ClusterManager(
        shards=args.cluster,
        store_dir=str(store_dir),
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_s=args.timeout,
        degraded_fallback=not args.no_degraded_fallback,
        admission=args.admission or args.autoscale,
        log=log,
    )
    manager.start()
    try:
        if args.autoscale:
            from repro.service.autoscale import AutoscaleConfig

            try:
                autoscale_cfg = AutoscaleConfig(
                    min_workers=args.min_workers,
                    max_workers=args.max_workers,
                    tick_s=args.autoscale_tick,
                    queue_wait_slo_s=args.queue_wait_slo,
                )
            except ValueError as exc:
                raise SystemExit(f"--autoscale: {exc}")
            # Advisory loop: the manager spawns/drains whole shards
            # against the cluster-wide queue-wait SLO (docs/cluster.md).
            manager.start_autoscaler(autoscale_cfg)
        port = manager.bound_port
        print(
            f"hottiles plan cluster on {manager.base_url} port={port} "
            f"({args.cluster} shards x {args.workers} workers, "
            f"store {store_dir}"
            + (
                f", autoscale {args.min_workers}-{args.max_workers} shards "
                f"slo {args.queue_wait_slo:g}s"
                if args.autoscale
                else ""
            )
            + ")",
            flush=True,
        )
        for row in manager.describe()["shards"]:
            print(
                f"cluster shard={row['shard']} port={row['port']} "
                f"pid={row['pid']}",
                flush=True,
            )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("\ndraining shards...", flush=True)
    finally:
        manager.stop()
    return 0


def _loadgen_command(argv: List[str]) -> int:
    from repro.service.loadgen import (
        LoadgenReport,
        fetch_stats,
        replay_pass_live,
        run_loadgen,
    )
    from repro.service.replay import (
        RequestTrace,
        TraceRecorder,
        burst_trace,
        replay_trace,
    )

    parser = argparse.ArgumentParser(
        prog="hottiles loadgen",
        description="Closed-loop load generator against a running plan "
        "service, plus deterministic trace record/replay "
        "(docs/autoscaling.md)",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8750", help="service base URL"
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="requests per pass (default: 200)"
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, help="in-flight clients (default: 8)"
    )
    parser.add_argument(
        "--plans",
        type=int,
        default=4,
        help="distinct plan requests drawn round-robin (default: 4)",
    )
    parser.add_argument(
        "--passes",
        type=int,
        default=2,
        help="workload passes; pass 1 is cold, the rest are warm (default: 2)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject client-side faults into a fraction of requests "
        "(docs/faults.md)",
    )
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=0.1,
        metavar="F",
        help="fraction of requests perturbed under --chaos (default: 0.1)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos RNG seed (default: 0)"
    )
    parser.add_argument(
        "--chaos-kinds",
        nargs="+",
        default=["timeout"],
        metavar="KIND",
        help="fault kinds to draw from: timeout and/or malformed "
        "(default: timeout only, so every injection is absorbable)",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="cluster mode: require zero dropped connections and report "
        "per-shard tail latency from X-Hottiles-Shard (docs/cluster.md)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="write the full report as JSON to FILE, or to stdout when "
        "given bare (progress then goes to stderr, so stdout parses "
        "whole with json.loads)",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="FILE",
        help="record every completed request (arrival offset, tenant, "
        "tier, digest, measured plan wall) into a canonical-JSON trace",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a recorded trace instead of the closed loop: "
        "open-loop against --url, or simulated with --virtual",
    )
    parser.add_argument(
        "--virtual",
        action="store_true",
        help="with --replay: virtual-time discrete-event replay -- no "
        "server, no clocks, bit-identical decision logs across runs",
    )
    parser.add_argument(
        "--warp",
        type=float,
        default=1.0,
        metavar="F",
        help="live replay time warp: recorded offsets divided by F "
        "(2 = twice as fast; default 1)",
    )
    parser.add_argument(
        "--no-autoscale",
        action="store_true",
        help="with --virtual: replay with a fixed worker pool (the SLO "
        "gate's control arm)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="S",
        help="queue-wait p99 SLO to gate the virtual replay against "
        "(default: the trace's queue_wait_slo_p99_s meta, if any)",
    )
    parser.add_argument(
        "--synth-burst",
        default=None,
        metavar="FILE",
        help="write the seeded synthetic burst trace to FILE and exit "
        "(regenerates tests/golden/replay_burst.json byte-identically)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --synth-burst"
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help="closed loop: spread payloads over N tenants t0..t{N-1}",
    )
    parser.add_argument(
        "--tiers",
        nargs="+",
        default=None,
        metavar="TIER",
        help="closed loop: assign these policy tiers round-robin "
        "(gold/silver/bronze)",
    )
    args = parser.parse_args(argv)
    if args.passes < 1:
        raise SystemExit("--passes must be >= 1")
    if args.virtual and not args.replay:
        raise SystemExit("--virtual needs --replay FILE")

    import json as _json

    # Satellite contract: with --json on stdout, every human-readable
    # line moves to stderr so stdout is exactly one JSON document.
    json_to_stdout = args.json == "-"
    out = sys.stderr if json_to_stdout else sys.stdout

    def progress(*pargs: object) -> None:
        print(*pargs, file=out, flush=True)

    def emit_json(payload: Dict) -> None:
        if json_to_stdout:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        elif args.json:
            Path(args.json).write_text(
                _json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            progress(f"report written to {args.json}")

    if args.synth_burst:
        trace = burst_trace(seed=args.seed)
        path = trace.save(args.synth_burst)
        progress(
            f"burst trace (seed {args.seed}, {len(trace)} requests over "
            f"{trace.duration_s:.2f}s) written to {path}"
        )
        if args.json:
            emit_json(trace.meta)
        return 0

    if args.replay:
        try:
            trace = RequestTrace.load(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"--replay: {exc}")
        if args.virtual:
            return _virtual_replay(trace, args, progress, emit_json)
        result = replay_pass_live(
            args.url.rstrip("/"),
            trace,
            warp=args.warp,
            name=f"replay x{args.warp:g}",
        )
        report = LoadgenReport(
            passes=[result], server_stats=fetch_stats(args.url.rstrip("/"))
        )
        progress(report.render())
        emit_json(report.to_dict())
        failed = bool(report.failed)
        if result.shed_missing_retry_after:
            progress(
                f"shed contract FAILED: {result.shed_missing_retry_after} "
                "429 replies without Retry-After"
            )
            failed = True
        if args.cluster and report.transport_errors:
            progress(
                f"cluster gate FAILED: {report.transport_errors} dropped "
                "connection(s) -- every request must resolve to an HTTP "
                "status"
            )
            failed = True
        return 1 if failed else 0

    chaos = None
    if args.chaos:
        from repro.faults.chaos import ChaosConfig

        try:
            chaos = ChaosConfig(
                rate=args.chaos_rate,
                seed=args.chaos_seed,
                kinds=tuple(args.chaos_kinds),
            )
        except ValueError as exc:
            raise SystemExit(f"--chaos: {exc}")

    recorder = None
    if args.record:
        recorder = TraceRecorder(
            meta={"source": "loadgen", "url": args.url,
                  "requests": args.requests, "passes": args.passes}
        )
    tenants = None
    if args.tenants is not None:
        if args.tenants < 1:
            raise SystemExit("--tenants must be >= 1")
        tenants = [f"t{i}" for i in range(args.tenants)]

    report = run_loadgen(
        args.url.rstrip("/"),
        requests=args.requests,
        concurrency=args.concurrency,
        plans=args.plans,
        passes=args.passes,
        chaos=chaos,
        recorder=recorder,
        tenants=tenants,
        tiers=args.tiers,
    )
    progress(report.render())
    if recorder is not None:
        path = recorder.trace().save(args.record)
        progress(f"trace ({len(recorder)} requests) recorded to {path}")
    emit_json(report.to_dict())
    failed = bool(report.failed) or not report.reconciles()
    if args.cluster and report.transport_errors:
        progress(
            f"cluster gate FAILED: {report.transport_errors} dropped "
            "connection(s) -- every request must resolve to an HTTP status"
        )
        failed = True
    return 1 if failed else 0


def _virtual_replay(trace, args, progress, emit_json) -> int:
    """``loadgen --replay FILE --virtual`` -- the deterministic DES path."""
    from repro.service.replay import replay_trace

    result = replay_trace(trace, autoscale=not args.no_autoscale)
    summary = result.decision_summary()
    progress(
        f"virtual replay: {summary['offered']} offered, "
        f"{summary['completed']} completed, {summary['degraded']} degraded, "
        f"{summary['shed']} shed ({summary['shed_by_tier'] or '-'})"
    )
    progress(
        f"autoscale {'on' if not args.no_autoscale else 'OFF'}: "
        f"{summary['scale_ups']} scale-ups, {summary['scale_downs']} "
        f"scale-downs, peak {summary['peak_workers']} workers; "
        f"queue-wait p99 {result.queue_wait_p99_s * 1e3:.1f} ms"
    )
    emit_json(result.to_dict())
    slo = args.slo
    if slo is None:
        meta_slo = trace.meta.get("queue_wait_slo_p99_s")
        slo = float(meta_slo) if meta_slo is not None else None
    if slo is not None:
        ok = result.meets_slo(slo)
        progress(
            f"queue-wait p99 SLO {slo:g}s: {'met' if ok else 'VIOLATED'}"
        )
        return 0 if ok else 1
    return 0


def _delta_replay_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES
    from repro.experiments.deltastream import DEFAULT_EPSILON, delta_replay
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.sparse.mmio import read_matrix_market

    parser = argparse.ArgumentParser(
        prog="hottiles delta-replay",
        description="Replay a seeded delta stream and gate incremental plan "
        "repair against from-scratch replanning (docs/streaming.md)",
    )
    parser.add_argument(
        "matrix",
        help="benchmark short name (e.g. pap) or path to a MatrixMarket file",
    )
    parser.add_argument(
        "--arch",
        default="spade-sextans",
        choices=sorted(ARCHITECTURE_FACTORIES),
        help="target architecture",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="system scale (SPADE-Sextans variants)"
    )
    parser.add_argument(
        "--steps", type=int, default=5, help="delta batches to replay (default: 5)"
    )
    parser.add_argument(
        "--inserts", type=int, default=60, help="inserts per batch (default: 60)"
    )
    parser.add_argument(
        "--deletes", type=int, default=40, help="deletes per batch (default: 40)"
    )
    parser.add_argument("--seed", type=int, default=0, help="delta stream seed")
    parser.add_argument(
        "--epsilon",
        type=float,
        default=DEFAULT_EPSILON,
        help="relative predicted-runtime drift allowed between the repaired "
        f"and from-scratch plan (default: {DEFAULT_EPSILON})",
    )
    parser.add_argument(
        "--insert-region",
        nargs=4,
        type=int,
        default=None,
        metavar=("ROW_LO", "ROW_HI", "COL_LO", "COL_HI"),
        help="concentrate inserts in this half-open region (hot-spot churn)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the replay as a JSON report (the CI artifact)",
    )
    args = parser.parse_args(argv)

    matrix = (
        load_matrix(args.matrix)
        if args.matrix in ALL_MATRICES
        else read_matrix_market(args.matrix)
    )
    try:
        result = delta_replay(
            matrix,
            arch_name=args.arch,
            steps=args.steps,
            inserts=args.inserts,
            deletes=args.deletes,
            seed=args.seed,
            scale=args.scale,
            epsilon=args.epsilon,
            insert_region=args.insert_region,
            label=args.matrix,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(result.render())
    print(
        f"max rel err {result.max_rel_err():.2e} (eps {args.epsilon:g}), "
        f"mean repaired fraction {result.mean_repaired_fraction():.0%}, "
        f"bit-identical {'yes' if result.all_bit_identical() else 'NO'}"
    )
    if args.json:
        result.save_json(args.json)
        print(f"report written to {args.json}")
    if not result.passes():
        print("delta replay gate FAILED", file=sys.stderr)
        return 1
    return 0


def _cache_command(argv: List[str]) -> int:
    from repro.experiments.cache import ResultCache

    parser = argparse.ArgumentParser(
        prog="hottiles cache",
        description="Experiment result cache maintenance",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $HOTTILES_CACHE_DIR or ~/.cache/hottiles)",
    )
    args = parser.parse_args(argv)
    try:
        cache = ResultCache(args.cache_dir)
    except NotADirectoryError as exc:
        raise SystemExit(f"--cache-dir: {exc}")

    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.cache_dir}")
        return 0
    stats = cache.stats()
    total = stats["lifetime_hits"] + stats["lifetime_misses"]
    rate = stats["lifetime_hits"] / total if total else 0.0
    print(f"cache dir:   {stats['cache_dir']}")
    print(f"entries:     {stats['entries']}")
    print(f"total bytes: {stats['total_bytes']}")
    cap = stats["max_bytes"]
    print(f"byte cap:    {cap if cap is not None else 'unbounded'}")
    print(
        f"lifetime:    {stats['lifetime_hits']} hits, "
        f"{stats['lifetime_misses']} misses ({rate:.0%} hit rate)"
    )
    return 0


def _bench_command(argv: List[str]) -> int:
    from repro.experiments import perfbench

    parser = argparse.ArgumentParser(
        prog="hottiles bench",
        description=(
            "Hot-path perf microbenchmarks (docs/performance.md): time "
            "preprocess / build_plans / simulate per synthetic matrix and "
            "emit a BENCH_PERF.json report"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the small CI cases (the committed baseline's set)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        metavar="N",
        help="best-of-N repetitions per stage (default 5)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_PERF.json",
        metavar="FILE",
        help="report path (default BENCH_PERF.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare against this committed report; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=perfbench.DEFAULT_TOLERANCE,
        metavar="F",
        help=(
            "relative slack on gated ratios before a stage counts as a "
            f"regression (default {perfbench.DEFAULT_TOLERANCE})"
        ),
    )
    args = parser.parse_args(argv)

    report = perfbench.run_bench(quick=args.quick, repeat=args.repeat)
    print(perfbench.format_report(report))
    perfbench.write_report(report, args.output)
    print(f"wrote {args.output}")

    if args.baseline is None:
        return 0
    try:
        baseline = perfbench.load_report(args.baseline)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--baseline: {exc}")
    failures = perfbench.compare(report, baseline, tolerance=args.tolerance)
    if failures:
        print(f"PERF REGRESSION vs {args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"no regression vs {args.baseline} (tolerance {args.tolerance:.0%})")
    return 0


def _fidelity_command(argv: List[str]) -> int:
    from repro.experiments.fidelity import main as fidelity_main

    return fidelity_main(argv)


#: Non-experiment subcommands (the experiment ids live in EXPERIMENTS):
#: name -> (handler taking the remaining argv, one line for 'hottiles list').
SUBCOMMANDS: Dict[str, Tuple[Callable[[List[str]], int], str]] = {
    "partition": (
        _partition_command, "run the preprocessing pipeline on a MatrixMarket file"
    ),
    "sweep": (_sweep_command, "bandwidth / K / cold-worker-count sensitivity sweeps"),
    "simulate": (
        _simulate_command, "partition + simulate once, optionally fault-injected"
    ),
    "resilience": (
        _resilience_command, "fault-rate sweep: makespan inflation vs fault-free"
    ),
    "serve": (_serve_command, "run the HTTP partition-planning service"),
    "loadgen": (
        _loadgen_command, "closed-loop load generator against a running service"
    ),
    "delta-replay": (
        _delta_replay_command, "seeded delta stream: incremental repair vs scratch"
    ),
    "cache": (_cache_command, "experiment result cache maintenance (stats, clear)"),
    "trace": (_trace_command, "profile one run into a Chrome-trace/Perfetto JSON"),
    "bench": (
        _bench_command, "hot-path perf benchmarks against the frozen reference"
    ),
    "fidelity": (
        _fidelity_command, "predicted-vs-simulated error sweep (contention vs naive)"
    ),
}


if __name__ == "__main__":
    sys.exit(main())
