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

*Serving* -- run the preprocessing pipeline as a long-lived plan service
(see docs/service.md)::

    hottiles serve [--port 8750] [--workers 2] [--queue-depth 16]

``--port 0`` binds an ephemeral port, reported as a ``port=`` token on
stdout; SIGTERM or SIGINT drains in-flight plans, then exits 0.

*Tracing* -- profile one simulated execution end to end (docs/tracing.md)
and emit a Chrome-trace/Perfetto JSON plus a text flamegraph summary::

    hottiles trace pap spade-sextans -o trace.json

Experiment runs and the service take ``--trace FILE`` to record their
whole lifetime into the same format.

*Cache maintenance*::

    hottiles cache stats|clear [--cache-dir D]

(or ``python -m repro.cli ...``).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
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


def _executor_from(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The executor the flags describe.  ``--jobs`` below 1 and a
    ``--cache-dir`` that is not a directory are usage errors."""
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        return configure_executor(
            jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache
        )
    except NotADirectoryError as exc:
        parser.error(f"--cache-dir: {exc}")


def _matrix_arg(parser: argparse.ArgumentParser, name: str):
    """The benchmark matrix called ``name``, else the MatrixMarket file at
    that path.  A file that cannot be opened or parsed is a usage error."""
    from repro.experiments.matrices import ALL_MATRICES, load_matrix
    from repro.sparse.mmio import read_matrix_market

    if name in ALL_MATRICES:
        return load_matrix(name)
    try:
        return read_matrix_market(name)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read matrix {name!r}: {exc}")


def _architecture_arg(parser: argparse.ArgumentParser, name: str, scale: int):
    """The ``--arch`` architecture at system scale ``--scale``.  A scale the
    factory rejects is a usage error."""
    from repro.arch.configs import build_architecture

    try:
        return build_architecture(name, scale)
    except ValueError as exc:
        parser.error(f"--scale {scale}: {exc}")


def _check_subset(
    parser: argparse.ArgumentParser, names: List[str], subset: List[str]
) -> None:
    """Every ``--subset`` name must be in the matrix table of each experiment
    in ``names``: fig05 takes any benchmark, fig15 Table VIII and the rest
    Table V.  A miss is a usage error."""
    from repro.experiments.matrices import ALL_MATRICES, TABLE_V, TABLE_VIII

    for name in names:
        if name in _SINGLE_MATRIX:
            table, title = ALL_MATRICES, "a benchmark matrix"
        elif name == "fig15":
            table, title = TABLE_VIII, "Table VIII matrices"
        else:
            table, title = TABLE_V, "Table V matrices"
        unknown = [short for short in subset if short not in table]
        if unknown:
            parser.error(
                f"--subset {' '.join(unknown)}: {name} takes {title} "
                f"({', '.join(table)})"
            )


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
    # Name the unknown experiment or subcommand before complaining about
    # what follows it: ``hottiles bogus pap`` gets the same hint as a bare
    # ``hottiles bogus``.  A known name with a stray argument still gets
    # argparse's own error, as ``parse_args`` would give it.
    args, extra = parser.parse_known_args(argv)
    if args.experiment not in EXPERIMENTS and args.experiment not in ("list", "all"):
        print(
            f"unknown experiment or subcommand: {args.experiment} -- "
            f"run 'hottiles list' for experiments; "
            f"subcommands: {', '.join(SUBCOMMANDS)}",
            file=sys.stderr,
        )
        return 2
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")

    if args.experiment == "list":
        for name, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        for name, (_, summary) in SUBCOMMANDS.items():
            print(f"{name:12s} {summary}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    executor = _executor_from(parser, args)
    if args.subset:
        _check_subset(parser, names, args.subset)
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
    from repro.experiments.sweeps import bandwidth_sweep, cold_count_sweep, k_sweep

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
    # K and worker counts are cut to ints, so they must be at least 1; a
    # bandwidth factor need only be positive.  NaN fails every comparison.
    least = "positive" if args.kind == "bandwidth" else "at least 1"
    if args.points and not all(
        p < float("inf") and (p > 0 if args.kind == "bandwidth" else p >= 1)
        for p in args.points
    ):
        parser.error(f"--points must be finite and {least} for --kind {args.kind}")

    executor = _executor_from(parser, args)
    arch = _architecture_arg(parser, "spade-sextans", args.scale)
    matrix = _matrix_arg(parser, args.matrix)
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
def _partition_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.pipeline.serialize import save_artifacts

    parser = argparse.ArgumentParser(
        prog="hottiles partition",
        description="Partition a MatrixMarket matrix for a heterogeneous accelerator",
    )
    parser.add_argument(
        "matrix",
        help="path to a MatrixMarket .mtx file or a benchmark short name (e.g. pap)",
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
        "--save-dir", default=None, help="write the hot/cold formats as .npz files"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="execute both formats on a random dense input and check the merge",
    )
    args = parser.parse_args(argv)

    arch = _architecture_arg(parser, args.arch, args.scale)
    matrix = _matrix_arg(parser, args.matrix)
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
        saved = save_artifacts(result, args.save_dir)
        print(f"formats written: {', '.join(saved)}")
    return 0


# ----------------------------------------------------------------------
def _trace_command(argv: List[str]) -> int:
    from repro.arch.configs import ARCHITECTURE_FACTORIES
    from repro.obs import Tracer, flamegraph_summary, save_chrome_trace, use_tracer
    from repro.pipeline.preprocess import HotTilesPreprocessor
    from repro.sim.engine import simulate
    from repro.sim.utilization import bandwidth_sparkline

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

    arch = _architecture_arg(parser, args.arch, args.scale)
    matrix = _matrix_arg(parser, args.matrix)
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
    from repro.service.planner import PlanService, check_settings
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
    # Checked before anything is created or bound.  A wait bound of 0
    # would answer every plan that is not stored with 504.
    try:
        check_settings(args.workers, args.queue_depth, args.timeout)
    except ValueError as exc:
        parser.error(str(exc))
    if args.store_max_bytes is not None and args.store_max_bytes < 0:
        parser.error("--store-max-bytes must be >= 0")

    _drain_on_sigterm()
    store = PlanStore(args.store_dir, max_bytes=args.store_max_bytes)
    service = PlanService(
        store=store,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_timeout_s=args.timeout,
    )
    server = make_server(service, host=args.host, port=args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.bound_port
    print(
        f"hottiles plan service on http://{host}:{port} port={port} "
        f"({args.workers} workers, queue depth {args.queue_depth}, "
        f"store {store.store_dir})",
        flush=True,
    )
    with _maybe_tracing(args.trace):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\ndraining in-flight plans...", flush=True)
        finally:
            server.server_close()
            service.close()
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
        parser.error(f"--cache-dir: {exc}")

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
    "serve": (_serve_command, "run the HTTP partition-planning service"),
    "cache": (_cache_command, "experiment result cache maintenance (stats, clear)"),
    "trace": (_trace_command, "profile one run into a Chrome-trace/Perfetto JSON"),
    "fidelity": (
        _fidelity_command, "predicted-vs-simulated error sweep (contention vs naive)"
    ),
}


if __name__ == "__main__":
    sys.exit(main())
