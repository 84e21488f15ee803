"""``python -m bench run``: run workloads, check outputs, print metrics.

Every metric prints as ``<workload> <metric> <value> <unit>``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from bench import common

Runner = Callable[[common.WorkloadRun, int, float, Optional[Path]], None]


def _runners() -> Dict[str, Runner]:
    from bench import pipeline, service

    def recipes(table) -> Runner:
        return lambda run, seed, seconds, trace_dir: pipeline.run_workload(
            run, table, seed, seconds, trace_dir
        )

    return {
        "graph-many-tiles": recipes(pipeline.GRAPH_RECIPES),
        "dense-few-tiles": recipes(pipeline.DENSE_RECIPES),
        "serve-plans": service.run_serve_plans,
        "serve-deltas": service.run_serve_deltas,
    }


def _parse(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", default="all", choices=names + ["all"])
    run.add_argument("--seed", type=int, default=1, help="input seed (default: 1)")
    run.add_argument(
        "--seconds", "--duration", dest="seconds", type=float, default=30.0,
        help="timed window per workload, after a warm-up (default: 30)",
    )
    run.add_argument(
        "--trace", default="0", metavar="0|1|DIR",
        help="1 or a directory: also run a traced window and report the "
        "per-layer metrics; traces go to DIR (default: .bench_out/trace)",
    )
    run.add_argument("--out", type=Path, default=None, help="JSON report path")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _unit(name: str, spec_units: Dict[str, str]) -> str:
    if name in spec_units:
        return spec_units[name]
    for marker, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%")):
        if marker in name:
            return unit
    return "fraction" if name.endswith(("_frac", "rate")) else "count"


def _git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(common.ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    common.bootstrap()
    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parse(argv, names)
    trace_dir = None
    if args.trace != "0":
        trace_dir = common.OUT_DIR / "trace" if args.trace == "1" else Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
    wanted = [m["name"] for m in spec["end_to_end" if trace_dir is None else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    from repro.sim.backend import backend_info

    runners = _runners()
    started = time.time()
    runs = []
    for name in names if args.workload == "all" else [args.workload]:
        run = common.WorkloadRun(name)
        runners[name](run, args.seed, args.seconds, trace_dir)
        run.extra["error_rate"] = run.error_rate
        for metric, value in run.everything().items():
            print(f"{name} {metric} {value:.6g} {_unit(metric, units)}", flush=True)
        for problem in run.problems:
            print(f"{name} FAILED {problem}", file=sys.stderr)
        runs.append(run)

    report = {
        "git_sha": _git_sha(),
        "backend": backend_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": trace_dir is not None,
        "started_unix": started,
        "workloads": {
            run.workload: {
                "attempted": run.attempted,
                "failed": run.failed,
                "problems": run.problems,
                "metrics": {
                    metric: {
                        "value": value,
                        "unit": _unit(metric, units),
                        "samples": run.samples.get(metric),
                    }
                    for metric, value in run.everything().items()
                },
                "files": run.files,
            }
            for run in runs
        },
    }
    out = args.out or common.OUT_DIR / f"report-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report written to {out}", flush=True)

    metrics: Dict[str, Any] = {}
    for run in runs:
        values = {**run.metrics, **run.layers}
        for metric in wanted:
            value = values.get(metric)
            if value is None or not math.isfinite(value):
                raise SystemExit(f"bench: {run.workload} did not measure {metric}")
            key = metric if len(runs) == 1 else f"{run.workload}:{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    failed = sum(run.failed for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
