"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bench import common

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path, workload: str, trace: str) -> dict:
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload, "--seed", "1",
         "--duration", "2", "--trace", trace, "--out", str(report)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    result["report"] = json.loads(report.read_text())["workloads"][workload]
    return result


def _assert_metrics(metrics: dict, table: str) -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC[table]}
    assert set(metrics) == set(wanted)
    for name, unit in wanted.items():
        assert metrics[name]["unit"] == unit
        assert math.isfinite(metrics[name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_end_to_end_metric(tmp_path, workload):
    result = _run(tmp_path, workload, "0")
    _assert_metrics(result["metrics"], "end_to_end")
    assert result["report"]["metrics"]["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_emits_every_per_layer_metric(tmp_path, workload):
    result = _run(tmp_path, workload, str(tmp_path / "trace"))
    _assert_metrics(result["metrics"], "per_layer")
    assert (tmp_path / "trace" / f"{workload}-bench.json").is_file()
    if workload.startswith("serve-"):
        assert (tmp_path / "trace" / f"{workload}-server.json").is_file()


def test_lane_hands_out_each_request_once():
    common.bootstrap()
    import threading

    from bench.service import Lane

    lane = Lane(list(range(20_000)), senders=8)
    taken = [[] for _ in range(lane.senders)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda out=out: out.extend(iter(lane.take, None)))
                   for out in taken]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(item for out in taken for item in out) == list(range(20_000))


def test_corrupted_output_raises_error_rate(monkeypatch):
    common.bootstrap()
    from repro.sparse import generators

    from bench import pipeline

    real = pipeline.build_format

    def corrupt(tiled, subset, worker):
        fmt = real(tiled, subset, worker)
        if fmt.nnz:
            fmt.vals[0] += np.float32(1.0)
        return fmt

    monkeypatch.setattr(pipeline, "build_format", corrupt)
    run = common.WorkloadRun("corrupt")
    recipes = {"tiny": lambda seed: generators.rmat(scale=9, nnz=3000, seed=seed)}
    pipeline.run_workload(run, recipes, seed=1, seconds=0.5, trace_dir=None)
    assert run.failed > 0 and run.error_rate > 0
    assert any("SpMM" in problem for problem in run.problems)
