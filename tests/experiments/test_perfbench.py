"""Report schema and regression-gate logic of the perf bench harness.

No timing assertions here (CI machines are shared); the absolute speedup
floors live in ``benchmarks/bench_perf_core.py`` and the tracked gate in
the CI perf-smoke job.
"""

import copy
import json

from repro.cli import main
from repro.experiments import perfbench


def _quick_report():
    return perfbench.run_bench(quick=True, repeat=1)


def test_report_schema_and_case_selection():
    report = _quick_report()
    assert report["schema"] == perfbench.SCHEMA == "hottiles-bench-perf/2"
    assert report["mode"] == "quick"
    quick_names = [c.name for c in perfbench.CASES if c.quick]
    assert [c["name"] for c in report["cases"]] == quick_names

    targets = report["targets"]
    assert targets["floors_case"] == perfbench.FLOORS_CASE

    for case in report["cases"]:
        assert case["nnz"] > 0 and case["n_tiles"] > 0
        stages = case["stages"]
        assert set(stages) == {"preprocess", "build_plans", "simulate"}
        for name in ("build_plans", "simulate"):
            stage = stages[name]
            assert stage["wall_s"] > 0 and stage["reference_wall_s"] > 0
            # Speedup is derived from the two walls, not measured separately.
            assert stage["speedup"] == stage["reference_wall_s"] / stage["wall_s"]
        pre = stages["preprocess"]
        assert pre["normalized"] == (
            pre["wall_s"] / stages["simulate"]["reference_wall_s"]
        )


def test_report_round_trips_through_json(tmp_path):
    report = _quick_report()
    path = tmp_path / "BENCH_PERF.json"
    perfbench.write_report(report, path)
    assert perfbench.load_report(path) == json.loads(path.read_text())


def test_compare_passes_against_itself():
    report = _quick_report()
    assert perfbench.compare(report, report) == []


def test_compare_flags_speedup_regression():
    baseline = _quick_report()
    current = copy.deepcopy(baseline)
    stage = current["cases"][0]["stages"]["build_plans"]
    stage["speedup"] = baseline["cases"][0]["stages"]["build_plans"]["speedup"] * 0.5
    failures = perfbench.compare(current, baseline, tolerance=0.25)
    assert len(failures) == 1
    assert "build_plans" in failures[0] and "below floor" in failures[0]
    # Within tolerance: no failure.
    stage["speedup"] = baseline["cases"][0]["stages"]["build_plans"]["speedup"] * 0.8
    assert perfbench.compare(current, baseline, tolerance=0.25) == []


def test_compare_flags_preprocess_regression():
    baseline = _quick_report()
    current = copy.deepcopy(baseline)
    pre = current["cases"][0]["stages"]["preprocess"]
    pre["normalized"] = baseline["cases"][0]["stages"]["preprocess"]["normalized"] * 2
    failures = perfbench.compare(current, baseline, tolerance=0.25)
    assert len(failures) == 1
    assert "preprocess" in failures[0] and "above ceiling" in failures[0]


def test_compare_flags_missing_case_and_schema_mismatch():
    baseline = _quick_report()
    current = copy.deepcopy(baseline)
    current["cases"] = current["cases"][1:]
    failures = perfbench.compare(current, baseline)
    assert any("missing" in f for f in failures)

    mismatched = copy.deepcopy(baseline)
    mismatched["schema"] = "hottiles-bench-perf/999"
    failures = perfbench.compare(mismatched, baseline)
    assert failures and "schema mismatch" in failures[0]


def test_cli_bench_writes_report_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_PERF.json"
    base = tmp_path / "baseline.json"
    assert main(["bench", "--quick", "--repeat", "1", "-o", str(base)]) == 0
    assert main(
        ["bench", "--quick", "--repeat", "1", "-o", str(out), "--baseline", str(base)]
        # 10x slack: this test exercises plumbing, not machine performance.
        + ["--tolerance", "10.0"]
    ) == 0
    report = perfbench.load_report(out)
    assert report["schema"] == perfbench.SCHEMA
    assert "no regression" in capsys.readouterr().out

    # An impossible baseline must trip the gate and exit nonzero.
    doctored = perfbench.load_report(base)
    for case in doctored["cases"]:
        case["stages"]["build_plans"]["speedup"] = 1e9
    doctored_path = tmp_path / "doctored.json"
    perfbench.write_report(doctored, doctored_path)
    assert (
        main(
            [
                "bench",
                "--quick",
                "--repeat",
                "1",
                "-o",
                str(out),
                "--baseline",
                str(doctored_path),
            ]
        )
        == 1
    )
    assert "PERF REGRESSION" in capsys.readouterr().out
