"""Hot-path perf bench: the optimization PRs' speedup floors must hold.

Runs the full :mod:`repro.experiments.perfbench` case set (the same
harness behind ``hottiles bench``) and asserts the headline promises on
the floors case (``rmat13``, scale-13 R-MAT, 200k nonzeros):

- ``build_plans``  at least 3x faster than the frozen
  pre-vectorization reference,
- ``simulate``     at least 4x faster than the frozen full-recompute
  event loop.

Both sides of every ratio are timed in-process on the same machine, so
the asserted floors are machine-independent.  CI gates the *quick*
subset against the committed ``BENCH_PERF_BASELINE.json`` instead (see
docs/performance.md); this bench is the slower, absolute check.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_core.py -s
"""

from __future__ import annotations

from repro.experiments import perfbench

#: Python-engine simulate floor, raised from the original 2x once the
#: memoized rate allocator landed (measured ~8x; 2x headroom kept).
SIMULATE_FLOOR = 4.0


def test_perf_core_speedup_floors():
    report = perfbench.run_bench(quick=False, repeat=7)
    print()
    print(perfbench.format_report(report))

    floors = next(
        c for c in report["cases"] if c["name"] == perfbench.FLOORS_CASE
    )
    build = floors["stages"]["build_plans"]["speedup"]
    sim = floors["stages"]["simulate"]["speedup"]
    assert build >= perfbench.BUILD_PLANS_MIN_SPEEDUP, (
        f"build_plans speedup {build:.2f}x on {perfbench.FLOORS_CASE} "
        f"below the promised {perfbench.BUILD_PLANS_MIN_SPEEDUP}x floor"
    )
    assert sim >= SIMULATE_FLOOR, (
        f"simulate speedup {sim:.2f}x on {perfbench.FLOORS_CASE} "
        f"below the promised {SIMULATE_FLOOR}x floor"
    )

    # Every case must report every stage -- a silently dropped stage would
    # let a future regression hide from the CI gate.
    for case in report["cases"]:
        assert set(case["stages"]) == {"preprocess", "build_plans", "simulate"}
