"""Metrics registry unit tests."""

import threading

import pytest

from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2.0


class TestHistogram:
    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_count_sum_mean_max(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.snapshot()["mean"] == 2.0
        assert h.max == 3.0

    def test_percentiles_on_uniform_samples(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(95) > h.percentile(50)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_window_is_bounded_but_count_exact(self):
        h = Histogram(max_samples=10)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        # Window holds only the newest 10 samples (90..99).
        assert h.percentile(0) == 90.0

    def test_snapshot_keys(self):
        h = Histogram()
        h.observe(1.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "max", "p50", "p95", "p99"}

    def test_percentile_is_linear_interpolation_not_nearest_rank(self):
        # The median of two samples is their midpoint; nearest-rank would
        # answer one of the samples themselves.
        h = Histogram()
        h.observe(1.0)
        h.observe(2.0)
        assert h.percentile(50) == pytest.approx(1.5)
        assert h.percentile(25) == pytest.approx(1.25)

    def test_percentile_edges_single_sample(self):
        h = Histogram()
        h.observe(7.0)
        for q in (0, 50, 100):
            assert h.percentile(q) == 7.0
        snap = h.snapshot()
        assert snap["p50"] == snap["p99"] == 7.0

    def test_percentile_q0_q100_are_window_extremes(self):
        h = Histogram()
        for v in (5.0, -1.0, 3.0):
            h.observe(v)
        assert h.percentile(0) == -1.0
        assert h.percentile(100) == 5.0

    def test_snapshot_is_torn_read_free_under_writers(self):
        # Regression: snapshot() used to read count/sum/max field by field
        # without taking the lock once, so fields sampled at different
        # moments could disagree.  One writer observes 1, 2, 3, ...; any
        # internally consistent snapshot then satisfies max == count and
        # sum == count * (count + 1) / 2 exactly -- identities a snapshot
        # torn across concurrent observes breaks.
        import sys
        import time

        h = Histogram(max_samples=64)
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                i += 1
                h.observe(float(i))

        def reader():
            while not stop.is_set() and not failures:
                snap = h.snapshot()
                n = snap["count"]
                if snap["max"] != n or snap["sum"] != n * (n + 1) / 2:
                    failures.append(snap)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert not failures, f"torn snapshot observed: {failures[0]}"


class TestRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("reqs").inc(2)
        reg.gauge("depth").set(1)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"reqs": 2}
        assert snap["gauges"] == {"depth": 1.0}
        assert snap["histograms"]["lat"]["count"] == 1
