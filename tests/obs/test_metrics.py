"""Tests for counters, gauges and streaming histograms."""

import math

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_and_amount(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_label_breakdown(self):
        counter = Counter("c")
        counter.inc(label="a")
        counter.inc(2, label="b")
        counter.inc(label="a")
        assert counter.value == 4
        assert counter.by_label == {"a": 2, "b": 2}

    def test_top_labels_ordering(self):
        counter = Counter("c")
        counter.inc(3, label="mid")
        counter.inc(5, label="big")
        counter.inc(1, label="small")
        counter.inc(3, label="also_mid")
        top = counter.top_labels(3)
        # Descending by count, ties broken alphabetically.
        assert top == [("big", 5), ("also_mid", 3), ("mid", 3)]


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_empty(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert math.isnan(hist.mean)
        assert math.isnan(hist.p50)

    def test_exact_quantiles_below_reservoir(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100, under the reservoir size
            hist.observe(value)
        assert hist.count == 100
        assert hist.min == 1
        assert hist.max == 100
        assert hist.mean == pytest.approx(50.5)
        # Nearest-rank on the full sample: index int(q*n), clamped.
        assert hist.quantile(0.0) == 1
        assert hist.p50 == 51
        assert hist.p95 == 96
        assert hist.quantile(1.0) == 100

    def test_order_independent_below_reservoir(self):
        forward, backward = Histogram("f"), Histogram("b")
        for value in range(200):
            forward.observe(value)
            backward.observe(199 - value)
        assert forward.p50 == backward.p50
        assert forward.p95 == backward.p95

    def test_reservoir_bounds_memory_and_tracks_extremes(self):
        hist = Histogram("h", reservoir_size=64)
        for value in range(10_000):
            hist.observe(value)
        assert hist.count == 10_000
        assert len(hist._reservoir) == 64
        # min/max are exact even though quantiles are sampled.
        assert hist.min == 0
        assert hist.max == 9_999
        assert 2_000 < hist.p50 < 8_000

    def test_deterministic_sampling(self):
        first, second = Histogram("a"), Histogram("b")
        for value in range(5_000):
            first.observe(value * 0.1)
            second.observe(value * 0.1)
        assert first.p50 == second.p50
        assert first.p95 == second.p95

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_reservoir_size_validated(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir_size=0)


class TestMetricsRegistry:
    def test_create_on_first_use(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        assert counter.value == 0

    def test_namespaces_are_separate(self):
        registry = MetricsRegistry()
        registry.counter("n")
        registry.gauge("n")
        registry.histogram("n")
        assert set(registry.counters) == {"n"}
        assert set(registry.gauges) == {"n"}
        assert set(registry.histograms) == {"n"}

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, label="t")
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == {"value": 2, "by_label": {"t": 2}}
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["p50"] == 3.0

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert not registry.counters
        assert registry.counter("c").value == 0


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")
        barrier = threading.Barrier(4)

        def hammer(label):
            barrier.wait()
            for _ in range(2000):
                counter.inc(label=label)
                histogram.observe(1.0)

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert counter.by_label == {f"t{i}": 2000 for i in range(4)}
        assert registry.histograms["lat"].count == 8000

    def test_concurrent_create_on_first_use_yields_one_instrument(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(c is seen[0] for c in seen)

    def test_snapshot_under_concurrent_writes_is_consistent(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("c")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snap = registry.snapshot()
                assert snap["counters"]["c"]["value"] >= 0
        finally:
            stop.set()
            thread.join()
