"""Unit tests for the metric primitives and the registry."""

import pytest

from repro.telemetry.exporters import render_prometheus
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricRegistry()
        counter = registry.counter("packets_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = MetricRegistry().counter("packets_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        registry = MetricRegistry()
        registry.counter("drops_total", reason="link_down").inc()
        registry.counter("drops_total", reason="tamper_tap").inc(3)
        assert registry.value("drops_total", reason="link_down") == 1
        assert registry.value("drops_total", reason="tamper_tap") == 3

    def test_same_labels_return_same_instance(self):
        registry = MetricRegistry()
        first = registry.counter("x_total", a="1", b="2")
        # Label keyword order must not matter.
        second = registry.counter("x_total", b="2", a="1")
        assert first is second


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricRegistry().gauge("pending")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_set_max_keeps_high_water(self):
        gauge = MetricRegistry().gauge("high_water")
        gauge.set_max(7)
        gauge.set_max(3)
        assert gauge.value == 7
        gauge.set_max(11)
        assert gauge.value == 11


class TestHistogram:
    def test_bucketing_and_sum(self):
        histogram = MetricRegistry().histogram(
            "rct_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.5555)
        cumulative = histogram.cumulative_buckets()
        assert cumulative == [(0.001, 1), (0.01, 2), (0.1, 3),
                              (float("inf"), 4)]

    def test_mean(self):
        histogram = MetricRegistry().histogram("x_seconds")
        assert histogram.mean == 0.0
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.mean == 3.0

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricRegistry().histogram("bad_seconds", buckets=(1.0, 0.5))


class TestRegistry:
    def test_kind_collision_raises(self):
        registry = MetricRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricRegistry(enabled=False)
        assert registry.counter("a_total") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c_seconds") is NULL_HISTOGRAM
        # Nulls swallow mutations and register nothing.
        registry.counter("a_total").inc()
        registry.gauge("b").set(5)
        registry.histogram("c_seconds").observe(1.0)
        assert len(registry) == 0

    def test_snapshot_is_deterministically_ordered(self):
        registry = MetricRegistry()
        registry.counter("z_total")
        registry.counter("a_total", x="2")
        registry.counter("a_total", x="1")
        names = [(m.name, m.labels) for m in registry.snapshot()]
        assert names == [("a_total", (("x", "1"),)),
                         ("a_total", (("x", "2"),)),
                         ("z_total", ())]

    def test_with_name_filters(self):
        registry = MetricRegistry()
        registry.counter("a_total", k="1").inc()
        registry.counter("a_total", k="2").inc()
        registry.counter("b_total").inc()
        assert len(registry.with_name("a_total")) == 2


class TestBoundHandles:
    """A handle bound at wiring enters the dump on its first update, as a
    metric first resolved at that update would."""

    def test_unused_handle_adds_nothing(self):
        registry = MetricRegistry()
        registry.bind_counter("x_total", k="1")
        registry.bind_gauge("g")
        registry.bind_histogram("h_seconds")
        assert len(registry) == 0
        assert registry.get("x_total", k="1") is None
        assert render_prometheus(registry) == ""

    @pytest.mark.parametrize("update", [
        lambda registry: registry.bind_counter("m").inc(0),
        lambda registry: registry.bind_gauge("m").set(0),
        lambda registry: registry.bind_gauge("m").inc(0),
        lambda registry: registry.bind_gauge("m").dec(0),
        lambda registry: registry.bind_gauge("m").set_max(-1),
        lambda registry: registry.bind_histogram("m").observe(0.5),
    ])
    def test_any_update_lists_the_handle(self, update):
        registry = MetricRegistry()
        update(registry)
        assert [m.name for m in registry] == ["m"]

    def test_resolving_a_bound_handle_lists_it_at_once(self):
        registry = MetricRegistry()
        handle = registry.bind_counter("x_total", k="1")
        assert registry.counter("x_total", k="1") is handle
        assert render_prometheus(registry) == (
            '# TYPE repro_x_total counter\nrepro_x_total{k="1"} 0\n')

    def test_handle_and_lookup_share_one_series(self):
        registry = MetricRegistry()
        handle = registry.bind_counter("x_total", k="1")
        handle.inc(2)
        registry.counter("x_total", k="1").inc()
        assert registry.value("x_total", k="1") == 3
        with pytest.raises(TypeError):
            registry.bind_gauge("x_total", k="1")

    def test_disabled_registry_binds_the_null_metric(self):
        registry = MetricRegistry(enabled=False)
        assert registry.bind_counter("a_total") is NULL_COUNTER
        assert registry.bind_gauge("b") is NULL_GAUGE
        assert registry.bind_histogram("c_seconds") is NULL_HISTOGRAM


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricRegistry()
        registry.counter("drops_total", reason="link_down").inc(4)
        registry.gauge("pending").set(2)
        text = render_prometheus(registry)
        assert '# TYPE repro_drops_total counter' in text
        assert 'repro_drops_total{reason="link_down"} 4' in text
        assert 'repro_pending 2' in text

    def test_histogram_rendering(self):
        registry = MetricRegistry()
        histogram = registry.histogram("rct_seconds", buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.5)
        text = render_prometheus(registry)
        assert 'repro_rct_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_rct_seconds_bucket{le="+Inf"} 2' in text
        assert 'repro_rct_seconds_count 2' in text

    def test_label_escaping(self):
        registry = MetricRegistry()
        registry.counter("x_total", label='say "hi"\n').inc()
        text = render_prometheus(registry)
        assert r'label="say \"hi\"\n"' in text

    def test_rendering_is_deterministic(self):
        def build():
            registry = MetricRegistry()
            registry.counter("b_total", k="2").inc()
            registry.counter("b_total", k="1").inc(2)
            registry.gauge("a").set(1)
            return render_prometheus(registry)

        assert build() == build()
