"""Unit tests for the metrics registry: instruments, snapshots, diffs."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import BUCKET_LAYOUTS, Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_key_spelling_with_labels(self):
        counter = Counter("nic.puts", (("peer", "1"), ("rank", "0")))
        assert counter.key == "nic.puts{peer=1,rank=0}"

    def test_key_without_labels_is_bare_name(self):
        assert Counter("fabric.messages").key == "fabric.messages"


class TestGauge:
    def test_set_tracks_high_watermark(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.high_watermark == 3

    def test_inc_dec(self):
        gauge = Gauge("depth")
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 1
        assert gauge.high_watermark == 2


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("wait", layout="sim_time")
        histogram.observe(0.3)   # <= 0.5
        histogram.observe(7.0)   # <= 10
        histogram.observe(1e9)   # overflow
        summary = histogram.as_dict()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.3 + 7.0 + 1e9)
        assert summary["buckets"]["le_0.5"] == 1
        assert summary["buckets"]["le_10"] == 1
        assert summary["buckets"]["le_inf"] == 1

    def test_unknown_layout_is_an_error(self):
        with pytest.raises(KeyError):
            Histogram("wait", layout="nope")

    def test_layouts_are_sorted(self):
        for name, bounds in BUCKET_LAYOUTS.items():
            assert list(bounds) == sorted(bounds), name


def _scanned_bucket(bounds, value):
    """The bucket the first-match linear scan picks (what ``observe`` did)."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


#: Every bound of every layout, exactly, and either side of it.
_EDGES = sorted(
    {
        edge
        for bounds in BUCKET_LAYOUTS.values()
        for bound in bounds
        for edge in (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
    }
)
_VALUES = st.one_of(
    st.sampled_from(_EDGES),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 2000),
)


class TestHistogramBucketParity:
    """``observe`` files every value where the first-match scan did."""

    @settings(deadline=None)
    @given(layout=st.sampled_from(sorted(BUCKET_LAYOUTS)), value=_VALUES)
    def test_every_value_lands_where_the_scan_put_it(self, layout, value):
        histogram = Histogram("h", layout=layout)
        histogram.observe(value)
        expected = [0] * (len(histogram.bounds) + 1)
        expected[_scanned_bucket(histogram.bounds, value)] = 1
        assert histogram.bucket_counts == expected

    @pytest.mark.parametrize("layout", sorted(BUCKET_LAYOUTS))
    def test_the_edges_pinned(self, layout):
        bounds = BUCKET_LAYOUTS[layout]
        for index, bound in enumerate(bounds):
            histogram = Histogram("h", layout=layout)
            histogram.observe(bound)  # a value on a bound belongs to it
            assert histogram.bucket_counts[index] == 1
        for value, index in ((-math.inf, 0), (math.inf, len(bounds)), (math.nan, len(bounds))):
            histogram = Histogram("h", layout=layout)
            histogram.observe(value)  # NaN compares false: the overflow bucket
            assert histogram.bucket_counts[index] == 1


class TestMetricsRegistry:
    def test_instruments_are_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("a", rank=0) is registry.counter("a", rank=0)
        assert registry.counter("a", rank=0) is not registry.counter("a", rank=1)
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.counter("a", x=1, y=2) is registry.counter("a", y=2, x=1)

    def test_snapshot_is_sorted_and_json_canonical(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        registry.gauge("m.middle", rank=1).set(4)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a.first"] == 2
        assert snapshot["m.middle{rank=1}"] == {"high_watermark": 4, "value": 4}
        # to_json is exactly the canonical dump of the snapshot.
        assert registry.to_json() == json.dumps(snapshot, sort_keys=True)

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("nic.puts", rank=0).inc()
        registry.counter("fabric.messages").inc()
        assert list(registry.snapshot(prefix="nic.")) == ["nic.puts{rank=0}"]

    def test_snapshot_for_rank_slices_by_label(self):
        registry = MetricsRegistry()
        registry.counter("nic.puts", rank=0).inc()
        registry.counter("nic.puts", rank=1).inc()
        registry.counter("global.total").inc()
        registry.counter("odd.case", note="rank=1x").inc()  # not an exact label
        assert list(registry.snapshot_for_rank(1)) == ["nic.puts{rank=1}"]

    def test_diff_reports_added_removed_changed(self):
        before = {"a": 1, "b": 2, "gone": 3}
        after = {"a": 1, "b": 5, "new": 7}
        delta = MetricsRegistry.diff(before, after)
        assert delta["added"] == {"new": 7}
        assert delta["removed"] == {"gone": 3}
        assert delta["changed"] == {"b": {"after": 5, "before": 2}}

    def test_reset_zeroes_but_preserves_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        gauge = registry.gauge("g")
        gauge.set(3)
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        registry.reset()
        assert registry.counter("c") is counter and counter.value == 0
        assert gauge.value == 0 and gauge.high_watermark == 0
        assert histogram.count == 0 and histogram.total == 0.0
        assert sum(histogram.bucket_counts) == 0


class TestHistogramQuantiles:
    def test_quantile_interpolates_inside_a_bucket(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", layout="sim_time")
        # 10 samples all in the (1.0, 2.0] bucket.
        for _ in range(10):
            histogram.observe(1.5)
        # The whole mass is in one bucket; quantiles interpolate across it.
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 1.5
        assert histogram.quantile(1.0) == 2.0

    def test_quantile_spans_buckets_by_rank(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", layout="depth")
        for value in (1, 1, 1, 3, 3, 3, 3, 3):  # 3 in le_1, 5 in le_4
            histogram.observe(value)
        # Rank 4 of 8 lands in the (2.0, 4.0] bucket.
        assert 2.0 <= histogram.quantile(0.5) <= 4.0

    def test_overflow_bucket_clamps_to_last_bound(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", layout="bytes")
        histogram.observe(10_000.0)
        assert histogram.quantile(0.99) == 1024.0

    def test_empty_histogram_and_bad_q(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h")
        assert histogram.quantile(0.5) == 0.0
        import pytest

        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)


class TestVersionedExport:
    def test_export_wraps_the_snapshot_in_a_versioned_envelope(self):
        from repro.obs.metrics import METRICS_SCHEMA_VERSION, load_snapshot

        registry = MetricsRegistry()
        registry.counter("c", rank=0).inc(3)
        payload = registry.export()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert payload["metrics"] == registry.snapshot()
        # Loaders unwrap the envelope ...
        assert load_snapshot(payload) == registry.snapshot()
        # ... and still accept a bare legacy snapshot.
        assert load_snapshot(registry.snapshot()) == registry.snapshot()

    def test_load_snapshot_rejects_wrong_version_or_shape(self):
        import pytest

        from repro.obs.metrics import load_snapshot

        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot({"schema_version": 99, "metrics": {}})
        with pytest.raises(ValueError, match="metrics"):
            load_snapshot({"schema_version": 1})
