"""Unit tests for the metrics registry: instruments, snapshots, diffs."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs.metrics as metrics_module
from repro.net.clock_transport import _COUNTER_NAMES, CLOCK_TRANSPORT_FIELDS, ClockTransportStats
from repro.obs.metrics import (
    BUCKET_LAYOUTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    define_family,
    family_keys,
)


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


# -- the registry against a naive model -------------------------------------------------

#: The families the property draws from: process constants, as every family
#: a registry takes must be.  ``q.x`` is in two of them, so registering both
#: in one registry must fail; the last is what a clock transport's view
#: registers.
FAMILIES = (
    family_keys(("p.a", "p.b", "p.c"), rank=0),
    family_keys(("p.a", "p.b", "p.c"), rank=1),
    family_keys(("q.x",)),
    define_family([("q.y", (("kind", "k1"),)), ("q.y", (("kind", "k2"),)), ("q.x", ())]),
    family_keys(_COUNTER_NAMES, rank=0),
)
#: Counter keys a singleton lookup draws: some are family keys.
COUNTER_KEYS = (
    ("p.a", {"rank": 0}), ("p.c", {"rank": 1}), ("q.x", {}), ("q.y", {"kind": "k2"}),
    ("s.one", {"rank": 0}), ("s.two", {}), ("clock_transport.round_trips", {"rank": 0}),
)
#: ``s.one{rank=0}`` also names a counter: the gauge wins the snapshot key.
GAUGE_KEYS = (("g.depth", {"rank": 0}), ("g.depth", {"rank": 1}), ("s.one", {"rank": 0}))
HISTOGRAM_KEYS = (("h.wait", {"rank": 1}), ("h.wait", {}))
PREFIXES = (None, "", "p.", "q.", "s.", "g.", "h.", "clock_transport.", "nothing.")


class _Model:
    """What a registry should hold, kept the naive way."""

    def __init__(self):
        self.families = []  # registered, in order, with each one's values
        self.singletons = {}  # text -> [name, labels, value]
        self.gauges = {}  # text -> [name, labels, value, high watermark]
        self.histograms = {}  # text -> (labels, a Histogram fed the same values)

    def row(self, family):
        for registered, values in self.families:
            if registered is family:
                return values
        return None

    def register(self, family):
        """The row, or the ``ValueError`` the registry must raise."""
        if self.row(family) is not None:
            return self.row(family)
        texts = {text for text, _, _ in family.entries}
        if texts & set(self.singletons) or any(
            texts & {text for text, _, _ in other.entries} for other, _ in self.families
        ):
            return ValueError
        self.families.append((family, [0] * len(family)))
        return self.families[-1][1]

    def inc(self, name, labels, amount):
        text = metrics_module._KEY_TEXT[name, metrics_module._label_key(labels)]
        for family, values in self.families:
            for index, (key, _, _) in enumerate(family.entries):
                if key == text:
                    values[index] += amount
                    return
        entry = self.singletons.setdefault(
            text, [name, metrics_module._label_key(labels), 0]
        )
        entry[2] += amount

    def reset(self):
        for _, values in self.families:
            values[:] = [0] * len(values)
        for entry in self.singletons.values():
            entry[2] = 0
        for entry in self.gauges.values():
            entry[2] = entry[3] = 0
        for text, (labels, histogram) in self.histograms.items():
            self.histograms[text] = (labels, Histogram(histogram.name, labels))

    def entries(self):
        """``(text, name, labels, value)`` in the order a dict would be assigned."""
        for family, values in self.families:
            for (text, name, labels), value in zip(family.entries, values):
                yield text, name, labels, value
        for text, (name, labels, value) in self.singletons.items():
            yield text, name, labels, value
        for text, (name, labels, value, high) in self.gauges.items():
            yield text, name, labels, {"high_watermark": high, "value": value}
        for text, (labels, histogram) in self.histograms.items():
            yield text, histogram.name, labels, histogram.as_dict()

    def snapshot(self, prefix=None, rank=None):
        out, labelled = {}, {}
        for text, name, labels, value in self.entries():
            if prefix is None or name.startswith(prefix):
                out[text] = value
                labelled[text] = labels
        if rank is not None:
            out = {k: v for k, v in out.items() if ("rank", str(rank)) in labelled[k]}
        return {key: out[key] for key in sorted(out)}


def _from_instruments(registry):
    """The snapshot rebuilt from ``instruments()``, one instrument at a time."""
    out = {}
    for instrument in registry.instruments():
        if isinstance(instrument, Gauge):
            value = {"high_watermark": instrument.high_watermark, "value": instrument.value}
        elif isinstance(instrument, Histogram):
            value = instrument.as_dict()
        else:
            value = instrument.value
        out[instrument.key] = value
    return {key: out[key] for key in sorted(out)}


_OPERATIONS = st.one_of(
    st.tuples(st.just("register"), st.integers(0, len(FAMILIES) - 1)),
    st.tuples(st.just("counter"), st.integers(0, len(COUNTER_KEYS) - 1), st.integers(0, 5)),
    st.tuples(
        st.just("row"), st.integers(0, len(FAMILIES) - 1), st.integers(0, 20), st.integers(0, 5)
    ),
    st.tuples(
        st.just("view"), st.integers(0, len(CLOCK_TRANSPORT_FIELDS) - 1), st.integers(0, 5)
    ),
    st.tuples(st.just("gauge"), st.integers(0, len(GAUGE_KEYS) - 1), st.integers(0, 9)),
    st.tuples(
        st.just("histogram"), st.integers(0, len(HISTOGRAM_KEYS) - 1),
        st.floats(0.0, 300.0, allow_nan=False),
    ),
    st.tuples(st.just("reset")),
    st.tuples(st.just("snapshot"), st.integers(0, len(PREFIXES) - 1)),
    st.tuples(st.just("rank"), st.integers(0, 2)),
)


class TestRegistryAgainstANaiveModel:
    """Random interleavings on two registries of one layout and different values."""

    @given(st.lists(_OPERATIONS, max_size=40))
    @settings(deadline=None)
    def test_every_snapshot_equals_the_naive_sorted_reference(self, operations):
        # The second registry sees every structural step the first does, with
        # other amounts: one layout, two sets of values.
        pairs = [(MetricsRegistry(), _Model(), 1), (MetricsRegistry(), _Model(), 3)]
        rows = [{}, {}]
        for operation in operations:
            kind = operation[0]
            for (registry, model, scale), held in zip(pairs, rows):
                if kind == "register":
                    family = FAMILIES[operation[1]]
                    expected = model.register(family)
                    if expected is ValueError:
                        with pytest.raises(ValueError):
                            registry.counter_family(family)
                    else:
                        held[operation[1]] = registry.counter_family(family)
                        assert held[operation[1]] == expected
                elif kind == "counter":
                    name, labels = COUNTER_KEYS[operation[1]]
                    counter = registry.counter(name, **labels)
                    assert registry.counter(name, **labels) is counter
                    counter.inc(operation[2] * scale)
                    model.inc(name, labels, operation[2] * scale)
                elif kind == "row" and operation[1] in held:
                    family = FAMILIES[operation[1]]
                    index = operation[2] % len(family)
                    held[operation[1]][index] += operation[3] * scale
                    model.row(family)[index] += operation[3] * scale
                elif kind == "view":
                    family = FAMILIES[-1]
                    if model.register(family) is ValueError:
                        with pytest.raises(ValueError):
                            ClockTransportStats(registry, rank=0)
                        continue
                    view = ClockTransportStats(registry, rank=0)
                    field = CLOCK_TRANSPORT_FIELDS[operation[1]]
                    setattr(view, field, getattr(view, field) + operation[2] * scale)
                    model.row(family)[operation[1]] += operation[2] * scale
                elif kind == "gauge":
                    name, labels = GAUGE_KEYS[operation[1]]
                    value = operation[2] * scale
                    registry.gauge(name, **labels).set(value)
                    text = metrics_module._KEY_TEXT[name, metrics_module._label_key(labels)]
                    entry = model.gauges.setdefault(
                        text, [name, metrics_module._label_key(labels), 0, 0]
                    )
                    entry[2], entry[3] = value, max(entry[3], value)
                elif kind == "histogram":
                    name, labels = HISTOGRAM_KEYS[operation[1]]
                    registry.histogram(name, **labels).observe(operation[2] * scale)
                    key = metrics_module._label_key(labels)
                    text = metrics_module._KEY_TEXT[name, key]
                    _, histogram = model.histograms.setdefault(text, (key, Histogram(name, key)))
                    histogram.observe(operation[2] * scale)
                elif kind == "reset":
                    registry.reset()
                    model.reset()
                elif kind == "snapshot":
                    prefix = PREFIXES[operation[1]]
                    assert registry.snapshot(prefix) == model.snapshot(prefix)
                    assert list(registry.snapshot(prefix)) == list(model.snapshot(prefix))
                elif kind == "rank":
                    assert registry.snapshot_for_rank(operation[1]) == model.snapshot(
                        rank=operation[1]
                    )
        for registry, model, _ in pairs:
            assert registry.snapshot() == model.snapshot() == _from_instruments(registry)
            assert list(registry.snapshot()) == list(model.snapshot())
            assert registry.to_json() == json.dumps(model.snapshot(), sort_keys=True)


class TestSnapshotLayouts:
    def test_two_registries_of_one_layout_share_it_and_keep_their_values(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((first, 1), (second, 7)):
            row = registry.counter_family(FAMILIES[0])
            row[2] += amount
            registry.counter("s.two").inc(amount)
            registry.gauge("g.depth", rank=1).set(amount)
        before = len(metrics_module._LAYOUTS)
        assert first.snapshot() == {
            "g.depth{rank=1}": {"high_watermark": 1, "value": 1},
            "p.a{rank=0}": 0, "p.b{rank=0}": 0, "p.c{rank=0}": 1, "s.two": 1,
        }
        assert second.snapshot() == {
            "g.depth{rank=1}": {"high_watermark": 7, "value": 7},
            "p.a{rank=0}": 0, "p.b{rank=0}": 0, "p.c{rank=0}": 7, "s.two": 7,
        }
        # One layout, sorted once, whichever registry asked first.
        assert len(metrics_module._LAYOUTS) - before <= 1

    def test_an_instrument_added_after_a_memoised_snapshot_is_in_the_next(self):
        registry = MetricsRegistry()
        registry.counter_family(FAMILIES[1])[0] = 4
        assert registry.snapshot() == {"p.a{rank=1}": 4, "p.b{rank=1}": 0, "p.c{rank=1}": 0}
        assert registry.snapshot() == registry.snapshot()
        registry.counter("a.first").inc()
        registry.histogram("h.wait").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a.first", "h.wait", "p.a{rank=1}", "p.b{rank=1}", "p.c{rank=1}"]
        assert snapshot["a.first"] == 1 and snapshot["h.wait"]["count"] == 1
        registry.counter_family(FAMILIES[2])[0] = 2
        assert registry.snapshot()["q.x"] == 2
        assert registry.snapshot(prefix="q.") == {"q.x": 2}

    def test_an_empty_registry_and_a_prefix_that_matches_nothing(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        registry.counter("only").inc(3)
        assert registry.snapshot() == {"only": 3}
        assert registry.snapshot(prefix="none.") == {}
