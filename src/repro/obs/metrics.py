"""A deterministic metrics registry: counters, gauges, histograms.

The registry is the single place run-time accounting lives.  Subsystems either
use it directly (``registry.counter("nic.sends_issued", rank="0").inc()``) or
through thin legacy views (``FabricStats``, ``ClockTransportStats``) whose
fields are properties over registry instruments — one source of truth, two
spellings.

Design constraints, in priority order:

* **Determinism.**  :meth:`MetricsRegistry.snapshot` returns a plain dict with
  sorted keys and only int/float values; :meth:`MetricsRegistry.to_json` is
  ``json.dumps(..., sort_keys=True)``.  Two runs with equal seeds and knobs
  produce byte-identical snapshots.
* **Cheapness.**  Instruments are memoized by ``(name, labels)`` (counters
  by its snapshot key text, whose hash a ``str`` caches); the hot path
  is one dict hit plus an integer add.  No wall-clock, no locks, no I/O.
  A stats view that owns a whole family of counters registers it in one pass
  (:func:`family_keys` + :meth:`MetricsRegistry.counter_family`), and the
  snapshot key text of an instrument is formatted once per process.
* **Zero behavioural footprint.**  Nothing in here touches simulation clocks,
  scheduling order, or randomness — metrics on/off cannot change verdicts.

Instrument identity is ``name{label=value,...}`` with labels sorted by key,
the same spelling used as snapshot keys, e.g.
``fabric.messages{category=data}`` or ``nic.puts_issued{rank=2}``.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Version of the exported metrics-file layout (the ``export()`` wrapper).
#: Bumped on incompatible changes so loaders fail loudly instead of
#: misreading a snapshot from a different era.
METRICS_SCHEMA_VERSION = 1

#: Named fixed bucket layouts for histograms.  Fixed layouts (rather than
#: data-driven ones) keep snapshots byte-identical across runs and make
#: baselines comparable across commits.
BUCKET_LAYOUTS: Dict[str, Tuple[float, ...]] = {
    # Simulated-time durations (latency-model units).
    "sim_time": (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0),
    # Queue depths / occupancies.
    "depth": (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    # Message / payload sizes in bytes.
    "bytes": (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
}

#: Per layout, the snapshot label of each bucket (``le_<bound>``, then
#: ``le_inf`` for the overflow bucket), formatted once per process.
_BUCKET_LABELS: Dict[str, Tuple[str, ...]] = {
    layout: tuple([f"le_{bound:g}" for bound in bounds]) + ("le_inf",)
    for layout, bounds in BUCKET_LAYOUTS.items()
}


#: Canonical form of a label set: ``(key, str(value))`` pairs sorted by key.
LabelKey = Tuple[Tuple[str, str], ...]
#: What a registry memoizes an instrument under.
InstrumentKey = Tuple[str, LabelKey]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if len(labels) > 1:
        return tuple(sorted((key, str(value)) for key, value in labels.items()))
    for key, value in labels.items():
        return ((key, str(value)),)
    return ()


class _FamilyKeys(tuple):
    """What :func:`family_keys` returns: the plain key tuple, plus its rows.

    Equal to (and iterating as) the tuple of ``(name, labels)`` keys;
    ``rows`` holds each key's ``(text, name, labels)``, so
    :meth:`MetricsRegistry.counter_family` hashes no nested tuple.
    """

    rows: Tuple[Tuple[str, str, LabelKey], ...]


@functools.lru_cache(maxsize=1024)
def _family(names: Tuple[str, ...], label_key: LabelKey) -> _FamilyKeys:
    """The keys of :func:`family_keys`, built once per process per argument pair."""
    keys = _FamilyKeys([(name, label_key) for name in names])
    keys.rows = tuple([(_KEY_TEXT[key], *key) for key in keys])
    return keys


def family_keys(names: Sequence[str], **labels: object) -> Tuple[InstrumentKey, ...]:
    """One registry key per name in *names*, all carrying *labels*.

    For :meth:`MetricsRegistry.counter_family`.  Memoized per ``(names,
    label key)``: every runtime of a campaign asks for the same few families
    (a NIC's per rank), and the keys and their snapshot texts depend on
    nothing else.  Sharing the result is safe: it is immutable, and holds
    no counter — each registry still makes its own.
    """
    return _family(tuple(names), _label_key(labels))


class _KeyText(dict):
    """``(name, labels)`` -> snapshot key text ``name{label=value,...}``.

    Process-wide: the text depends on nothing else, and every run of a
    campaign asks for the same few hundred, so each is formatted once.
    """

    def __missing__(self, key: InstrumentKey) -> str:
        name, labels = key
        text = name
        if labels:
            text += "{" + ",".join(f"{label}={value}" for label, value in labels) + "}"
        self[key] = text
        return text


_KEY_TEXT = _KeyText()


class Counter:
    """A monotonically increasing integer.

    ``value`` is a plain public attribute on purpose: the legacy stats views
    implement ``stats.field += n`` through property setters that assign it
    directly, and ``merge`` needs read-modify-write.
    """

    __slots__ = ("name", "labels", "key", "value")

    def __init__(self, name: str, labels: Sequence[Tuple[str, str]] = ()) -> None:
        self.name = name
        self.labels = tuple(labels)
        #: Snapshot key: ``name{label=value,...}``.
        self.key = _KEY_TEXT[name, self.labels]
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.key}={self.value}>"


class Gauge:
    """A value that can go up and down (queue depth, outstanding requests)."""

    __slots__ = ("name", "labels", "key", "value", "high_watermark")

    def __init__(self, name: str, labels: Sequence[Tuple[str, str]] = ()) -> None:
        self.name = name
        self.labels = tuple(labels)
        self.key = _KEY_TEXT[name, self.labels]
        self.value = 0
        self.high_watermark = 0

    def set(self, value: int) -> None:
        """Set the current value, tracking the high watermark."""
        self.value = value
        if value > self.high_watermark:
            self.high_watermark = value

    def inc(self, amount: int = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: int = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.key}={self.value} high={self.high_watermark}>"


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets plus sum/count).

    Bucket upper bounds come from a named layout in :data:`BUCKET_LAYOUTS`;
    values above the last bound land in the implicit overflow bucket.
    """

    __slots__ = (
        "name", "labels", "key", "bounds", "bucket_labels", "bucket_counts", "count", "total",
    )

    def __init__(
        self,
        name: str,
        labels: Sequence[Tuple[str, str]] = (),
        layout: str = "sim_time",
    ) -> None:
        self.name = name
        self.labels = tuple(labels)
        self.key = _KEY_TEXT[name, self.labels]
        self.bounds: Tuple[float, ...] = BUCKET_LAYOUTS[layout]
        self.bucket_labels = _BUCKET_LABELS[layout]
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation.

        It lands in the first bucket whose bound is ``>= value``; a value
        above the last bound, or NaN, in the overflow bucket.
        """
        bounds = self.bounds
        if value <= bounds[0]:
            index = 0  # every uncontended lock wait
        elif value <= bounds[-1]:
            index = bisect_left(bounds, value)
        else:
            index = len(bounds)
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0 <= q <= 1) by bucket interpolation.

        Prometheus-style: find the bucket holding the target rank and
        interpolate linearly inside it (the overflow bucket clamps to its
        lower bound — there is no upper edge to interpolate towards).
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i else 0.0
                upper = self.bounds[i]
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]

    def as_dict(self) -> Dict[str, object]:
        """Deterministic flat summary of this histogram."""
        buckets = dict(zip(self.bucket_labels, self.bucket_counts))
        return {"buckets": buckets, "count": self.count, "sum": self.total}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.key} count={self.count} sum={self.total:g}>"


class MetricsRegistry:
    """Memoizing factory and snapshot point for all instruments."""

    def __init__(self) -> None:
        #: Counters by snapshot key text: a ``str`` caches its hash, so a
        #: lookup or store re-hashes no nested ``(name, labels)`` tuple.
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> InstrumentKey:
        return name, _label_key(labels)

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + *labels*, created on first use."""
        key = self._key(name, labels)
        text = _KEY_TEXT[key]
        instrument = self._counters.get(text)
        if instrument is None:
            instrument = self._counters[text] = Counter(name, key[1])
        return instrument

    def counter_family(self, keys: Iterable[InstrumentKey]) -> List[Counter]:
        """The counters for *keys* (see :func:`family_keys`), in order.

        What ``[self.counter(name, **labels) for ...]`` returns — the very
        same objects — without canonicalizing the labels per counter: keys
        from :func:`family_keys` carry their snapshot texts, a plain key
        tuple has each key hashed once, for its text, and a new counter is
        filled here rather than by ``Counter.__init__``, which would look
        that text up again.
        """
        rows = getattr(keys, "rows", None)
        if rows is None:
            rows = [(_KEY_TEXT[key], *key) for key in keys]
        counters = self._counters
        family = []
        for text, name, labels in rows:
            instrument = counters.get(text)
            if instrument is None:
                instrument = counters[text] = object.__new__(Counter)
                instrument.name = name
                instrument.labels = labels
                instrument.key = text
                instrument.value = 0
            family.append(instrument)
        return family

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + *labels*, created on first use."""
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self, name: str, layout: str = "sim_time", **labels: object
    ) -> Histogram:
        """The histogram for ``name`` + *labels*, created on first use."""
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], layout)
        return instrument

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """All instruments as one sorted flat dict.

        Counters map to their value; gauges to ``{"value", "high_watermark"}``;
        histograms to ``{"buckets", "count", "sum"}``.  Zero-valued counters
        that were merely *created* (e.g. by a stats view's property getters)
        are included — creation order does not matter because keys are sorted.
        With *prefix*, only instruments whose name starts with it are
        included (e.g. ``"nic."`` for one subsystem).
        """
        out: Dict[str, object] = {}
        for counter in self._counters.values():
            if prefix is not None and not counter.name.startswith(prefix):
                continue
            out[counter.key] = counter.value
        for gauge in self._gauges.values():
            if prefix is not None and not gauge.name.startswith(prefix):
                continue
            out[gauge.key] = {
                "high_watermark": gauge.high_watermark,
                "value": gauge.value,
            }
        for histogram in self._histograms.values():
            if prefix is not None and not histogram.name.startswith(prefix):
                continue
            out[histogram.key] = histogram.as_dict()
        return {key: out[key] for key in sorted(out)}

    def snapshot_for_rank(self, rank: int) -> Dict[str, object]:
        """The slice of the snapshot labelled with ``rank=<rank>``."""
        needle = f"rank={rank}"
        return {
            key: value
            for key, value in self.snapshot().items()
            if "{" in key
            and needle in key[key.index("{") :].strip("{}").split(",")
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of :meth:`snapshot` — byte-identical for equal runs."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def export(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """The snapshot wrapped in the versioned file envelope.

        This is what metrics *files* should contain; :func:`load_snapshot`
        is the matching reader.  :meth:`snapshot` itself stays bare for
        in-process use.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": self.snapshot(prefix),
        }

    @staticmethod
    def diff(
        before: Dict[str, object], after: Dict[str, object]
    ) -> Dict[str, Dict[str, object]]:
        """Structural diff of two snapshots.

        Returns ``{"added": {...}, "removed": {...}, "changed": {key:
        {"before": ..., "after": ...}}}`` with sorted keys throughout.
        """
        added = {k: after[k] for k in sorted(set(after) - set(before))}
        removed = {k: before[k] for k in sorted(set(before) - set(after))}
        changed = {
            k: {"after": after[k], "before": before[k]}
            for k in sorted(set(before) & set(after))
            if before[k] != after[k]
        }
        return {"added": added, "changed": changed, "removed": removed}

    def reset(self) -> None:
        """Zero every instrument in place (identities survive, so views keep
        working after e.g. ``Fabric.reset_stats``)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
            gauge.high_watermark = 0
        for histogram in self._histograms.values():
            histogram.bucket_counts = [0] * (len(histogram.bounds) + 1)
            histogram.count = 0
            histogram.total = 0.0

    def instruments(self) -> Iterable[object]:
        """All instruments (tests use this for well-formedness checks)."""
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()


def load_snapshot(payload: Dict[str, object]) -> Dict[str, object]:
    """Unwrap a metrics file payload into a bare snapshot dict.

    Accepts both the versioned envelope (``{"schema_version": 1, "metrics":
    {...}}``) and a bare pre-versioning snapshot.  Raises :class:`ValueError`
    on an envelope whose version this reader does not understand.
    """
    if isinstance(payload, dict) and "schema_version" in payload:
        version = payload["schema_version"]
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema_version {version!r} is not supported "
                f"(this reader understands version {METRICS_SCHEMA_VERSION})"
            )
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            raise ValueError("versioned metrics file has no 'metrics' object")
        return metrics
    return payload
