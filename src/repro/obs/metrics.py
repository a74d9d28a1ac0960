"""A deterministic metrics registry: counters, gauges, histograms.

The registry is the single place run-time accounting lives.  Subsystems either
use it directly (``registry.counter("nic.sends_issued", rank="0").inc()``) or
through thin legacy views (``FabricStats``, ``ClockTransportStats``) whose
fields are properties over registry instruments — one source of truth, two
spellings.

A counter lives in one of two forms:

* a **singleton** — a :class:`Counter` object, created the first time
  :meth:`MetricsRegistry.counter` is asked for its key;
* a slot of a **family row** — a stats view's counters are one registered
  family (:func:`family_keys` or :func:`define_family`, each a constant of
  the process), and :meth:`MetricsRegistry.counter_family` hands back the
  family's *row*: a plain ``list`` of ints, one slot per key in key order.
  The view writes ``row[INDEX] += n``; :meth:`MetricsRegistry.counter` on a
  key of a registered family returns a :class:`CounterSlot` that aliases the
  slot.  A key is one or the other, never both (:meth:`counter_family`
  raises on a key that already is a singleton).

Design constraints, in priority order:

* **Determinism.**  :meth:`MetricsRegistry.snapshot` returns a plain dict with
  sorted keys and only int/float values; :meth:`MetricsRegistry.to_json` is
  ``json.dumps(..., sort_keys=True)``.  Two runs with equal seeds and knobs
  produce byte-identical snapshots.
* **Cheapness.**  Instruments are memoized by ``(name, labels)`` (counters
  by its snapshot key text, whose hash a ``str`` caches); the hot path
  is one dict hit plus an integer add, or for a view one list-slot add.  No
  wall-clock, no locks, no I/O.  A family's keys and their snapshot texts
  are built once per process, so registering one is one ``[0] * n``; the
  snapshot key text of an instrument is formatted once per process, and the
  snapshot's sorted order once per instrument layout (:data:`_LAYOUTS`).
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
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    """A counter family: the plain key tuple, plus what a registry needs of it.

    Equal to (and iterating as) the tuple of ``(name, labels)`` keys.  Built
    once per process by :func:`define_family`; a registry tells families
    apart by identity, so the same object must be passed every time.
    """

    #: Each key's ``(text, name, labels)``, in key order.
    entries: Tuple[Tuple[str, str, LabelKey], ...]
    #: The keys' snapshot texts, for the registry's overlap check.
    texts: frozenset
    #: True once another family of the process names one of these keys.
    shared: bool


#: Snapshot key text -> every ``(family, index)`` defined with that key.
#: Process-wide, like the families themselves (which it keeps alive): what
#: :meth:`MetricsRegistry.counter` consults to find a key's row slot.
_KEY_FAMILIES: Dict[str, List[Tuple[_FamilyKeys, int]]] = {}


def define_family(keys: Iterable[InstrumentKey]) -> _FamilyKeys:
    """A counter family of explicit ``(name, labels)`` *keys*, in order.

    For a family whose keys do not share one label set (``FabricStats``'
    per-category and per-kind counters); :func:`family_keys` builds the
    common kind.  Call it once per process — at import — and keep the
    result: :meth:`MetricsRegistry.counter_family` knows a family by its
    identity.
    """
    family = _FamilyKeys(keys)
    family.entries = tuple([(_KEY_TEXT[key], *key) for key in family])
    family.texts = frozenset([text for text, _, _ in family.entries])
    if len(family.texts) != len(family):
        raise ValueError(f"a counter family names a key twice: {family!r}")
    family.shared = False
    for index, (text, _, _) in enumerate(family.entries):
        owners = _KEY_FAMILIES.setdefault(text, [])
        for other, _ in owners:
            other.shared = family.shared = True
        owners.append((family, index))
    return family


@functools.cache
def _family(names: Tuple[str, ...], label_key: LabelKey) -> _FamilyKeys:
    """The family of :func:`family_keys`, built once per process per argument pair."""
    return define_family([(name, label_key) for name in names])


def family_keys(names: Sequence[str], **labels: object) -> _FamilyKeys:
    """The counter family of one registry key per name in *names*, all carrying *labels*.

    For :meth:`MetricsRegistry.counter_family`.  Memoized per ``(names,
    label key)``, without bound: every runtime of a campaign asks for the
    same few families (a NIC's per rank), the keys and their snapshot texts
    depend on nothing else, and a registry knows a family by identity.
    Sharing the result is safe: it is immutable, and holds no value — each
    registry makes its own row.
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


class CounterSlot:
    """One key of a registered counter family, read and written in its row.

    What :meth:`MetricsRegistry.counter` returns for a family's key: the
    :class:`Counter` surface (``value``, :meth:`inc`, ``name`` / ``labels``
    / ``key``) over ``row[index]``, so a write through either spelling is
    seen through the other.  It is not an instrument of its own: the
    snapshot reads the row.
    """

    __slots__ = ("_row", "_index", "name", "labels", "key")

    def __init__(self, row: List[int], index: int, family: _FamilyKeys) -> None:
        self._row = row
        self._index = index
        self.key, self.name, self.labels = family.entries[index]

    @property
    def value(self) -> int:
        return self._row[self._index]

    @value.setter
    def value(self, value: int) -> None:
        self._row[self._index] = value

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        self._row[self._index] += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterSlot {self.key}={self.value}>"


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


#: Snapshot layouts: ``(prefix, family ids, counter keys, gauge keys,
#: histogram keys)`` -> ``(sorted snapshot keys, getter, families)``.  The
#: getter picks, out of a registry's values gathered in instrument order,
#: the snapshot's values in key order; *families* keeps the families whose
#: ``id`` the key names alive, so no id is reused while its entry exists.
#: Process-wide and bounded: the runtimes of a campaign share a handful of
#: layouts, and each is sorted once.
_LAYOUTS: Dict[tuple, Tuple[Tuple[str, ...], Optional[itemgetter], tuple]] = {}
_LAYOUT_LIMIT = 512


class MetricsRegistry:
    """Memoizing factory and snapshot point for all instruments."""

    def __init__(self) -> None:
        #: Singleton counters by snapshot key text: a ``str`` caches its
        #: hash, so a lookup or store re-hashes no nested tuple.
        self._counters: Dict[str, Counter] = {}
        #: Registered counter families, in registration order, and each
        #: one's row by the family's ``id`` (``_families`` keeps it alive).
        self._families: List[_FamilyKeys] = []
        self._rows: Dict[int, List[int]] = {}
        #: The slot views :meth:`counter` handed out, by key text.
        self._slots: Dict[str, CounterSlot] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> InstrumentKey:
        return name, _label_key(labels)

    def counter(self, name: str, **labels: object) -> Union[Counter, CounterSlot]:
        """The counter for ``name`` + *labels*, created on first use.

        For a key of a registered family, the :class:`CounterSlot` over its
        row slot (the same one on every call); it adds no snapshot key.
        """
        key = self._key(name, labels)
        text = _KEY_TEXT[key]
        instrument = self._counters.get(text)
        if instrument is None:
            instrument = self._slots.get(text)
            if instrument is None:
                for family, index in _KEY_FAMILIES.get(text, ()):
                    row = self._rows.get(id(family))
                    if row is not None:
                        instrument = self._slots[text] = CounterSlot(row, index, family)
                        break
                else:
                    instrument = self._counters[text] = Counter(name, key[1])
        return instrument

    def counter_family(self, keys: _FamilyKeys) -> List[int]:
        """The row of the counter family *keys*, registered on first use.

        *keys* comes from :func:`family_keys` or :func:`define_family`.  The
        row is a ``list`` of ints, one slot per key in key order, and the
        same list every time the family is registered again; :meth:`reset`
        zeroes it in place.  A key already in use as a singleton counter, or
        by another registered family, is a ``ValueError``: the registry holds
        one value per key.
        """
        row = self._rows.get(id(keys))
        if row is None:
            if type(keys) is not _FamilyKeys:
                raise TypeError(
                    "counter_family takes a family from family_keys() or "
                    f"define_family(), got {type(keys).__name__}"
                )
            if self._counters and not self._counters.keys().isdisjoint(keys.texts):
                taken = sorted(keys.texts.intersection(self._counters))
                raise ValueError(
                    f"counter {taken[0]} already exists as a singleton: register "
                    "its family before asking the registry for any of its keys"
                )
            if keys.shared:
                for other in self._families:
                    if not other.texts.isdisjoint(keys.texts):
                        taken = sorted(other.texts & keys.texts)
                        raise ValueError(
                            f"counter {taken[0]} already belongs to another "
                            "registered family"
                        )
            row = self._rows[id(keys)] = [0] * len(keys)
            self._families.append(keys)
        return row

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
        that were merely *created* (a family's whole row, say) are included —
        creation order does not matter because keys are sorted.  With
        *prefix*, only instruments whose name starts with it are included
        (e.g. ``"nic."`` for one subsystem).

        The values are gathered in instrument order and put in key order by
        the layout's memoised getter (:data:`_LAYOUTS`): a registry whose
        instruments match one seen before sorts nothing.
        """
        layout_key = (
            prefix, tuple(self._rows), tuple(self._counters),
            tuple(self._gauges), tuple(self._histograms),
        )
        layout = _LAYOUTS.get(layout_key)
        if layout is None:
            layout = self._layout(layout_key)
        keys, pick, _ = layout
        if pick is None:
            return {}
        values: List[object] = []
        for row in self._rows.values():
            values += row
        for counter in self._counters.values():
            values.append(counter.value)
        for gauge in self._gauges.values():
            values.append({"high_watermark": gauge.high_watermark, "value": gauge.value})
        for histogram in self._histograms.values():
            values.append(histogram.as_dict())
        return dict(zip(keys, pick(values)))

    def _layout(self, layout_key: tuple) -> tuple:
        """Sort this registry's instruments once for their layout, and memoise it."""
        prefix = layout_key[0]
        #: Key text -> the index of its value in gathering order; a later
        #: instrument of the same text wins, as it would assigning a dict.
        position: Dict[str, int] = {}
        index = 0
        for family in self._families:
            for text, name, _ in family.entries:
                if prefix is None or name.startswith(prefix):
                    position[text] = index
                index += 1
        for instruments in (self._counters, self._gauges, self._histograms):
            for instrument in instruments.values():
                if prefix is None or instrument.name.startswith(prefix):
                    position[instrument.key] = index
                index += 1
        keys = tuple(sorted(position))
        # One extra index keeps the getter returning a tuple for one key.
        pick = itemgetter(*map(position.__getitem__, keys), 0) if keys else None
        if len(_LAYOUTS) >= _LAYOUT_LIMIT:
            del _LAYOUTS[next(iter(_LAYOUTS))]
        layout = _LAYOUTS[layout_key] = (keys, pick, tuple(self._families))
        return layout

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
        for row in self._rows.values():
            row[:] = [0] * len(row)
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
        """All instruments (tests use this for well-formedness checks).

        A family's keys come as their :class:`CounterSlot` views.
        """
        yield from self._counters.values()
        for family in self._families:
            for _, name, labels in family.entries:
                yield self.counter(name, **dict(labels))
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
