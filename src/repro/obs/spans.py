"""Sim-time span tracing with Chrome trace-event (Perfetto) export.

Spans are recorded against *simulated* time: one trace "process" per rank plus
one per NIC engine, each a Perfetto track.  Sim time maps to trace
microseconds as ``sim_time * 1000.0`` — one simulated time unit renders as one
millisecond, which keeps sub-unit latencies visible.

Event kinds emitted (Chrome trace-event ``ph`` codes):

* ``X`` — complete spans with explicit duration (the common case: a WR's
  service interval, a lock wait, a barrier wait, a drain burst);
* ``B``/``E`` — open/close pairs for spans whose end is only known later;
* ``i`` — instants (SRQ limit event, detector race signal);
* ``s``/``f`` — flow events stitching a WR's post on the origin rank to its
  retirement, across tracks;
* ``M`` — metadata naming the tracks.

The tracer is disabled by default and every recording method is a cheap no-op
then; enabling it (``RuntimeConfig.trace_spans``) must not change simulation
behaviour, only record it.  Optional wall-clock profiling attaches
``wall_ns`` arguments to spans for hot-path attribution; it is off by default
because wall time is nondeterministic and would break byte-identical traces.
"""

from __future__ import annotations

import json
import time as _time
from typing import Dict, List, Mapping, Optional, Tuple

#: One simulated time unit == this many trace microseconds.
SIM_TIME_TO_US = 1000.0

#: Version of the exported span-trace layout.  Bumped whenever the event
#: vocabulary or the ``otherData`` contract changes incompatibly, so loaders
#: (the schema validator, :class:`~repro.obs.critical_path.CriticalPathAnalyzer`)
#: fail loudly on a trace from a different era instead of misreading it.
TRACE_SCHEMA_VERSION = 1


def unreadable_schema_version(trace: Mapping[str, object]) -> Optional[object]:
    """The ``schema_version`` of an exported *trace* this code cannot read.

    ``None`` when it can: the version is current, or absent — a
    pre-versioning export, which stays readable.
    """
    version = trace.get("schema_version")
    return None if version == TRACE_SCHEMA_VERSION else version


class SpanHandle:
    """Returned by :meth:`SpanTracer.begin`; pass back to :meth:`SpanTracer.end`."""

    __slots__ = ("track", "name", "start", "args", "wall_start")

    def __init__(
        self,
        track: str,
        name: str,
        start: float,
        args: Optional[Dict[str, object]],
        wall_start: Optional[int],
    ) -> None:
        self.track = track
        self.name = name
        self.start = start
        self.args = args
        self.wall_start = wall_start


class SpanTracer:
    """Records spans/instants/flows and exports Chrome trace-event JSON."""

    def __init__(self, enabled: bool = False, wall_clock: bool = False) -> None:
        self.enabled = enabled
        self.wall_clock = wall_clock
        self._events: List[Dict[str, object]] = []
        #: First-seen track name -> deterministic (pid, tid).
        self._tracks: Dict[str, Tuple[int, int]] = {}
        self._flow_ids: Dict[object, int] = {}
        self._next_flow_id = 1
        self._open_spans: List[SpanHandle] = []

    # -- track bookkeeping -------------------------------------------------------

    def _track(self, track: str) -> Tuple[int, int]:
        ids = self._tracks.get(track)
        if ids is None:
            pid = len(self._tracks) + 1
            ids = self._tracks[track] = (pid, 1)
            self._events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 1,
                    "args": {"name": track},
                }
            )
        return ids

    def _wall(self) -> Optional[int]:
        return _time.perf_counter_ns() if self.wall_clock else None

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        track: str,
        name: str,
        sim_time: float,
        **args: object,
    ) -> Optional[SpanHandle]:
        """Open a span on *track*; close it with :meth:`end`.

        Returns ``None`` when tracing is disabled (and :meth:`end` accepts
        ``None`` as a no-op), so call sites need no enabled-guard.
        """
        if not self.enabled:
            return None
        handle = SpanHandle(track, name, sim_time, dict(args) or None, self._wall())
        self._open_spans.append(handle)
        return handle

    def end(self, handle: Optional[SpanHandle], sim_time: float) -> None:
        """Close a span opened by :meth:`begin` (no-op on ``None``)."""
        if handle is None or not self.enabled:
            return
        try:
            self._open_spans.remove(handle)
        except ValueError:  # pragma: no cover - double close; keep the event
            pass
        args = dict(handle.args or {})
        if handle.wall_start is not None:
            args["wall_ns"] = _time.perf_counter_ns() - handle.wall_start
        self.complete(
            handle.track, handle.name, handle.start, sim_time, **args
        )

    def complete(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        **args: object,
    ) -> None:
        """Record a complete (``ph: X``) span from *start* to *end* sim time."""
        if not self.enabled:
            return
        pid, tid = self._track(track)
        # Stored in *sim* time; converted to trace microseconds at export.
        # Analysis (the critical-path analyzer) reads the sim-native record,
        # so its arithmetic never round-trips through the us scaling.
        event: Dict[str, object] = {
            "ph": "X",
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": start,
            "dur": max(0.0, end - start),
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(self, track: str, name: str, sim_time: float, **args: object) -> None:
        """Record an instant (``ph: i``) event."""
        if not self.enabled:
            return
        pid, tid = self._track(track)
        event: Dict[str, object] = {
            "ph": "i",
            "s": "t",
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": sim_time,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def _flow_id(self, key: object) -> int:
        flow_id = self._flow_ids.get(key)
        if flow_id is None:
            flow_id = self._flow_ids[key] = self._next_flow_id
            self._next_flow_id += 1
        return flow_id

    def flow_start(self, track: str, name: str, sim_time: float, key: object) -> None:
        """Open a flow (``ph: s``) — e.g. a WR's post on the origin rank."""
        if not self.enabled:
            return
        pid, tid = self._track(track)
        self._events.append(
            {
                "ph": "s",
                "name": name,
                "cat": "flow",
                "id": self._flow_id(key),
                "pid": pid,
                "tid": tid,
                "ts": sim_time,
            }
        )

    def flow_end(self, track: str, name: str, sim_time: float, key: object) -> None:
        """Close a flow (``ph: f``) — e.g. the WR's retirement."""
        if not self.enabled:
            return
        pid, tid = self._track(track)
        self._events.append(
            {
                "ph": "f",
                "bp": "e",
                "name": name,
                "cat": "flow",
                "id": self._flow_id(key),
                "pid": pid,
                "tid": tid,
                "ts": sim_time,
            }
        )

    # -- introspection / export ---------------------------------------------------

    def open_spans(self) -> List[SpanHandle]:
        """Spans begun but not yet ended (tests assert this drains to [])."""
        return list(self._open_spans)

    @staticmethod
    def _to_us(event: Dict[str, object]) -> Dict[str, object]:
        """One internal (sim-time) event as its exported (microsecond) twin."""
        if "ts" not in event:
            return dict(event)
        out = dict(event)
        out["ts"] = out["ts"] * SIM_TIME_TO_US
        if "dur" in out:
            out["dur"] = out["dur"] * SIM_TIME_TO_US
        return out

    def events(self) -> List[Dict[str, object]]:
        """The recorded events in recording order, timestamps in trace us."""
        return [self._to_us(event) for event in self._events]

    def sim_events(self) -> List[Dict[str, object]]:
        """The recorded events with ``ts``/``dur`` in *sim time*.

        This is the lossless view the critical-path analyzer consumes: sim
        times never round-trip through the microsecond scaling, so interval
        arithmetic on them reproduces the simulator's own timestamps exactly.
        """
        return [dict(event) for event in self._events]

    def tracks(self) -> List[str]:
        """Track names in first-seen (deterministic) order."""
        return list(self._tracks)

    def to_chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``)."""
        return {
            "displayTimeUnit": "ms",
            "otherData": {"time_base": "simulated", "sim_time_to_us": SIM_TIME_TO_US},
            "schema_version": TRACE_SCHEMA_VERSION,
            "traceEvents": self.events(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of :meth:`to_chrome_trace`."""
        return json.dumps(self.to_chrome_trace(), indent=indent, sort_keys=True)

    def clear(self) -> None:
        """Drop all recorded events and track bindings."""
        self._events.clear()
        self._tracks.clear()
        self._flow_ids.clear()
        self._next_flow_id = 1
        self._open_spans.clear()
