"""Dependency-free validation of Chrome trace-event JSON.

A deliberately small checker for the subset of the trace-event format this
repo emits (the JSON Object Format with a ``traceEvents`` array).  CI runs it
against the exported RPC-echo trace so a malformed exporter cannot land; the
``python -m repro.obs validate`` subcommand exposes it to humans.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.spans import TRACE_SCHEMA_VERSION, unreadable_schema_version

#: Phases this repo emits, with the extra keys each requires.
_REQUIRED_BY_PHASE: Dict[str, tuple] = {
    "X": ("ts", "dur"),
    "B": ("ts",),
    "E": ("ts",),
    "i": ("ts",),
    "s": ("ts", "id"),
    "f": ("ts", "id"),
    "M": ("name",),
}

_COMMON_REQUIRED = ("ph", "pid", "tid", "name")


def validate_chrome_trace(trace: object) -> List[str]:
    """Return a list of problems (empty == valid).

    Checks structure only — required keys per phase, numeric timestamps,
    matched flow start/finish ids, and balanced ``B``/``E`` pairs per track.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    version = unreadable_schema_version(trace)
    if version is not None:
        problems.append(
            f"schema_version {version!r} is not supported "
            f"(this validator understands version {TRACE_SCHEMA_VERSION})"
        )
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return problems + ["top level must contain a 'traceEvents' array"]

    flow_starts: Dict[object, int] = {}
    flow_ends: Dict[object, int] = {}
    open_begins: Dict[tuple, int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}]: not an object")
            continue
        for key in _COMMON_REQUIRED:
            if key not in event:
                problems.append(f"traceEvents[{index}]: missing required key {key!r}")
        phase = event.get("ph")
        if not isinstance(phase, str):
            continue
        if phase not in _REQUIRED_BY_PHASE:
            problems.append(f"traceEvents[{index}]: unknown phase {phase!r}")
            continue
        for key in _REQUIRED_BY_PHASE[phase]:
            if key not in event:
                problems.append(
                    f"traceEvents[{index}]: phase {phase!r} missing key {key!r}"
                )
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append(
                    f"traceEvents[{index}]: {key!r} must be numeric, "
                    f"got {type(event[key]).__name__}"
                )
        if phase == "s":
            flow_starts[event.get("id")] = index
        elif phase == "f":
            flow_ends[event.get("id")] = index
        elif phase == "B":
            track = (event.get("pid"), event.get("tid"))
            open_begins[track] = open_begins.get(track, 0) + 1
        elif phase == "E":
            track = (event.get("pid"), event.get("tid"))
            open_begins[track] = open_begins.get(track, 0) - 1

    for flow_id in sorted(set(flow_starts) - set(flow_ends), key=repr):
        problems.append(f"flow id {flow_id!r} started but never finished")
    for flow_id in sorted(set(flow_ends) - set(flow_starts), key=repr):
        problems.append(f"flow id {flow_id!r} finished but never started")
    for track, depth in sorted(open_begins.items(), key=repr):
        if depth != 0:
            problems.append(
                f"track pid={track[0]} tid={track[1]}: "
                f"unbalanced B/E events (depth {depth})"
            )
    return problems
