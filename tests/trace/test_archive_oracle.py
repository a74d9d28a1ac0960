"""The streaming trace codec against the whole-payload codec it replaced.

``trace_to_json`` never builds the archive's payload dictionary: it encodes a
skeleton with holes and fills each hole with records encoded ``_BATCH`` at a
time.  ``trace_from_json`` converts each record as it is parsed.  The format
and its bytes did not change, so the old codec — ``json.dumps`` of the whole
payload, ``json.loads`` of the whole text — is kept here as the oracle, and
the property below holds the new one to it byte for byte.

Traces cross a batch boundary (up to ``2 * _BATCH + 1`` records a section,
and the explicit examples sit on the boundary), so a batch separator or an
indent frame that is off by one character fails the byte comparison.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.trace.events import OperationRecord, SyncEvent
from repro.trace.serialization import (
    TRACE_ARCHIVE_SCHEMA_VERSION,
    _BATCH,
    _safe_value,
    access_to_dict,
    operation_to_dict,
    sync_to_dict,
    trace_from_json,
    trace_to_json,
)


def reference_trace_to_json(
    world_size, accesses, operations=None, syncs=None, indent=None, run_info=None
):
    """The writer as it was: the whole payload as dictionaries, one dump."""
    payload = {
        "format": "repro-dsm-trace",
        "version": 1,
        "schema_version": TRACE_ARCHIVE_SCHEMA_VERSION,
        "world_size": world_size,
        "accesses": [access_to_dict(a) for a in accesses],
        "operations": [operation_to_dict(o) for o in (operations or [])],
        "syncs": [sync_to_dict(s) for s in (syncs or [])],
    }
    if run_info:
        payload["run_info"] = {key: _safe_value(value) for key, value in run_info.items()}
    return json.dumps(payload, indent=indent)


def reference_trace_from_json(text):
    """The reader as it was, for an archive the writer wrote."""
    payload = json.loads(text)
    accesses = [
        MemoryAccess(
            access_id=int(a["access_id"]),
            rank=int(a["rank"]),
            address=GlobalAddress(int(a["address"]["rank"]), int(a["address"]["offset"])),
            kind=AccessKind(a["kind"]),
            value=a.get("value"),
            time=float(a.get("time", 0.0)),
            symbol=a.get("symbol"),
            operation=str(a.get("operation", "")),
            observed=a.get("observed"),
        )
        for a in payload.get("accesses", [])
    ]
    operations = [
        OperationRecord(
            operation=str(o["operation"]),
            origin=int(o["origin"]),
            target=GlobalAddress(int(o["target"]["rank"]), int(o["target"]["offset"])),
            symbol=o.get("symbol"),
            start_time=float(o["start_time"]),
            end_time=float(o["end_time"]),
            data_messages=int(o["data_messages"]),
            control_messages=int(o["control_messages"]),
            raced=bool(o["raced"]),
            posted_time=(
                float(o["posted_time"]) if o.get("posted_time") is not None else None
            ),
        )
        for o in payload.get("operations", [])
    ]
    syncs = [
        SyncEvent(
            sync_id=int(s["sync_id"]),
            time=float(s["time"]),
            participants=tuple(int(r) for r in s["participants"]),
            kind=str(s.get("kind", "barrier")),
            clock=tuple(int(c) for c in s["clock"]) if s.get("clock") is not None else None,
        )
        for s in payload.get("syncs", [])
    ]
    return int(payload["world_size"]), accesses, operations, syncs


def first_difference(text, expected):
    """``None``, or where *text* leaves *expected* and the 40 characters
    from there on each side (a short report: ``==`` on archives makes
    pytest diff the whole texts)."""
    if text == expected:
        return None
    at = next(
        (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
        min(len(text), len(expected)),
    )
    return at, text[at : at + 40], expected[at : at + 40]


ranks = st.integers(0, 7)
times = st.floats(allow_nan=False, allow_infinity=False, width=32)
#: ``st.text()`` draws non-ASCII and control characters, ``"\0"`` included.
symbols = st.none() | st.text(max_size=6)
json_safe = st.none() | st.booleans() | st.integers(-(2**40), 2**40) | times | st.text(max_size=4)
values = (
    json_safe
    | st.tuples(json_safe, json_safe)  # a tuple comes back as a list
    | st.frozensets(st.integers(0, 3), max_size=3)  # stringified
)
addresses = st.builds(GlobalAddress, ranks, st.integers(0, 63))

accesses = st.builds(
    MemoryAccess,
    access_id=st.integers(0, 10**6),
    rank=ranks,
    address=addresses,
    kind=st.sampled_from(list(AccessKind)),
    value=values,
    time=times,
    symbol=symbols,
    operation=st.text(max_size=8),
    observed=values,
)
operations = st.builds(
    OperationRecord,
    operation=st.sampled_from(["put", "get", "fetch_add", "compare_and_swap", "send"]),
    origin=ranks,
    target=addresses,
    symbol=symbols,
    start_time=times,
    end_time=times,
    data_messages=st.integers(0, 4),
    control_messages=st.integers(0, 4),
    raced=st.booleans(),
    posted_time=st.none() | times,
)
syncs = st.builds(
    SyncEvent,
    sync_id=st.integers(0, 10**4),
    time=times,
    participants=st.lists(ranks, min_size=1, max_size=4).map(tuple),
    kind=st.sampled_from(["barrier", "transfer", "recv_complete", "wr_retire"]),
    clock=st.none() | st.lists(st.integers(0, 99), min_size=1, max_size=4).map(tuple),
)


def section(records):
    """A few distinct records repeated to a length that may cross batches."""
    return st.tuples(st.lists(records, min_size=1, max_size=4), st.integers(0, 2 * _BATCH + 1)).map(
        lambda drawn: [drawn[0][i % len(drawn[0])] for i in range(drawn[1])]
    )


run_infos = st.none() | st.dictionaries(st.text(max_size=5), values, max_size=3)


def _boundary(world_size, length, indent, run_info):
    """A trace whose sections end on a batch boundary and one past it (or
    are empty and hold one record, for *length* 0)."""
    access = MemoryAccess(0, 1, GlobalAddress(1, 2), AccessKind.RMW, value={1}, observed=(0, "é"))
    sync = SyncEvent(0, 1.5, (0, 1), kind="wr_retire", clock=(2, 3))
    return example(
        world_size=world_size,
        accesses=[access] * length,
        operations=[],
        syncs=[sync] * (length + 1),
        indent=indent,
        run_info=run_info,
    )


@settings(max_examples=40, deadline=None)
@given(
    world_size=st.integers(1, 8),
    accesses=section(accesses),
    operations=section(operations),
    syncs=section(syncs),
    indent=st.sampled_from([None, 2]),
    run_info=run_infos,
)
@_boundary(4, _BATCH, None, {"clock_wire": "delta"})
@_boundary(4, _BATCH, 2, {"nul": "\0", "set": {1}})
@_boundary(2, 2 * _BATCH + 1, 2, None)
@_boundary(1, 0, 2, {"t": (1, 2)})
@example(world_size=1, accesses=[], operations=[], syncs=[], indent=None, run_info=None)
@example(world_size=1, accesses=[], operations=[], syncs=[], indent=2, run_info={"k": None})
def test_streaming_codec_matches_the_whole_payload_codec(
    world_size, accesses, operations, syncs, indent, run_info
):
    text = trace_to_json(world_size, accesses, operations, syncs, indent=indent, run_info=run_info)
    expected = reference_trace_to_json(
        world_size, accesses, operations, syncs, indent=indent, run_info=run_info
    )
    assert first_difference(text, expected) is None
    assert trace_from_json(text) == reference_trace_from_json(text)


def test_one_address_object_per_cell_per_load():
    access = MemoryAccess(0, 1, GlobalAddress(1, 2), AccessKind.WRITE)
    operation = OperationRecord("put", 1, GlobalAddress(1, 2), None, 0.0, 1.0, 1, 0, False)
    _world, loaded, operations, _syncs = trace_from_json(
        trace_to_json(2, [access, access], [operation])
    )
    assert loaded[0].address is loaded[1].address is operations[0].target
    assert loaded[0].address == GlobalAddress(1, 2)
