"""JSON serialization of traces.

Traces are archived as plain JSON so that a debugging session can be saved,
shared and re-analysed later (the pre-compiler / wrapper implementation route
of Section V-B naturally produces such logs).  Only JSON-representable values
survive the round trip; exotic payloads are stringified.

The codec streams: :func:`trace_to_json` holds at most :data:`_BATCH` records
as dictionaries at a time, and :func:`trace_from_json` turns each record into
its :class:`MemoryAccess` / :class:`OperationRecord` / :class:`SyncEvent` as
soon as it is parsed.  Neither ever holds the whole trace as dictionaries.
"""

from __future__ import annotations

import json
import json.scanner
import re
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.trace.events import OperationRecord, SyncEvent

_JSON_SAFE = (str, int, float, bool, type(None))

#: Schema version stamped into archived traces.  Loaders accept archives
#: without the field (legacy producers) but reject a mismatching value —
#: silently misreading a future schema would corrupt a replay.
TRACE_ARCHIVE_SCHEMA_VERSION = 1

#: Records encoded per call of the JSON encoder: the writer never holds more
#: record dictionaries than this.
_BATCH = 256

#: Stands for a non-empty record section in the encoded skeleton of an
#: archive (``"\u0000"`` once encoded; no header field before the sections
#: can be that string).
_HOLE = "\0"


def _safe_value(value: object) -> object:
    """Return *value* if JSON-safe, else its ``repr``."""
    if isinstance(value, _JSON_SAFE):
        return value
    if isinstance(value, (list, tuple)) and all(isinstance(v, _JSON_SAFE) for v in value):
        return list(value)
    return repr(value)


def _address(data: Dict[str, object], cells: Optional[Dict[tuple, GlobalAddress]]) -> GlobalAddress:
    """The address *data* names: one object per cell of a load (*cells*)."""
    if cells is None:
        return GlobalAddress(int(data["rank"]), int(data["offset"]))
    key = (data["rank"], data["offset"])
    address = cells.get(key)
    if address is None:
        address = cells[key] = GlobalAddress(int(key[0]), int(key[1]))
    return address


def access_to_dict(access: MemoryAccess) -> Dict[str, object]:
    """Serialize one memory access to a JSON-safe dictionary."""
    return {
        "access_id": access.access_id,
        "rank": access.rank,
        "address": {"rank": access.address.rank, "offset": access.address.offset},
        "kind": access.kind.value,
        "value": _safe_value(access.value),
        "time": access.time,
        "symbol": access.symbol,
        "operation": access.operation,
        "observed": _safe_value(access.observed),
    }


def access_from_dict(
    data: Dict[str, object], cells: Optional[Dict[tuple, GlobalAddress]] = None
) -> MemoryAccess:
    """Inverse of :func:`access_to_dict`.

    Every field is cast here, so the record is built unchecked.  *cells*
    shares one :class:`GlobalAddress` per cell across the records of a load.
    A ``null`` field with a default reads as that default, like a missing one.
    """
    time = data.get("time")
    operation = data.get("operation")
    return MemoryAccess._build(
        access_id=int(data["access_id"]),
        rank=int(data["rank"]),
        address=_address(data["address"], cells),
        kind=AccessKind(data["kind"]),
        value=data.get("value"),
        time=0.0 if time is None else float(time),
        symbol=data.get("symbol"),
        operation="" if operation is None else str(operation),
        observed=data.get("observed"),
    )


def operation_to_dict(record: OperationRecord) -> Dict[str, object]:
    """Serialize one operation record to a JSON-safe dictionary."""
    return {
        "operation": record.operation,
        "origin": record.origin,
        "target": {"rank": record.target.rank, "offset": record.target.offset},
        "symbol": record.symbol,
        "start_time": record.start_time,
        "end_time": record.end_time,
        "data_messages": record.data_messages,
        "control_messages": record.control_messages,
        "raced": record.raced,
        "posted_time": record.posted_time,
    }


def operation_from_dict(
    data: Dict[str, object], cells: Optional[Dict[tuple, GlobalAddress]] = None
) -> OperationRecord:
    """Inverse of :func:`operation_to_dict` (*cells* as for accesses)."""
    return OperationRecord._build(
        operation=str(data["operation"]),
        origin=int(data["origin"]),
        target=_address(data["target"], cells),
        symbol=data.get("symbol"),
        start_time=float(data["start_time"]),
        end_time=float(data["end_time"]),
        data_messages=int(data["data_messages"]),
        control_messages=int(data["control_messages"]),
        raced=bool(data["raced"]),
        posted_time=(
            float(data["posted_time"]) if data.get("posted_time") is not None else None
        ),
    )


def sync_to_dict(sync: SyncEvent) -> Dict[str, object]:
    """Serialize one synchronization event."""
    return {
        "sync_id": sync.sync_id,
        "time": sync.time,
        "participants": list(sync.participants),
        "kind": sync.kind,
        "clock": list(sync.clock) if sync.clock is not None else None,
    }


def sync_from_dict(data: Dict[str, object]) -> SyncEvent:
    """Inverse of :func:`sync_to_dict` (a ``null`` kind reads as a barrier)."""
    kind = data.get("kind")
    clock = data.get("clock")
    return SyncEvent._build(
        sync_id=int(data["sync_id"]),
        time=float(data["time"]),
        participants=tuple(int(r) for r in data["participants"]),
        kind="barrier" if kind is None else str(kind),
        clock=tuple(int(c) for c in clock) if clock is not None else None,
    )


def trace_to_json(
    world_size: int,
    accesses: List[MemoryAccess],
    operations: Optional[List[OperationRecord]] = None,
    syncs: Optional[List[SyncEvent]] = None,
    indent: Optional[int] = None,
    run_info: Optional[Dict[str, object]] = None,
) -> str:
    """Serialize a whole trace to a JSON string.

    *run_info* archives the producing run's provenance (clock transport,
    wire format, CQ moderation, ...) in the header; it is optional and
    ignored by the replayer — recorded clocks are knob-independent, which
    is exactly why replay reproduces the online report for every knob
    setting.

    The text is ``json.dumps`` of the archive's payload dictionary with
    *indent*, byte for byte, but the payload is never built: its skeleton is
    encoded with a hole in each non-empty section, and each hole is filled
    with the section's records, :data:`_BATCH` at a time, encoded at the
    same depth and joined with the encoder's own separator.
    """
    encode = json.JSONEncoder(indent=indent).encode
    skeleton: Dict[str, object] = {
        "format": "repro-dsm-trace",
        "version": 1,
        "schema_version": TRACE_ARCHIVE_SCHEMA_VERSION,
        "world_size": world_size,
    }
    filled = []
    for name, records, to_dict in (
        ("accesses", accesses, access_to_dict),
        ("operations", operations, operation_to_dict),
        ("syncs", syncs, sync_to_dict),
    ):
        skeleton[name] = [_HOLE] if records else []
        if records:
            filled.append((records, to_dict))
    if run_info:
        skeleton["run_info"] = {key: _safe_value(value) for key, value in run_info.items()}
    # The sections precede run_info, so the first holes are theirs.
    frames = encode(skeleton).split(encode(_HOLE), len(filled))
    # A list two levels deep, like a section: where its first item starts,
    # what separates two items, and how many characters close it.
    probe = encode([[0, 0]])
    start, end = probe.index("0"), probe.rindex("0") + 1
    separator, closing = probe[start + 1 : end - 1], len(probe) - end
    pieces = [frames[0]]
    for (records, to_dict), frame in zip(filled, frames[1:]):
        for first in range(0, len(records), _BATCH):
            batch = encode([[to_dict(record) for record in records[first : first + _BATCH]]])
            if first:
                pieces.append(separator)
            pieces.append(batch[start : len(batch) - closing])
        pieces.append(frame)
    return "".join(pieces)


def _read_header(payload: object) -> int:
    """The archive's one header check; returns the world size.

    Checks the format marker and both version fields (``version`` is
    required; ``schema_version`` may be absent, for legacy producers, but not
    different) and reads ``world_size``, refusing each by name.
    """
    if not isinstance(payload, dict):
        raise ValueError("not a repro DSM trace (no format: the document is not a JSON object)")
    if payload.get("format") != "repro-dsm-trace":
        raise ValueError(f"not a repro DSM trace (format={payload.get('format')!r})")
    version = payload.get("version")
    try:
        readable = int(version) == 1
    except (TypeError, ValueError):
        readable = False
    if not readable:
        raise ValueError(f"unsupported trace version {version!r}")
    schema_version = payload.get("schema_version")
    if schema_version is not None and schema_version != TRACE_ARCHIVE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema_version {schema_version!r} "
            f"(this loader reads version {TRACE_ARCHIVE_SCHEMA_VERSION})"
        )
    world_size = payload.get("world_size")
    try:
        return int(world_size)
    except (TypeError, ValueError):
        raise ValueError(f"unreadable trace world_size {world_size!r}") from None


#: The C scanner of ``json.loads``: parses one JSON value at an index and
#: returns ``(value, end)``, or raises ``StopIteration`` if none starts there.
_SCAN_ONCE = json.scanner.make_scanner(json.JSONDecoder())
_OPEN_OBJECT = re.compile(r"[ \t\n\r]*\{[ \t\n\r]*")
_OPEN_ARRAY = re.compile(r"\[[ \t\n\r]*")
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")
_CLOSE_ARRAY = re.compile(r"[ \t\n\r]*\]")
_CLOSE_OBJECT = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*")


def _skip(pattern: "re.Pattern[str]", text: str, index: int) -> int:
    """Where *pattern*, which must match at *index*, ends."""
    match = pattern.match(text, index)
    if match is None:
        raise StopIteration(index)
    return match.end()


def _scan(text: str) -> Tuple[Dict[str, object], Dict[str, list]]:
    """Read the archive's top-level object member by member.

    Header members are parsed whole.  A section is read one record at a
    time, each converted as soon as it is parsed, so at most one record is
    ever a dictionary; only an element of a top-level section is a record.
    Raises ``ValueError`` where the text is not JSON of that shape, and the
    converters' errors for a record they cannot read.
    """
    cells: Dict[tuple, GlobalAddress] = {}
    readers = {
        "accesses": partial(access_from_dict, cells=cells),
        "operations": partial(operation_from_dict, cells=cells),
        "syncs": sync_from_dict,
    }
    header: Dict[str, object] = {}
    sections: Dict[str, list] = {name: [] for name in readers}
    scan = _SCAN_ONCE
    try:
        index = _skip(_OPEN_OBJECT, text, 0)
        more = not text.startswith("}", index)
        while more:
            if not text.startswith('"', index):
                raise StopIteration(index)
            key, index = scan(text, index)
            index = _skip(_COLON, text, index)
            read = readers.get(key)
            if read is None:
                header[key], index = scan(text, index)
            else:
                if not text.startswith("[", index):
                    raise ValueError(f"trace field {key!r} is not a list")
                rows = sections[key] = []
                index = _skip(_OPEN_ARRAY, text, index)
                more = not text.startswith("]", index)
                while more:
                    data, index = scan(text, index)
                    rows.append(read(data))
                    comma = _COMMA.match(text, index)
                    more = comma is not None
                    if more:
                        index = comma.end()
                index = _skip(_CLOSE_ARRAY, text, index)
            comma = _COMMA.match(text, index)
            more = comma is not None
            if more:
                index = comma.end()
        if _CLOSE_OBJECT.fullmatch(text, index) is None:
            raise StopIteration(index)
    except StopIteration as stop:
        raise ValueError(f"malformed trace archive at character {stop.value}") from None
    return header, sections


def trace_from_json(
    text: str,
) -> Tuple[int, List[MemoryAccess], List[OperationRecord], List[SyncEvent]]:
    """Parse a JSON trace; returns ``(world_size, accesses, operations, syncs)``.

    The optional ``run_info`` header survives in the raw JSON for
    provenance tooling but is not part of the replay inputs.  *text* may be
    ``bytes``, decoded as ``json.loads`` decodes them.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    try:
        header, sections = _scan(text)
    except (ValueError, TypeError, LookupError, AttributeError):
        # Fail as a whole-document parse would: on a syntax error first, then
        # on a document that is not a readable trace, only then on a record.
        _read_header(json.loads(text))
        raise
    world_size = _read_header(header)
    return world_size, sections["accesses"], sections["operations"], sections["syncs"]
