"""JSON serialization of traces.

Traces are archived as plain JSON so that a debugging session can be saved,
shared and re-analysed later (the pre-compiler / wrapper implementation route
of Section V-B naturally produces such logs).  Only JSON-representable values
survive the round trip; exotic payloads are stringified.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.trace.events import OperationRecord, SyncEvent

_JSON_SAFE = (str, int, float, bool, type(None))

#: Schema version stamped into archived traces.  Loaders accept archives
#: without the field (legacy producers) but reject a mismatching value —
#: silently misreading a future schema would corrupt a replay.
TRACE_ARCHIVE_SCHEMA_VERSION = 1


def _safe_value(value: object) -> object:
    """Return *value* if JSON-safe, else its ``repr``."""
    if isinstance(value, _JSON_SAFE):
        return value
    if isinstance(value, (list, tuple)) and all(isinstance(v, _JSON_SAFE) for v in value):
        return list(value)
    return repr(value)


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


def access_from_dict(data: Dict[str, object]) -> MemoryAccess:
    """Inverse of :func:`access_to_dict`."""
    address = data["address"]
    return MemoryAccess(
        access_id=int(data["access_id"]),
        rank=int(data["rank"]),
        address=GlobalAddress(int(address["rank"]), int(address["offset"])),
        kind=AccessKind(data["kind"]),
        value=data.get("value"),
        time=float(data.get("time", 0.0)),
        symbol=data.get("symbol"),
        operation=str(data.get("operation", "")),
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


def operation_from_dict(data: Dict[str, object]) -> OperationRecord:
    """Inverse of :func:`operation_to_dict`."""
    target = data["target"]
    return OperationRecord(
        operation=str(data["operation"]),
        origin=int(data["origin"]),
        target=GlobalAddress(int(target["rank"]), int(target["offset"])),
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
    """Inverse of :func:`sync_to_dict`."""
    clock = data.get("clock")
    return SyncEvent(
        sync_id=int(data["sync_id"]),
        time=float(data["time"]),
        participants=tuple(int(r) for r in data["participants"]),
        kind=str(data.get("kind", "barrier")),
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
    """
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


def _require_readable(payload: Dict[str, object]) -> None:
    """The archive's one version check: format marker and both version fields.

    ``version`` is required; ``schema_version`` may be absent (legacy
    producers) but not different.
    """
    if payload.get("format") != "repro-dsm-trace":
        raise ValueError(
            f"not a repro DSM trace (format={payload.get('format')!r})"
        )
    if int(payload.get("version", 0)) != 1:
        raise ValueError(f"unsupported trace version {payload.get('version')!r}")
    schema_version = payload.get("schema_version")
    if schema_version is not None and schema_version != TRACE_ARCHIVE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema_version {schema_version!r} "
            f"(this loader reads version {TRACE_ARCHIVE_SCHEMA_VERSION})"
        )


def trace_from_json(
    text: str,
) -> Tuple[int, List[MemoryAccess], List[OperationRecord], List[SyncEvent]]:
    """Parse a JSON trace; returns ``(world_size, accesses, operations, syncs)``.

    The optional ``run_info`` header survives in the raw JSON for
    provenance tooling but is not part of the replay inputs.
    """
    payload = json.loads(text)
    _require_readable(payload)
    accesses = [access_from_dict(a) for a in payload.get("accesses", [])]
    operations = [operation_from_dict(o) for o in payload.get("operations", [])]
    syncs = [sync_from_dict(s) for s in payload.get("syncs", [])]
    return int(payload["world_size"]), accesses, operations, syncs
