"""Every trace event kind must survive JSON serialization unchanged.

The serialization format is the archival interface of the pre-compiler
deployment route (paper, Section V-B): a saved debugging session replayed
later must reconstruct exactly the happens-before the online system saw.
These tests enumerate the event kinds *from the enums themselves*, so adding
a new ``AccessKind`` / operation / sync kind without serialization support
fails here rather than silently corrupting archives.
"""

import json

import pytest

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.trace.events import OperationRecord, SyncEvent
from repro.trace.serialization import (
    access_from_dict,
    access_to_dict,
    operation_from_dict,
    operation_to_dict,
    sync_from_dict,
    sync_to_dict,
    trace_from_json,
    trace_to_json,
)

#: Every high-level operation the NIC and runtime can record today.
OPERATIONS = [
    "put",
    "get",
    "local_read",
    "local_write",
    "fetch_add",
    "compare_and_swap",
    "send",
    "collective",
]


class TestAccessRoundTrip:
    @pytest.mark.parametrize("kind", list(AccessKind), ids=lambda k: k.value)
    def test_every_access_kind_round_trips(self, kind):
        access = MemoryAccess(
            access_id=7,
            rank=2,
            address=GlobalAddress(1, 5),
            kind=kind,
            value=41,
            time=3.25,
            symbol="x",
            operation="fetch_add" if kind is AccessKind.RMW else "put",
            observed=40 if kind is AccessKind.RMW else None,
        )
        assert access_from_dict(access_to_dict(access)) == access

    def test_rmw_observed_value_survives(self):
        access = MemoryAccess(
            access_id=1,
            rank=0,
            address=GlobalAddress(0, 0),
            kind=AccessKind.RMW,
            value=6,
            observed=5,
            operation="compare_and_swap",
        )
        decoded = access_from_dict(access_to_dict(access))
        assert decoded.observed == 5 and decoded.value == 6

    def test_legacy_access_dict_without_observed_decodes(self):
        data = access_to_dict(
            MemoryAccess(0, 0, GlobalAddress(0, 0), AccessKind.READ, value=1)
        )
        del data["observed"]  # a version-1 trace written before the RMW era
        assert access_from_dict(data).observed is None


class TestOperationRoundTrip:
    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("posted", [None, 0.5], ids=["blocking", "posted"])
    def test_every_operation_round_trips(self, operation, posted):
        record = OperationRecord(
            operation=operation,
            origin=1,
            target=GlobalAddress(2, 9),
            symbol="y",
            start_time=1.0,
            end_time=2.5,
            data_messages=2,
            control_messages=3,
            raced=True,
            posted_time=posted,
        )
        decoded = operation_from_dict(operation_to_dict(record))
        assert decoded == record
        assert decoded.was_posted == (posted is not None)

    def test_legacy_operation_dict_without_posted_time_decodes(self):
        data = operation_to_dict(
            OperationRecord("put", 0, GlobalAddress(0, 0), None, 0.0, 1.0, 1, 0, False)
        )
        del data["posted_time"]
        assert operation_from_dict(data).posted_time is None


class TestSyncRoundTrip:
    @pytest.mark.parametrize("kind", ["barrier", "join", "notify"])
    def test_sync_kinds_round_trip(self, kind):
        sync = SyncEvent(sync_id=4, time=7.5, participants=(0, 1, 3), kind=kind)
        assert sync_from_dict(sync_to_dict(sync)) == sync

    @pytest.mark.parametrize("kind", [
        "send_post", "recv_post", "transfer", "recv_complete",
        "wr_post", "wr_transfer", "wr_retire",
    ])
    def test_directional_kinds_round_trip(self, kind):
        """The two-sided AND posted one-sided kinds: participant ORDER and
        the carried clock are semantic (direction of the happens-before
        edge) and must survive."""
        sync = SyncEvent(
            sync_id=9, time=2.5, participants=(2, 0), kind=kind,
            clock=(
                (3, 0, 1)
                if kind in ("transfer", "recv_complete", "wr_transfer", "wr_retire")
                else None
            ),
        )
        decoded = sync_from_dict(sync_to_dict(sync))
        assert decoded == sync
        assert decoded.participants == (2, 0)  # not sorted

    def test_legacy_sync_dict_without_clock_decodes(self):
        data = sync_to_dict(SyncEvent(0, 0.0, (0, 1), kind="barrier"))
        del data["clock"]  # a version-1 trace written before the SEND era
        assert sync_from_dict(data).clock is None


class TestNullReadsAsMissing:
    """A JSON ``null`` in a field with a default loads as that default,
    exactly as if the key were missing — never as the string ``"None"``."""

    def _access_dict(self):
        return access_to_dict(
            MemoryAccess(0, 0, GlobalAddress(1, 0), AccessKind.WRITE, time=2.0, operation="put")
        )

    @pytest.mark.parametrize("field, default", [("operation", ""), ("time", 0.0)])
    def test_an_access_field(self, field, default):
        null, missing = self._access_dict(), self._access_dict()
        null[field] = None
        del missing[field]
        assert getattr(access_from_dict(null), field) == default
        assert access_from_dict(null) == access_from_dict(missing)

    def test_a_sync_kind(self):
        null = sync_to_dict(SyncEvent(0, 1.0, (0, 1), kind="barrier"))
        missing = dict(null)
        null["kind"] = None
        del missing["kind"]
        assert sync_from_dict(null).kind == "barrier"
        assert sync_from_dict(null) == sync_from_dict(missing)

    def test_a_null_kind_sync_replays_as_the_barrier_a_missing_kind_is(self):
        """Two writes to one cell, ordered only by the sync between them."""
        from repro.trace.replay import TraceReplayer

        cell = GlobalAddress(1, 0)
        accesses = [
            MemoryAccess(0, 0, cell, AccessKind.WRITE, value=1, time=1.0, operation="put"),
            MemoryAccess(1, 2, cell, AccessKind.WRITE, value=2, time=3.0, operation="put"),
        ]
        text = trace_to_json(3, accesses, syncs=[SyncEvent(0, 2.0, (0, 1, 2))])
        races = []
        for kind in ("barrier", None, ...):
            payload = json.loads(text)
            if kind is ...:
                del payload["syncs"][0]["kind"]
            else:
                payload["syncs"][0]["kind"] = kind
            world, loaded, _operations, syncs = trace_from_json(json.dumps(payload))
            races.append(TraceReplayer(world).replay(loaded, syncs).race_count)
        assert races == [0, 0, 0]

    def test_through_a_whole_archive(self):
        access = self._access_dict()
        access["operation"] = None
        text = trace_to_json(2, [], syncs=[SyncEvent(0, 0.0, (0, 1))])
        payload = json.loads(text)
        payload["accesses"] = [access]
        payload["syncs"][0]["kind"] = None
        _world, accesses, _operations, syncs = trace_from_json(json.dumps(payload))
        assert accesses[0].operation == ""
        assert syncs[0].kind == "barrier"


class TestWholeTraceRoundTrip:
    def test_recorded_verbs_run_round_trips_exactly(self):
        """A real run exercising every access kind archives losslessly."""
        runtime = DSMRuntime(RuntimeConfig(world_size=3, latency="uniform"))
        runtime.declare_scalar("c", owner=1, initial=0)
        runtime.declare_array("a", 4, owner=1, initial=0)

        def program(api):
            api.iput("a", api.rank, index=api.rank)       # posted put
            yield from api.fetch_add("c", 1)              # RMW (remote or local)
            yield from api.wait_all()
            yield from api.barrier()                      # sync event
            value = yield from api.get("a", index=0)      # read
            old = yield from api.compare_and_swap("c", 3, 30)
            api.private.write("seen", (value, old))

        runtime.set_spmd_program(program)
        runtime.run()

        accesses = runtime.recorder.accesses()
        operations = runtime.recorder.operations()
        syncs = runtime.recorder.syncs()
        # The run really covered every access kind and the posted path —
        # including the clock-transport sync triple of posted one-sided work.
        assert {a.kind for a in accesses} == set(AccessKind)
        assert any(op.was_posted for op in operations)
        assert syncs
        assert {"wr_post", "wr_transfer", "wr_retire"} <= {s.kind for s in syncs}
        assert any(
            s.clock is not None for s in syncs if s.kind in ("wr_transfer", "wr_retire")
        )

        text = trace_to_json(3, accesses, operations, syncs, indent=2)
        world, accesses2, operations2, syncs2 = trace_from_json(text)
        assert world == 3
        assert accesses2 == accesses
        assert operations2 == operations
        assert syncs2 == syncs
        # And a second encode is byte-identical (stable archival format).
        assert trace_to_json(3, accesses2, operations2, syncs2, indent=2) == text

    def test_recorded_send_recv_run_round_trips_exactly(self):
        """A two-sided run covers the directional sync kinds losslessly."""
        runtime = DSMRuntime(RuntimeConfig(world_size=2, latency="uniform"))
        runtime.declare_array("inbox", 2, owner=1, initial=0)

        def sender(api):
            yield from api.wait(api.isend(1, [4, 5], symbol="inbox"))

        def receiver(api):
            api.irecv(0, "inbox", indices=range(2))
            yield from api.wait_recv(1)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        runtime.run()
        syncs = runtime.recorder.syncs()
        kinds = {sync.kind for sync in syncs}
        assert {"send_post", "recv_post", "transfer", "recv_complete"} <= kinds
        assert any(sync.clock is not None for sync in syncs)
        accesses = runtime.recorder.accesses()
        operations = runtime.recorder.operations()
        assert any(access.operation == "send" for access in accesses)
        text = trace_to_json(2, accesses, operations, syncs, indent=2)
        world, accesses2, operations2, syncs2 = trace_from_json(text)
        assert (world, accesses2, operations2, syncs2) == (
            2, accesses, operations, syncs
        )
