"""Unit tests for trace recording, serialization and replay."""

import json

import pytest

from repro.core.detector import DetectorConfig
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.net.nic import RemoteOperationResult
from repro.trace.events import OperationRecord, SyncEvent, summarize
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import TraceReplayer
from repro.trace.serialization import (
    access_from_dict,
    access_to_dict,
    trace_from_json,
    trace_to_json,
)


def record_some_accesses(recorder):
    a = GlobalAddress(1, 0)
    b = GlobalAddress(2, 3)
    recorder.record_access(0, a, AccessKind.WRITE, value=1, time=1.0, symbol="x", operation="put")
    recorder.record_access(2, a, AccessKind.READ, value=1, time=2.0, symbol="x", operation="get")
    recorder.record_access(0, b, AccessKind.WRITE, value=9, time=3.0, symbol="y", operation="put")
    recorder.record_access(0, b, AccessKind.WRITE, value=10, time=4.0, symbol="y", operation="local_write")
    return a, b


class TestTraceRecorder:
    def test_access_ids_are_unique_and_increasing(self):
        recorder = TraceRecorder(world_size=3)
        record_some_accesses(recorder)
        ids = [a.access_id for a in recorder.accesses()]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_filters(self):
        recorder = TraceRecorder(3)
        a, b = record_some_accesses(recorder)
        assert len(recorder.accesses(rank=0)) == 3
        assert len(recorder.accesses(address=a)) == 2
        assert len(recorder.accesses(symbol="y")) == 2
        assert len(recorder.accesses(kind=AccessKind.READ)) == 1

    def test_conflicting_pairs_need_a_write_and_same_cell(self):
        recorder = TraceRecorder(3)
        record_some_accesses(recorder)
        pairs = recorder.conflicting_pairs()
        # (write,read) on a, (write,write) on b.
        assert len(pairs) == 2

    def test_operation_records(self):
        recorder = TraceRecorder(3)
        result = RemoteOperationResult(
            operation="put", origin=0, target=GlobalAddress(1, 0), value=5,
            check=None, start_time=1.0, end_time=4.0, data_messages=1, control_messages=2,
        )
        record = recorder.record_operation(result, symbol="x")
        assert record.elapsed == 3.0
        assert recorder.operations("put") == [record]
        assert recorder.operations("get") == []

    def test_summary_counts(self):
        recorder = TraceRecorder(3)
        record_some_accesses(recorder)
        summary = recorder.summary()
        assert summary.accesses == 4
        assert summary.writes == 3 and summary.reads == 1
        assert summary.cells_touched == 2
        assert summary.local_accesses == 1
        assert summary.per_rank_accesses == {0: 3, 2: 1}
        assert summary.duration == 3.0
        assert summary.as_dict()["accesses"] == 4

    def test_clear(self):
        recorder = TraceRecorder(3)
        record_some_accesses(recorder)
        recorder.clear()
        assert len(recorder) == 0


class TestSerialization:
    def test_access_round_trip(self):
        recorder = TraceRecorder(3)
        record_some_accesses(recorder)
        for access in recorder.accesses():
            assert access_from_dict(access_to_dict(access)) == access

    def test_trace_round_trip(self):
        recorder = TraceRecorder(3)
        record_some_accesses(recorder)
        recorder.record_sync([0, 1, 2], time=5.0)
        text = trace_to_json(
            3, recorder.accesses(), recorder.operations(), recorder.syncs(), indent=2
        )
        world, accesses, operations, syncs = trace_from_json(text)
        assert world == 3
        assert accesses == recorder.accesses()
        assert operations == []
        assert syncs == recorder.syncs()

    def test_non_json_values_are_stringified(self):
        recorder = TraceRecorder(2)
        recorder.record_access(0, GlobalAddress(0, 0), AccessKind.WRITE, value={"a", "b"})
        text = trace_to_json(2, recorder.accesses())
        _world, accesses, _ops, _syncs = trace_from_json(text)
        assert isinstance(accesses[0].value, str)

    def test_format_guard(self):
        with pytest.raises(ValueError):
            trace_from_json('{"format": "something-else"}')
        with pytest.raises(ValueError):
            trace_from_json('{"format": "repro-dsm-trace", "version": 99}')


def _archive(**members):
    """A one-access archive as a payload dictionary, with *members* set
    (``None`` values written as JSON ``null``) or, for ``...``, removed."""
    access = MemoryAccess(0, 0, GlobalAddress(1, 0), AccessKind.WRITE, value=1)
    payload = json.loads(trace_to_json(2, [access]))
    for key, value in members.items():
        if value is ...:
            del payload[key]
        else:
            payload[key] = value
    return payload


class TestLoaderRefusesByName:
    """Each header check fails with a ``ValueError`` naming its field, and a
    document that is not a trace is refused as such, whatever it holds."""

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "3", '"trace"', "null"])
    def test_a_document_that_is_not_an_object_has_no_format(self, text):
        with pytest.raises(ValueError, match="format"):
            trace_from_json(text)

    @pytest.mark.parametrize("version", [None, ..., "one", [1]])
    def test_an_unreadable_version_is_refused_by_name(self, version):
        with pytest.raises(ValueError, match="version"):
            trace_from_json(json.dumps(_archive(version=version)))

    @pytest.mark.parametrize("world_size", [..., None, "four"])
    def test_an_unreadable_world_size_is_refused_by_name(self, world_size):
        with pytest.raises(ValueError, match="world_size"):
            trace_from_json(json.dumps(_archive(world_size=world_size)))

    @pytest.mark.parametrize(
        "text",
        [
            '{"accesses": [{"access_id": 1}]}',
            '{"accesses": [{"access_id": "x", "rank": []}], "format": "other"}',
            '{"run_info": {"access_id": 1}, "syncs": [{"sync_id": null}]}',
            '{"data": [{"access_id": 1, "rank": 0}]}',
        ],
    )
    def test_a_non_trace_document_is_refused_as_such(self, text):
        with pytest.raises(ValueError, match="not a repro DSM trace"):
            trace_from_json(text)

    def test_a_header_after_the_records_is_still_read(self):
        payload = _archive()
        reordered = {key: payload[key] for key in reversed(list(payload))}
        assert trace_from_json(json.dumps(reordered)) == trace_from_json(json.dumps(payload))

    def test_a_section_that_is_not_a_list_is_refused_by_name(self):
        with pytest.raises(ValueError, match="'syncs'"):
            trace_from_json(json.dumps(_archive(syncs={"sync_id": 0})))

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(_archive())[:-3],
            json.dumps(_archive()) + " {}",
            json.dumps(_archive()).replace('"accesses":', '"accesses"'),
            json.dumps(_archive()).replace("]", "}", 1),
        ],
    )
    def test_a_syntax_error_is_reported_as_the_json_parser_reports_it(self, text):
        with pytest.raises(json.JSONDecodeError) as raised:
            trace_from_json(text)
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_bytes_load_as_json_loads_decodes_them(self, encoding):
        text = trace_to_json(2, [MemoryAccess(0, 0, GlobalAddress(1, 0), AccessKind.READ, symbol="é")])
        assert trace_from_json(text.encode(encoding)) == trace_from_json(text)

    def test_a_value_that_is_an_object_is_never_read_as_a_record(self):
        record = access_to_dict(MemoryAccess(3, 1, GlobalAddress(0, 2), AccessKind.READ))
        payload = _archive(run_info={"access_id": 7, "sync_id": 8})
        payload["accesses"][0]["value"] = record
        payload["accesses"][0]["observed"] = {"rank": 0, "offset": 2}
        _world, accesses, _operations, _syncs = trace_from_json(json.dumps(payload))
        assert accesses[0].value == record
        assert accesses[0].observed == {"rank": 0, "offset": 2}


class TestReplay:
    def test_replay_flags_unordered_writes(self):
        recorder = TraceRecorder(3)
        a = GlobalAddress(1, 0)
        recorder.record_access(0, a, AccessKind.WRITE, value=1, time=1.0, symbol="a", operation="put")
        recorder.record_access(2, a, AccessKind.WRITE, value=2, time=2.0, symbol="a", operation="put")
        outcome = TraceReplayer(3).replay(recorder.accesses())
        assert outcome.race_count == 1
        assert outcome.races[0].symbol == "a"
        assert outcome.accesses_replayed == 2
        assert outcome.cells_touched == 1

    def test_replay_is_silent_for_single_writer(self):
        recorder = TraceRecorder(2)
        a = GlobalAddress(1, 0)
        for step in range(5):
            recorder.record_access(0, a, AccessKind.WRITE, value=step, time=float(step), operation="put")
        outcome = TraceReplayer(2).replay(recorder.accesses())
        assert outcome.race_count == 0

    def test_replay_respects_detector_config(self):
        recorder = TraceRecorder(3)
        a = GlobalAddress(1, 0)
        recorder.record_access(0, a, AccessKind.READ, time=1.0, operation="get")
        recorder.record_access(2, a, AccessKind.READ, time=2.0, operation="get")
        default = TraceReplayer(3).replay(recorder.accesses())
        assert default.race_count == 0  # read-read is never a race

    def test_a_deep_posted_burst_pairs_snapshots_with_accesses_in_order(self):
        """2 000 serviced-but-unreplayed work requests queue on one (origin,
        target) pair; each access takes the *oldest* pending snapshot.  The
        same trace with every ``wr_transfer`` right before its access (queue
        depth 1) must replay identically — races carry the snapshot they
        were checked with, so a LIFO or skipping queue would show."""
        depth, target = 2000, GlobalAddress(1, 0)
        snapshots = [(index + 1, 0, 0) for index in range(depth)]

        def trace(burst):
            ids = iter(range(1, 10 * depth))
            accesses, syncs, now = [], [], 0.0
            if burst:
                for clock in snapshots:
                    now += 1.0
                    syncs.append(SyncEvent(next(ids), now, (0, 1), "wr_transfer", clock))
            for index, clock in enumerate(snapshots):
                if not burst:
                    now += 1.0
                    syncs.append(SyncEvent(next(ids), now, (0, 1), "wr_transfer", clock))
                now += 1.0
                accesses.append(
                    MemoryAccess(next(ids), 0, target, AccessKind.WRITE, index, now, "x", "put")
                )
                if index % 100 == 50:  # an unordered reader: races with the burst
                    now += 1.0
                    accesses.append(
                        MemoryAccess(next(ids), 2, target, AccessKind.READ, None, now, "x", "get")
                    )
                    now += 1.0
                    accesses.append(
                        MemoryAccess(next(ids), 2, target, AccessKind.WRITE, -1, now, "x", "put")
                    )
            return accesses, syncs

        def observed(outcome):
            return (
                [
                    (r.current_rank, r.current_clock, r.previous_rank, r.previous_clock)
                    for r in outcome.races
                ],
                outcome.detection_profile,
            )

        queued = TraceReplayer(3).replay(*trace(burst=True))
        adjacent = TraceReplayer(3).replay(*trace(burst=False))
        assert queued.accesses_replayed == adjacent.accesses_replayed == depth + 40
        assert observed(queued) == observed(adjacent)
        carried_racers = [r for r in queued.races if r.current_rank == 0]
        assert len(carried_racers) == 20
        # Snapshot k + 1 is the one checked right after the k-th foreign write.
        assert [r.current_clock[0] for r in carried_racers] == list(range(52, depth, 100))


class TestArchiveSchemaVersion:
    def test_archives_are_stamped_and_legacy_loads(self):
        from repro.trace.serialization import TRACE_ARCHIVE_SCHEMA_VERSION

        recorder = TraceRecorder(2)
        recorder.record_access(0, GlobalAddress(1, 0), AccessKind.WRITE, value=1)
        text = trace_to_json(2, recorder.accesses())
        payload = json.loads(text)
        assert payload["schema_version"] == TRACE_ARCHIVE_SCHEMA_VERSION
        # Legacy archives (no schema_version) still load.
        del payload["schema_version"]
        world, accesses, _ops, _syncs = trace_from_json(json.dumps(payload))
        assert world == 2 and len(accesses) == 1

    def test_wrong_schema_version_fails_loudly(self):
        text = trace_to_json(2, [])
        payload = json.loads(text)
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            trace_from_json(json.dumps(payload))


class TestReplayDetectionProfile:
    def test_replay_outcome_carries_the_detectors_cost_profile(self):
        from repro.core.detector import DetectorConfig

        recorder = TraceRecorder(3)
        a = GlobalAddress(1, 0)
        recorder.record_access(0, a, AccessKind.WRITE, value=1, time=1.0, operation="put")
        recorder.record_access(2, a, AccessKind.WRITE, value=2, time=2.0, operation="put")
        outcome = TraceReplayer(3).replay(recorder.accesses())
        totals = {
            key: sum(entry[key] for entry in outcome.detection_profile.values())
            for key in ("checks", "compares", "joins", "epoch_hits")
        }
        assert totals["checks"] == outcome.accesses_replayed == 2
        # Epochs default on: identical verdicts, epoch hits possible; with
        # epochs off the same replay reports the same races and zero hits.
        slow = TraceReplayer(3, config=DetectorConfig(epochs=False)).replay(
            recorder.accesses()
        )
        assert slow.race_count == outcome.race_count == 1
        slow_totals = {
            key: sum(entry[key] for entry in slow.detection_profile.values())
            for key in ("checks", "compares", "joins", "epoch_hits")
        }
        assert slow_totals["epoch_hits"] == 0
        assert slow_totals["checks"] == totals["checks"]
