"""The trace codec's memory ceilings, as exact readings.

The archive is the interface of the post-mortem detector (Section V-B), and
the codec was the peak of a post-mortem session: the writer built the whole
payload as dictionaries before encoding it, and the reader parsed the whole
text into dictionaries before converting them.  Both now stream
(``docs/architecture.md``, "The trace archive streams"), and this file holds
them to it with ``tracemalloc``.

One recorded run (``RandomAccessWorkload(world_size=4,
operations_per_rank=300)``, seed 0: 1 200 accesses, 1 200 operations, no
syncs) is archived at ``indent=None`` — 514 539 characters of ASCII, one
byte each.  Readings, as multiples of the text length, on CPython 3.11:

==========================================================  ========  ========  =========
reading                                                       before     after    ceiling
==========================================================  ========  ========  =========
writer: traced peak above the start                             9.31      2.13       3.0
reader: what it returns                                         1.91      1.50          —
reader: traced peak above what it returns                       2.27      0.01       0.25
==========================================================  ========  ========  =========

*Before* is the whole-payload codec.  The writer's 2.13 is the output twice
(its pieces, then their join) and one batch of record dictionaries; the
reader holds one record's dictionary at a time, and its result is smaller
than before because a load shares one ``GlobalAddress`` per cell.  Tier-1
also runs on 3.10 and 3.12, whose allocators differ a little, so the
ceilings leave room; a return to whole-trace dictionaries overshoots both
several times over.
"""

import gc
import tracemalloc

import pytest

from repro.trace.serialization import trace_from_json, trace_to_json
from repro.workloads import RandomAccessWorkload

WRITER_PEAK_CEILING = 3.0
READER_TRANSIENT_CEILING = 0.25


@pytest.fixture(scope="module")
def trace():
    recorder = RandomAccessWorkload(world_size=4, operations_per_rank=300).run(0).runtime.recorder
    return recorder.accesses(), recorder.operations(), recorder.syncs()


def _traced(call):
    """``(result, bytes still held after the call, peak bytes during it)``,
    both above what was held when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def test_the_archive_is_the_one_the_readings_were_taken_on(trace):
    accesses, operations, syncs = trace
    assert (len(accesses), len(operations), len(syncs)) == (1200, 1200, 0)
    assert len(trace_to_json(4, *trace)) == 514_539


def test_the_writer_holds_no_whole_trace_dictionaries(trace):
    text, _held, peak = _traced(lambda: trace_to_json(4, *trace))
    assert peak <= WRITER_PEAK_CEILING * len(text)


def test_the_reader_holds_little_beyond_what_it_returns(trace):
    text = trace_to_json(4, *trace)
    result, held, peak = _traced(lambda: trace_from_json(text))
    assert len(result[1]) == len(trace[0])
    assert peak <= held + READER_TRANSIENT_CEILING * len(text)
