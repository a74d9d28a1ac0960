"""The frame budget of the per-event path, as exact counts.

A checked access of the paper's basic model costs 4.3 fabric messages and 7.1
simulator events, so what a run waits for is the cost of one message and one
event — and in Python most of that cost is frames entered, not work done.  The
budget is **one Python frame per layer per hop** (``docs/architecture.md``,
"Frame budget of the per-event path"); this file counts the frames.

One small run (``RandomAccessWorkload(world_size=4, operations_per_rank=20)``,
seed 0: 181 messages over 10 channels, 424 events, 80 checked accesses) is
driven under ``sys.setprofile``, and Python ``call`` events are counted: those
inside ``Fabric.send`` whose code lives under ``repro/sim``, ``repro/net`` or
``repro/util``, every one under ``repro/sim`` and ``repro/memory``, and every
one of the whole run under ``repro/`` or in generated code (``<string>``: the
``__init__`` of a dataclass, a record's ``_build``).  The counts repeat
exactly for a seed, so the ceilings carry no slack for noise: each is the
finished change's own reading, and only a deliberate addition to the path
should ever move one.

Readings: *first* is the commit before the frame budget was set, *grant* the
commit before an uncontended lock grant and its bounce each became one frame
and a checked access one cell lookup, *hop* the commit before a channel
stamped the message it owns in place and summed its bytes inline, *access*
the commit before the budget was counted over the whole access, *config* the
commit before a built runtime's config was frozen and the clock transport
stopped re-checking its knobs on every round trip:

========================================================  =============  =============  =============  =============  =============  =============
count                                                             first          grant            hop         access         config        ceiling
========================================================  =============  =============  =============  =============  =============  =============
(a) frames entered inside ``Fabric.send`` (per message)    3 048 (16.84)   1 419 (7.84)   1 419 (7.84)   1 057 (5.84)     618 (3.41)     618 (3.41)
(b) ``sim`` frames (per processed event)                   3 729 (8.79)    1 777 (4.19)   1 402 (3.31)   1 402 (3.31)   1 144 (2.70)   1 144 (2.70)
(c) ``util.validation`` frames inside ``Fabric.send`` on
    a pair whose channel already exists (per message)        342 (1.89)        0              0              0              0              0
(d) ``memory`` frames (per checked access)                          —      1 064 (13.3)     665 (8.31)     665 (8.31)     665 (8.31)     665 (8.31)
(e) every frame under ``repro/`` or ``<string>``
    (per checked access)                                            —              —              —      7 001 (87.5)   5 900 (73.8)   5 872 (73.4)
========================================================  =============  =============  =============  =============  =============  =============

(e) reads 7 049 → 5 948 → 5 920 under ``REPRO_DETECTOR_EPOCHS=off`` (CI's
slow-path leg: the detector's check enters more ``core`` frames), which is
its ceiling there; (a), (b) and (d) do not depend on it.  (e) was 5 905 (5 953) before
the run's counter totals were summed over rows and its snapshot put in key
order by a memoised layout, and 5 901 (5 949) before the run's clock bytes
were read off the fabric instead of the detector's own two counters.  Every reading is a first run in
a fresh process: a later run in the same process reads a little less, because
process-wide memos (stream seed derivation, metric key texts) are warm.

What (a) still holds per message: ``transmit``, the model's ``latency`` (a
one-hop draw pops the next double off the stream's block list in its own
frame; ``RandomStreams.uniform`` only refills, once per 64 draws) and
``Timeout.__init__`` — three; the fabric books the message in its own frame
— plus the ten channel constructions spread over the run, each checking its
pair once, in ``Topology.hops``.  What (b) holds per event: ``step``, and for
most events one ``Process._resume`` and one ``Timeout.__init__`` or
``_Bounce.__init__``; an uncontended grant is no ``sim`` frame at all, and
``compute`` builds its ``Timeout`` without ``Simulator.timeout``.  What (d)
holds per access: the directory's ``resolve``, ``PublicMemory.cell`` once,
``MemoryLockTable.acquire`` with its ``_GrantEvent.__init__``, and
``release`` (through ``release_delivered`` for an UNLOCK message); the rest is
private memory and end-of-run accounting.  What (e) adds per access: the
program and ``ProcessAPI`` generators, ``NIC._access`` and its
sub-generators, the detector's check, and one generated ``_build`` frame per
trace record.
"""

import os
import sys

import repro
from repro.net.fabric import Fabric
from repro.workloads import RandomAccessWorkload

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_COUNTED = tuple(_PACKAGE + layer + os.sep for layer in ("sim", "net", "util"))
_SIM = _PACKAGE + "sim" + os.sep
_MEMORY = _PACKAGE + "memory" + os.sep
_VALIDATION = _PACKAGE + os.path.join("util", "validation.py")

_GENERATED = "<string>"

#: The finished change's readings on this very run (see the table above).
FRAMES_INSIDE_SEND_CEILING = 618
SIM_FRAMES_CEILING = 1144
MEMORY_FRAMES_CEILING = 665
#: (e), keyed by whether the detector's epoch fast path is on: CI's
#: ``REPRO_DETECTOR_EPOCHS=off`` leg checks more in ``core``.
RUN_FRAMES_CEILING = {True: 5872, False: 5920}


class _FrameCounter:
    """Counts Python frames entered: inside ``Fabric.send``, under ``sim``,
    under ``memory`` and in the whole run."""

    def __init__(self) -> None:
        self.sends = 0
        self.inside_send = 0
        self.sim_frames = 0
        self.memory_frames = 0
        self.run_frames = 0
        self.validation_on_known_pair = 0
        self._send_code = Fabric.send.__code__
        self._known_pairs = set()
        self._pair_was_known = False
        #: Depth of Python frames below the running ``Fabric.send`` (0 = not
        #: inside one).  ``send`` is not re-entrant, so one integer does.
        self._depth = 0

    def __call__(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            filename = code.co_filename
            if self._depth:
                self._depth += 1
                if filename.startswith(_COUNTED):
                    self.inside_send += 1
                    if filename == _VALIDATION and self._pair_was_known:
                        self.validation_on_known_pair += 1
            elif code is self._send_code:
                self._depth = 1
                self.sends += 1
                pair = (frame.f_locals["source"], frame.f_locals["destination"])
                self._pair_was_known = pair in self._known_pairs
                self._known_pairs.add(pair)
            if filename.startswith(_SIM):
                self.sim_frames += 1
            elif filename.startswith(_MEMORY):
                self.memory_frames += 1
            if filename.startswith(_PACKAGE) or filename == _GENERATED:
                self.run_frames += 1
        elif event == "return" and self._depth:
            self._depth -= 1


def _count_one_run():
    scenario = RandomAccessWorkload(world_size=4, operations_per_rank=20)
    runtime = scenario.build(0)
    counter = _FrameCounter()
    sys.setprofile(counter)
    try:
        runtime.run()
    finally:
        sys.setprofile(None)
    return counter, runtime


class TestFrameBudget:
    @classmethod
    def setup_class(cls):
        cls.counter, cls.runtime = _count_one_run()

    def test_the_run_is_the_one_the_readings_were_taken_on(self):
        assert self.counter.sends == 181
        assert self.runtime.fabric.stats.total_messages == 181
        assert self.runtime.sim.events_processed == 424
        assert len(self.runtime.recorder.accesses()) == 80
        assert len(self.runtime.fabric.channels()) == 10

    def test_a_message_enters_few_frames_inside_fabric_send(self):
        assert self.counter.inside_send <= FRAMES_INSIDE_SEND_CEILING

    def test_an_event_enters_few_sim_frames(self):
        assert self.counter.sim_frames <= SIM_FRAMES_CEILING

    def test_an_access_enters_few_memory_frames(self):
        assert self.counter.memory_frames <= MEMORY_FRAMES_CEILING

    def test_a_checked_access_enters_few_frames_in_the_whole_run(self):
        epochs = self.runtime.config.detector.epochs
        assert self.counter.run_frames <= RUN_FRAMES_CEILING[epochs]

    def test_no_validation_frame_on_a_pair_whose_channel_exists(self):
        assert self.counter.validation_on_known_pair == 0
