"""A tie decided in place, and a log built on read, equal their eager forms.

``ScheduleController.pick_next`` decides a two-entry tie without popping the
heap, and the controller logs rows that :class:`DecisionLog` turns into
records only when a view reads it.  Two properties hold both to references
that do neither:

* ``ReferenceController.pick_next`` is the gathering tie rule kept verbatim:
  pop every entry due at the tie time (up to ``MAX_TIES``), offer the
  earliest delivery per channel plus every other entry, push the rest back.
  Over calendars of deliveries on shared and distinct channels, bounces and
  plain events — some carrying a message without being a delivery — the two
  controllers, asked by one scripted strategy, must return the same entries
  in the same order and log the same decisions, and after the first tie the
  heap must hold the same entries.
* A log filled row by row and read at arbitrary points must equal, in every
  view, a log built from :class:`Decision` records up front.

Tier-1 runs both at Hypothesis' default example count; the nightly job runs
this file with ``--hypothesis-profile=nightly``.
"""

import heapq

from hypothesis import example, given, strategies as st

from repro.explore.controller import MAX_TIES, ScheduleController, ScheduleStrategy
from repro.explore.decisions import DECISION_KINDS, DECISION_SHAPES, Decision, DecisionLog
from repro.net.message import Message, MessageKind
from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import _Bounce

CHANNELS = ((0, 1), (1, 0), (0, 2))

#: How a calendar entry is made: a delivery on one of ``CHANNELS``, or an
#: entry that is no delivery (a timer, a bounce or a fired event, bare or
#: carrying a message).
ENTRY_KINDS = ("delivery", "timer", "bounce", "bounce-message", "event", "event-message")


class ReferenceController(ScheduleController):
    """The gathering tie rule, as it was before two-entry ties were decided in place."""

    @staticmethod
    def _delivery_channel(event):
        if isinstance(event, Timeout) and isinstance(event._value, Message):
            message = event._value
            return (message.source, message.destination)
        return None

    def pick_next(self, first, queue):
        top_time = first[0]
        ready = [first]
        while queue and queue[0][0] == top_time and len(ready) < MAX_TIES:
            ready.append(heapq.heappop(queue))

        seen_channels = set()
        eligible_positions = []
        for position, (_, _, event) in enumerate(ready):
            channel = self._delivery_channel(event)
            if channel is not None:
                if channel in seen_channels:
                    continue
                seen_channels.add(channel)
            eligible_positions.append(position)

        if len(eligible_positions) > 1:
            key = f"tie#{self._next_number['tie']()}"
            index = self._decide("tie", key, len(eligible_positions))
            chosen_position = eligible_positions[index]
        else:
            chosen_position = eligible_positions[0]

        chosen = ready[chosen_position]
        for position, entry in enumerate(ready):
            if position != chosen_position:
                heapq.heappush(queue, entry)
        return chosen


class Scripted(ScheduleStrategy):
    """Answers each tie with the next scripted number, modulo its bound."""

    def __init__(self, script):
        self.script = script
        self.asked = 0

    def choose(self, kind, key, bound=None, message=None):
        answer = self.script[self.asked % len(self.script)] % bound
        self.asked += 1
        return answer


def _event(sim, kind, channel, number):
    message = Message(number, MessageKind.PUT_DATA, *CHANNELS[channel])
    if kind == "delivery":
        return Timeout(sim, 0.0, message)
    if kind == "timer":
        return Timeout(sim, 0.0, None)
    if kind.startswith("bounce"):
        bounce = object.__new__(_Bounce)
        bounce._value = message if kind == "bounce-message" else None
        return bounce
    event = Event(sim)
    event._value = message if kind == "event-message" else None
    return event


def _calendar(spec, insertion):
    """The heap of *spec*'s entries, ``(time, seq, event)`` with seq in spec order.

    They are pushed one by one, in the order of their *insertion* keys (ties
    by seq), so the heap's layout varies as a run's does.
    """
    sim = Simulator()
    entries = [
        (time, seq, _event(sim, kind, channel, seq))
        for seq, (time, kind, channel) in enumerate(spec)
    ]
    queue = []
    for seq in sorted(range(len(spec)), key=lambda seq: (insertion[seq % len(insertion)], seq)):
        heapq.heappush(queue, entries[seq])
    return queue


def _drain(controller, queue):
    """Pop *queue* as ``Simulator.step`` does; the popped seqs, and the heap after the first tie."""
    order, after_first_tie = [], None
    while queue:
        entry = heapq.heappop(queue)
        if queue and queue[0][0] == entry[0]:
            entry = controller.pick_next(entry, queue)
            if after_first_tie is None:
                after_first_tie = (entry[1], sorted(seq for _, seq, _ in queue))
        order.append(entry[1])
    return order, after_first_tie


_ENTRY = st.tuples(
    st.sampled_from((1.0, 1.0, 1.0, 2.0)),
    st.sampled_from(ENTRY_KINDS),
    st.integers(min_value=0, max_value=len(CHANNELS) - 1),
)


@given(
    tie=st.lists(_ENTRY.map(lambda entry: (1.0,) + entry[1:]), min_size=1, max_size=9),
    rest=st.lists(_ENTRY, max_size=5),
    insertion=st.lists(st.integers(min_value=0, max_value=13), min_size=1, max_size=14),
    script=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
)
# Two deliveries on one channel: FIFO, no decision, and no heap traffic.
@example(
    tie=[(1.0, "delivery", 0), (1.0, "delivery", 0)], rest=[], insertion=[0], script=[1]
)
# The root chosen over the popped entry: the heap swaps one for the other.
@example(
    tie=[(1.0, "delivery", 0), (1.0, "delivery", 1)],
    rest=[(2.0, "timer", 0)],
    insertion=[0],
    script=[1],
)
# A bounce carrying a message is no delivery: the tie is a decision.
@example(
    tie=[(1.0, "delivery", 0), (1.0, "bounce-message", 0)], rest=[], insertion=[0], script=[1]
)
# Three tied entries, the third the root's *right* child: no two-entry tie.
@example(
    tie=[(1.0, "timer", 0), (1.0, "timer", 0)],
    rest=[(2.0, "timer", 0), (1.0, "timer", 0), (2.0, "timer", 0)],
    insertion=[0, 1, 3, 2, 4],
    script=[2],
)
def test_pick_next_equals_the_gathering_rule(tie, rest, insertion, script):
    spec = tie + rest
    ours, reference = ScheduleController(Scripted(script)), ReferenceController(Scripted(script))
    assert _drain(ours, _calendar(spec, insertion)) == _drain(
        reference, _calendar(spec, insertion)
    )
    assert ours.log == reference.log
    assert ours.log.to_jsonable() == reference.log.to_jsonable()


def _choice(kind, number):
    return float(number) / 2 if DECISION_SHAPES[kind] == "delay" else number


_ROW = st.tuples(st.sampled_from(DECISION_KINDS), st.integers(min_value=0, max_value=3))


def _views(log):
    length = len(log)
    return (
        length,
        log.entries,
        list(log),
        log.non_default(),
        log.perturbations(),
        log.to_jsonable(),
        [log.prefix(k).entries for k in range(length + 1)],
        [log.with_default_at(i).entries for i in range(length)],
    )


@given(st.lists(st.one_of(_ROW, st.just("read")), max_size=20))
@example(["read", ("tie", 1), ("latency", 0), "read", ("barrier", 2)])
def test_a_log_built_on_read_equals_an_eager_one(operations):
    lazy, decisions = DecisionLog(), []
    for operation in operations:
        if operation == "read":
            eager = DecisionLog(decisions)
            assert _views(lazy) == _views(eager)
            assert lazy == eager and eager == lazy
            continue
        kind, number = operation
        key = f"{kind}#{len(decisions)}"
        lazy._rows.append((kind, key, _choice(kind, number)))
        decisions.append(Decision(kind, key, _choice(kind, number)))
    eager = DecisionLog(decisions)
    assert len(lazy) == len(eager)
    assert lazy.perturbations() == eager.perturbations()
    assert _views(lazy) == _views(eager)
