"""Mattern's characterization theorem on generated histories.

The detection algorithm is sound and complete exactly because vector clocks
*characterize* causality: ``e < e'  iff  V(e) < V(e')`` (and hence
``e ∥ e'  iff  V(e) ∥ V(e')``).  The existing clock-law tests check the
algebra on arbitrary clock values; this module checks the theorem itself on
randomly generated *histories*: events are local steps, sends and (FIFO)
receives; the true causal order is computed independently of the clocks by
transitively closing program order plus send→receive edges, and must agree
with the clock comparison for **every** pair of events — both directions.

The clocks are maintained by the online detector itself
(``DualClockRaceDetector.local_event`` / ``on_recv_complete``), so the process
clocks its checks read are what is being characterized.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.detector import DualClockRaceDetector


def build_history(world, raw_ops):
    """Interpret *raw_ops* as a history; return (event clocks, true HB edges).

    Each op ``(a, b, deliver)`` means: if ``a == b`` a local event on ``a``;
    if ``deliver`` and a message from ``a`` to ``b`` is in flight, ``b``
    receives the oldest one (FIFO); otherwise ``a`` sends to ``b`` (the
    message stays in flight until some later op delivers it).  Undelivered
    messages at the end of the history are simply dropped — their sends are
    ordinary events.
    """
    detector = DualClockRaceDetector(world)
    in_flight = {}  # (src, dst) -> deque of (event_id, clock snapshot)
    event_clocks = []  # event_id -> frozen vector clock
    edges = []  # (earlier_event, later_event) direct causal edges
    last_event_of = [None] * world

    def new_event(rank, clock):
        event_id = len(event_clocks)
        event_clocks.append(clock.frozen())
        if last_event_of[rank] is not None:
            edges.append((last_event_of[rank], event_id))  # program order
        last_event_of[rank] = event_id
        return event_id

    for a_raw, b_raw, deliver in raw_ops:
        a, b = a_raw % world, b_raw % world
        if a == b:
            new_event(a, detector.local_event(a))
            continue
        queue = in_flight.get((a, b))
        if deliver and queue:
            send_id, snapshot = queue.popleft()
            detector.on_recv_complete(b, snapshot)
            receive_id = new_event(b, detector.local_event(b))
            edges.append((send_id, receive_id))  # message edge
        else:
            send_clock = detector.local_event(a)
            send_id = new_event(a, send_clock)
            in_flight.setdefault((a, b), deque()).append((send_id, send_clock))
    return event_clocks, edges


def transitive_closure(count, edges):
    """``reachable[i]`` = set of events causally after event ``i``."""
    successors = [[] for _ in range(count)]
    for earlier, later in edges:
        successors[earlier].append(later)
    reachable = [set() for _ in range(count)]
    # Events are created in causal-compatible (topological) order, so one
    # reverse sweep suffices.
    for event in range(count - 1, -1, -1):
        for nxt in successors[event]:
            reachable[event].add(nxt)
            reachable[event] |= reachable[nxt]
    return reachable


def clock_less(first, second):
    """Mattern's strict order on frozen clocks."""
    return all(x <= y for x, y in zip(first, second)) and first != second


histories = st.tuples(
    st.integers(min_value=2, max_value=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()),
        min_size=1,
        max_size=32,
    ),
)


class TestCharacterization:
    @given(histories)
    @settings(max_examples=120, deadline=None)
    def test_happens_before_iff_clock_less(self, history):
        world, raw_ops = history
        event_clocks, edges = build_history(world, raw_ops)
        reachable = transitive_closure(len(event_clocks), edges)
        for i in range(len(event_clocks)):
            for j in range(len(event_clocks)):
                if i == j:
                    continue
                causally_before = j in reachable[i]
                clockwise_before = clock_less(event_clocks[i], event_clocks[j])
                assert causally_before == clockwise_before, (
                    f"event {i} {'<' if causally_before else '∥/>' } event {j} "
                    f"but clocks say {event_clocks[i]} vs {event_clocks[j]}"
                )

    @given(histories)
    @settings(max_examples=60, deadline=None)
    def test_concurrency_iff_clocks_incomparable(self, history):
        world, raw_ops = history
        event_clocks, edges = build_history(world, raw_ops)
        reachable = transitive_closure(len(event_clocks), edges)
        for i in range(len(event_clocks)):
            for j in range(i + 1, len(event_clocks)):
                concurrent_truth = j not in reachable[i] and i not in reachable[j]
                concurrent_clocks = not clock_less(
                    event_clocks[i], event_clocks[j]
                ) and not clock_less(event_clocks[j], event_clocks[i])
                assert concurrent_truth == concurrent_clocks

    @given(histories)
    @settings(max_examples=60, deadline=None)
    def test_event_clocks_are_distinct(self, history):
        """Every event ticks its process: no two events share a clock."""
        world, raw_ops = history
        event_clocks, _ = build_history(world, raw_ops)
        assert len(set(event_clocks)) == len(event_clocks)
