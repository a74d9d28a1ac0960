"""Unit tests for FIFO channels and the fabric's accounting."""

import dataclasses

import numpy as np
import pytest

from repro.net.channel import Channel
from repro.net.fabric import Fabric
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import Message, MessageKind
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def make_message(message_id=0, kind=MessageKind.PUT_DATA, payload_bytes=8):
    return Message(
        message_id=message_id, kind=kind, source=0, destination=1,
        payload_bytes=payload_bytes,
    )


class TestChannel:
    def test_delivery_time_follows_latency_model(self):
        sim = Simulator()
        channel = Channel(sim, 0, 1, ConstantLatency(base=2.0), hops=3)
        event, stamped = channel.transmit(make_message())
        assert stamped.deliver_time == 6.0
        sim.run()
        assert event.processed and sim.now == 6.0

    def test_fifo_order_is_preserved_despite_jitter(self):
        sim = Simulator()
        # A wildly jittering model: later messages may draw shorter latencies.
        channel = Channel(sim, 0, 1, UniformLatency(sim.rng, low=0.1, high=10.0))
        deliveries = []
        for index in range(30):
            _event, stamped = channel.transmit(make_message(message_id=index))
            deliveries.append(stamped.deliver_time)
        assert deliveries == sorted(deliveries)


class TestFabric:
    def make_fabric(self, world_size=3, topology=None):
        sim = Simulator()
        topology = topology or Topology.complete(world_size)
        return sim, Fabric(sim, topology, ConstantLatency(base=1.0))

    def test_send_assigns_ids_and_routes(self):
        sim, fabric = self.make_fabric()
        event, message = fabric.send(MessageKind.PUT_DATA, 0, 2, payload="v")
        assert message.message_id == 0
        _event2, message2 = fabric.send(MessageKind.GET_REQUEST, 1, 2)
        assert message2.message_id == 1
        sim.run()
        assert event.processed

    def test_stats_split_by_category(self):
        sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.send(MessageKind.GET_REQUEST, 0, 1)
        fabric.send(MessageKind.GET_REPLY, 1, 0)
        fabric.send(MessageKind.LOCK_REQUEST, 0, 1)
        fabric.send(MessageKind.CLOCK_FETCH, 0, 1)
        fabric.send(MessageKind.NOTIFY, 0, 1)
        stats = fabric.stats
        assert stats.data_messages == 3
        assert stats.lock_messages == 1
        assert stats.detection_messages == 1
        assert stats.other_messages == 1
        assert stats.total_messages == 6
        assert stats.total_bytes > 0
        as_dict = stats.as_dict()
        assert as_dict["total_messages"] == 6

    def test_message_count_by_kind(self):
        _sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.send(MessageKind.PUT_DATA, 0, 2)
        assert fabric.message_count(MessageKind.PUT_DATA) == 2
        assert fabric.message_count(MessageKind.GET_REPLY) == 0
        assert fabric.message_count() == 2

    def test_hop_count_scales_latency_on_ring(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.ring(6), ConstantLatency(base=1.0))
        _event, far = fabric.send(MessageKind.PUT_DATA, 0, 3)
        assert far.deliver_time == 3.0
        _event, near = fabric.send(MessageKind.PUT_DATA, 0, 1)
        assert near.deliver_time == 1.0

    def test_channels_are_cached_per_pair(self):
        _sim, fabric = self.make_fabric()
        first = fabric.channel(0, 1)
        assert fabric.channel(0, 1) is first
        assert fabric.channel(1, 0) is not first
        assert len(fabric.channels()) == 2

    def test_self_messages_deliver_immediately(self):
        sim, fabric = self.make_fabric()
        _event, message = fabric.send(MessageKind.NOTIFY, 1, 1)
        assert message.deliver_time == 0.0

    def test_reset_stats(self):
        _sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.reset_stats()
        assert fabric.stats.total_messages == 0
        assert fabric.message_count(MessageKind.PUT_DATA) == 0

    def test_invalid_rank_rejected(self):
        _sim, fabric = self.make_fabric(world_size=2)
        with pytest.raises(ValueError):
            fabric.send(MessageKind.PUT_DATA, 0, 5)


class NegativeLatency(ConstantLatency):
    def latency(self, message, hops=1):
        return -1.0


class SettableLatency(ConstantLatency):
    """Returns whatever :attr:`flight` holds, legal or not."""

    def __init__(self, flight):
        super().__init__()
        self.flight = flight

    def latency(self, message, hops=1):
        return self.flight


class TestStamping:
    """Stamping fills in the two times and carries every other field over."""

    #: One non-default value per field, so a dropped field shows as its default.
    FULL = dict(
        message_id=7, kind=MessageKind.PUT_DATA, source=0, destination=1,
        payload="v", payload_bytes=40, send_time=-1.0, deliver_time=-1.0,
        operation_tag="op-3", carried_clock=(1, 2, 3, 4), clock_wire_bytes=32,
        ud_seq=9, ud_frame="sparse",
    )
    TIMES = {"send_time", "deliver_time"}

    def assert_carried_over(self, original, stamped):
        for field in dataclasses.fields(Message):
            if field.name not in self.TIMES:
                assert getattr(stamped, field.name) == getattr(original, field.name), field.name

    def test_the_probe_covers_every_field_with_a_non_default(self):
        for field in dataclasses.fields(Message):
            assert self.FULL[field.name] != field.default, field.name
        assert len(self.FULL) == len(dataclasses.fields(Message))

    def test_transmit_keeps_every_field(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        channel = Channel(sim, 0, 1, ConstantLatency(base=2.0))
        original = Message(**self.FULL)
        _event, stamped = channel.transmit(original)
        self.assert_carried_over(original, stamped)
        assert (stamped.send_time, stamped.deliver_time) == (5.0, 7.0)

    def test_ud_drop_keeps_every_field(self):
        sim = Simulator()
        original = Message(**self.FULL)
        _event, stamped = Channel(sim, 0, 1, ConstantLatency()).drop(original, 8.0)
        self.assert_carried_over(original, stamped)
        assert (stamped.send_time, stamped.deliver_time) == (0.0, 8.0)

    def test_fabric_send_keeps_the_clock_rider_on_rc_and_loopback(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(2), ConstantLatency(base=1.0))
        for destination in (1, 0):
            _event, stamped = fabric.send(
                MessageKind.PUT_DATA, 0, destination, payload_bytes=40,
                carried_clock=(1, 2, 3, 4), clock_wire_bytes=32,
            )
            assert stamped.clock_wire_bytes == 32
            assert stamped.carried_clock == (1, 2, 3, 4)

    def test_fabric_messages_are_whole_and_equal_to_the_public_constructor(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(2), ConstantLatency(base=1.0))
        _event, stamped = fabric.send(MessageKind.NOTIFY, 0, 1, payload="x", operation_tag="t")
        assert stamped == Message(
            message_id=0, kind=MessageKind.NOTIFY, source=0, destination=1,
            payload="x", payload_bytes=8, send_time=0.0, deliver_time=1.0,
            operation_tag="t",
        )
        assert dataclasses.replace(stamped, ud_seq=1).ud_seq == 1
        assert "notify #0 P0->P1" in str(stamped)

    @pytest.mark.parametrize("send", ["send", "send_datagram"])
    def test_loopback_is_stamped_at_now(self, send):
        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(3), ConstantLatency(base=1.0))
        sim.timeout(5.0)
        sim.run()
        event, loopback = getattr(fabric, send)(MessageKind.PUT_DATA, 2, 2)[:2]
        assert (loopback.send_time, loopback.deliver_time) == (5.0, 5.0)
        assert loopback.latency == 0.0
        _event, remote = getattr(fabric, send)(MessageKind.PUT_DATA, 2, 1)[:2]
        assert (remote.send_time, remote.deliver_time) == (5.0, 6.0)
        sim.run()
        assert event.processed and event.value is loopback

    def test_transmit_never_touches_the_callers_message(self):
        # The wall-clock micro pass transmits one message object repeatedly.
        sim = Simulator()
        channel = Channel(sim, 0, 1, ConstantLatency(base=1.0))
        message = make_message()
        event_a, first = channel.transmit(message)
        sim.run()
        event_b, second = channel.transmit(message)
        assert (message.send_time, message.deliver_time) == (0.0, 0.0)
        assert first is not message and second is not first
        assert (first.send_time, first.deliver_time) == (0.0, 1.0)
        assert (second.send_time, second.deliver_time) == (1.0, 2.0)
        assert event_a.value is first and event_b._value is second

    def test_messages_stay_frozen(self):
        _event, stamped = Channel(Simulator(), 0, 1, ConstantLatency()).transmit(make_message())
        with pytest.raises(dataclasses.FrozenInstanceError):
            stamped.deliver_time = 3.0


class TestValidationRim:
    """A cached channel means a validated pair; everything else is checked."""

    def make_fabric(self):
        return Fabric(Simulator(), Topology.complete(2), ConstantLatency(base=1.0))

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            self.make_fabric().channel(0, 99)

    @pytest.mark.parametrize("alias", [True, 1.0, np.int64(1)])
    def test_keys_that_hash_like_a_cached_pair_do_not_alias_it(self, alias):
        fabric = self.make_fabric()
        cached = fabric.channel(1, 0)
        with pytest.raises(TypeError):
            fabric.channel(alias, 0)
        with pytest.raises(TypeError):
            fabric.channel(0, alias)
        assert fabric.channel(1, 0) is cached

    def test_send_to_a_cached_pair_still_rejects_an_alias(self):
        fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 1, 0)
        with pytest.raises(TypeError):
            fabric.send(MessageKind.PUT_DATA, True, 0)

    def test_negative_flight_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(2), NegativeLatency())
        with pytest.raises(ValueError, match="latency"):
            fabric.send(MessageKind.PUT_DATA, 0, 1)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "source, destination, error, text",
        [
            (True, 0, TypeError, "source must be an int, got bool"),
            (0, True, TypeError, "destination must be an int, got bool"),
            (1.0, 0, TypeError, "source must be int, got float: 1.0"),
            (0, 1.0, TypeError, "destination must be int, got float: 1.0"),
            (0, 2, ValueError, "destination must be in [0, 2), got 2"),
            (-1, 0, ValueError, "source must be in [0, 2), got -1"),
        ],
    )
    def test_send_rejects_a_bad_pair_with_the_same_words(
        self, cached, source, destination, error, text
    ):
        fabric = self.make_fabric()
        if cached:
            fabric.send(MessageKind.PUT_DATA, 1, 0)
            fabric.send(MessageKind.PUT_DATA, 0, 1)
        sent = fabric.stats.total_messages
        with pytest.raises(error) as caught:
            fabric.send(MessageKind.PUT_DATA, source, destination)
        assert str(caught.value) == text
        assert fabric.stats.total_messages == sent

    @pytest.mark.parametrize("send", ["send", "send_datagram"])
    @pytest.mark.parametrize(
        "source, destination, error, text",
        [
            (99, 99, ValueError, "source must be in [0, 2), got 99"),
            (-1, -1, ValueError, "source must be in [0, 2), got -1"),
            (True, True, TypeError, "source must be an int, got bool"),
            (1, True, TypeError, "destination must be an int, got bool"),
            (1.0, 1.0, TypeError, "source must be int, got float: 1.0"),
            (1, 1.0, TypeError, "destination must be int, got float: 1.0"),
            (
                np.int64(1), np.int64(1), TypeError,
                f"source must be int, got int64: {np.int64(1)!r}",
            ),
        ],
    )
    def test_a_bad_loopback_pair_is_rejected_with_the_same_words(
        self, send, source, destination, error, text
    ):
        fabric = self.make_fabric()
        with pytest.raises(error) as caught:
            getattr(fabric, send)(MessageKind.PUT_DATA, source, destination)
        assert str(caught.value) == text
        assert fabric.stats.total_messages == 0

    @pytest.mark.parametrize("send", ["send", "send_datagram"])
    @pytest.mark.parametrize(
        "source, destination",
        [(0, 5), (5, 0), (5, 5), (-1, -1), (True, 0), (0, True), (True, True)],
        ids=["remote-5", "remote-from-5", "loopback-5", "loopback-neg", "bool-source",
             "bool-destination", "bool-loopback"],
    )
    def test_a_rejected_pair_draws_no_message_id(self, send, source, destination):
        fabric = Fabric(Simulator(), Topology({0: [1], 1: [0]}), ConstantLatency(1.0))
        sender = getattr(fabric, send)
        with pytest.raises((TypeError, ValueError)):
            sender(MessageKind.PUT_DATA, source, destination)
        assert sender(MessageKind.PUT_DATA, 0, 1)[1].message_id == 0
        with pytest.raises((TypeError, ValueError)):
            sender(MessageKind.PUT_DATA, source, destination)
        assert sender(MessageKind.PUT_DATA, 1, 1)[1].message_id == 1
        assert fabric.stats.total_messages == 2

    @pytest.mark.parametrize("send", ["send", "send_datagram"])
    @pytest.mark.parametrize("flight, error", [(-1.0, ValueError), (True, TypeError)])
    def test_a_rejected_flight_draws_no_message_id(self, send, flight, error):
        model = SettableLatency(flight)
        fabric = Fabric(Simulator(), Topology.complete(2), model)
        sender = getattr(fabric, send)
        with pytest.raises(error, match="latency"):
            sender(MessageKind.PUT_DATA, 0, 1)
        model.flight = 1.0
        assert sender(MessageKind.PUT_DATA, 0, 1)[1].message_id == 0
        assert fabric.stats.total_messages == 1

    @pytest.mark.parametrize(
        "flight, error, text",
        [
            (-0.5, ValueError, "latency must be non-negative, got -0.5"),
            (-1, ValueError, "latency must be non-negative, got -1"),
            (True, TypeError, "latency must be a number, got bool"),
            ("1", TypeError, "latency must be int or float, got str: '1'"),
            (
                np.float32(0.5), TypeError,
                f"latency must be int or float, got float32: {np.float32(0.5)!r}",
            ),
            (
                np.float64(-0.5), ValueError,
                f"latency must be non-negative, got {np.float64(-0.5)!r}",
            ),
        ],
    )
    def test_a_bad_model_flight_raises_what_it_always_raised(self, flight, error, text):
        class Model(ConstantLatency):
            def latency(self, message, hops=1):
                return flight

        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(2), Model())
        with pytest.raises(error) as caught:
            fabric.send(MessageKind.PUT_DATA, 0, 1)
        assert str(caught.value) == text
        assert sim.peek() == float("inf") and fabric.stats.total_messages == 0

    @pytest.mark.parametrize("flight", [2, np.float64(2.0), 2.0])
    def test_flights_that_are_not_exact_floats_are_still_admitted(self, flight):
        class Model(ConstantLatency):
            def latency(self, message, hops=1):
                return flight

        sim = Simulator()
        _event, stamped = Fabric(sim, Topology.complete(2), Model()).send(
            MessageKind.PUT_DATA, 0, 1
        )
        assert stamped.deliver_time == 2.0 and sim.peek() == 2.0

    @pytest.mark.parametrize(
        "stretched, error, text",
        [
            (-0.25, ValueError, "controlled latency must be non-negative, got -0.25"),
            (None, TypeError, "controlled latency must be int or float, got NoneType: None"),
            (True, TypeError, "controlled latency must be a number, got bool"),
        ],
    )
    def test_a_controller_stretching_to_a_bad_flight_rejected(self, stretched, error, text):
        class Controller:
            def on_message_latency(self, message, source, destination, flight):
                return stretched

        sim = Simulator()
        sim.install_controller(Controller())
        fabric = Fabric(sim, Topology.complete(2), ConstantLatency(base=1.0))
        with pytest.raises(error) as caught:
            fabric.send(MessageKind.PUT_DATA, 0, 1)
        assert str(caught.value) == text
        assert sim.peek() == float("inf")

    def test_a_clamped_delivery_lands_at_the_bit_identical_time(self):
        # now + (deliver_at - now) is not always deliver_at in floating point;
        # the calendar has always held the former.
        now, deliver_at = 0.6369086473719767, 3.3169369814192593
        assert now + (deliver_at - now) != deliver_at
        flights = iter([deliver_at, 0.1])

        class Model(ConstantLatency):
            def latency(self, message, hops=1):
                return next(flights)

        sim = Simulator()
        channel = Channel(sim, 0, 1, Model())
        channel.transmit(make_message())
        sim.timeout(now)
        sim.step()
        assert sim.now == now
        event, stamped = channel.transmit(make_message())
        assert stamped.deliver_time == deliver_at
        assert event.delay == deliver_at - now
        assert [entry for entry in sim._queue if entry[2] is event] == [
            (now + (deliver_at - now), 2, event)
        ]
        assert (event._value, event.name) == (stamped, "deliver:put_data")

    def test_hop_count_checked_where_the_channel_is_built(self):
        with pytest.raises(ValueError, match="hops"):
            Channel(Simulator(), 0, 1, ConstantLatency(), hops=-1)
        assert Channel(Simulator(), 0, 1, ConstantLatency(), hops=0).hops == 1

    def test_world_size_is_fixed_at_construction(self):
        topology = Topology.ring(5)
        assert topology.world_size == 5 == len(topology.graph)
