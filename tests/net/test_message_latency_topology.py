"""Unit tests for messages, latency models and topologies."""

import copy
import pickle

import pytest

from repro.net.latency import ConstantLatency, LogGPLatency, UniformLatency
from repro.net.message import DEFAULT_CELL_BYTES, HEADER_BYTES, Message, MessageKind
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


def make_message(kind=MessageKind.PUT_DATA, payload_bytes=8):
    return Message(
        message_id=0, kind=kind, source=0, destination=1, payload_bytes=payload_bytes
    )


class TestMessage:
    def test_total_bytes_includes_header(self):
        assert make_message(payload_bytes=8).total_bytes == HEADER_BYTES + 8

    def test_latency_property(self):
        message = Message(
            message_id=0, kind=MessageKind.PUT_DATA, source=0, destination=1,
            send_time=2.0, deliver_time=5.5,
        )
        assert message.latency == 3.5

    def test_kind_categories_are_disjoint(self):
        for kind in MessageKind:
            categories = [kind.is_data, kind.is_lock, kind.is_detection]
            assert sum(categories) <= 1
        assert MessageKind.PUT_DATA.is_data
        assert MessageKind.GET_REQUEST.is_data and MessageKind.GET_REPLY.is_data
        assert MessageKind.LOCK_REQUEST.is_lock
        assert MessageKind.CLOCK_FETCH.is_detection

    def test_kinds_are_singletons_through_a_pickle_and_as_keys(self):
        table = {kind: kind.value for kind in MessageKind}
        members = set(MessageKind)
        assert len(table) == len(members) == len(list(MessageKind))
        for kind in MessageKind:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(kind, protocol))
                assert back is kind
                assert table[back] == kind.value and back in members
            assert copy.deepcopy(kind) is kind
            assert hash(kind) == hash(MessageKind(kind.value))
            assert MessageKind[kind.name] is kind
        message = make_message(kind=MessageKind.LOCK_GRANT)
        assert table[pickle.loads(pickle.dumps(message)).kind] == "lock_grant"


class TestLatencyModels:
    def test_constant_scales_with_hops(self):
        model = ConstantLatency(base=2.0)
        assert model.latency(make_message(), hops=1) == 2.0
        assert model.latency(make_message(), hops=3) == 6.0

    def test_uniform_within_bounds_and_reproducible(self):
        streams = RandomStreams(seed=5)
        model = UniformLatency(streams, low=1.0, high=2.0)
        draws = [model.latency(make_message()) for _ in range(50)]
        assert all(1.0 <= value <= 2.0 for value in draws)
        again = UniformLatency(RandomStreams(seed=5), low=1.0, high=2.0)
        assert [again.latency(make_message()) for _ in range(50)] == draws

    def test_uniform_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(RandomStreams(0), low=2.0, high=1.0)

    def test_loggp_components(self):
        model = LogGPLatency(L=1.0, o_send=0.5, o_recv=0.5, G=0.01)
        message = make_message(payload_bytes=68)  # 100 total bytes
        assert model.latency(message, hops=2) == pytest.approx(2.0 + 1.0 + 1.0)

    def test_loggp_jitter_adds_bounded_noise(self):
        streams = RandomStreams(seed=1)
        model = LogGPLatency(L=1.0, jitter=streams, jitter_fraction=0.1)
        base = LogGPLatency(L=1.0).latency(make_message())
        for _ in range(20):
            value = model.latency(make_message())
            assert base <= value <= base * 1.1 + 1e-9

    def test_describe_mentions_parameters(self):
        assert "2.0" in ConstantLatency(base=2.0).describe()
        assert "LogGP" in LogGPLatency().describe()


class TestTopology:
    def test_complete_graph_is_one_hop_everywhere(self):
        topology = Topology.complete(5)
        assert topology.world_size == 5
        assert topology.diameter() == 1
        assert topology.hops(0, 4) == 1
        assert topology.hops(2, 2) == 0

    def test_ring_hop_counts(self):
        topology = Topology.ring(6)
        assert topology.hops(0, 1) == 1
        assert topology.hops(0, 3) == 3
        assert topology.diameter() == 3

    def test_star_routes_through_center(self):
        topology = Topology.star(5, center=0)
        assert topology.hops(1, 2) == 2
        assert topology.hops(0, 3) == 1
        assert topology.degree(0) == 4

    def test_mesh_and_torus(self):
        mesh = Topology.mesh2d(3, 3)
        torus = Topology.mesh2d(3, 3, torus=True)
        assert mesh.world_size == torus.world_size == 9
        # Opposite corners: 4 hops on the mesh, 2 on the torus (wraparound).
        assert mesh.hops(0, 8) == 4
        assert torus.hops(0, 8) == 2

    def test_hypercube(self):
        topology = Topology.hypercube(3)
        assert topology.world_size == 8
        assert topology.degree(0) == 3
        assert topology.diameter() == 3

    def test_ring_small_sizes(self):
        assert Topology.ring(1).world_size == 1
        assert Topology.ring(2).hops(0, 1) == 1

    def test_neighbors_sorted(self):
        topology = Topology.ring(4)
        assert topology.neighbors(0) == [1, 3]

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            Topology.complete(3).hops(0, 3)

    def test_average_hops_between_one_and_diameter(self):
        topology = Topology.ring(8)
        assert 1.0 <= topology.average_hops() <= topology.diameter()
