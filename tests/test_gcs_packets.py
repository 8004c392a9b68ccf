"""Tests for the datagram-level routing of the in-memory transport."""

from repro.gcs import MemoryTransport
from repro.net.topology import Topology


def make_network(n=4):
    return MemoryTransport(topology=Topology.fully_connected(n))


class TestConnectivity:
    def test_same_component_connected(self):
        network = make_network()
        assert network.connected(0, 3)
        assert network.connected(2, 2)

    def test_partition_disconnects(self):
        network = make_network()
        network.set_topology(
            network.topology.partition(frozenset(range(4)), frozenset({3}))
        )
        assert not network.connected(0, 3)
        assert network.connected(0, 2)

    def test_crash_disconnects_everyone(self):
        network = make_network()
        network.set_topology(network.topology.crash(1))
        assert not network.connected(0, 1)
        assert not network.connected(1, 0)


class TestDelivery:
    def test_one_tick_latency_and_fifo(self):
        network = make_network()
        network.send(0, 1, "first")
        network.send(0, 1, "second")
        delivered = network.deliver_tick()
        assert [d.payload for d in delivered] == ["first", "second"]
        assert network.deliver_tick() == []

    def test_interleaved_senders_keep_global_send_order(self):
        network = make_network()
        network.send(0, 2, "a")
        network.send(1, 2, "b")
        network.send(0, 2, "c")
        assert [d.payload for d in network.deliver_tick()] == ["a", "b", "c"]

    def test_partition_drops_in_flight_cross_traffic(self):
        network = make_network()
        network.send(0, 3, "doomed")
        network.send(0, 1, "fine")
        network.set_topology(
            network.topology.partition(frozenset(range(4)), frozenset({3}))
        )
        delivered = network.deliver_tick()
        assert [d.payload for d in delivered] == ["fine"]
        assert network.dropped_count == 1

    def test_counters(self):
        network = make_network()
        network.send(0, 1, "x")
        assert network.pending() == 1
        network.deliver_tick()
        assert network.sent_count == 1
        assert network.delivered_count == 1
        assert network.pending() == 0
