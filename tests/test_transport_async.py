"""The asyncio UDP transport under a single-process cluster.

These run the full GCS stack over *real localhost sockets* — the same
membership/vsync objects, but every datagram crosses the OS network
stack as length-prefixed canonical JSON, with the ARQ restoring the
reliable-FIFO link contract.  Real sockets mean real wall-clock time,
so the suite keeps the clusters small and the schedules short; the
exhaustive cross-substrate convergence matrix lives in the
multi-process battery (``test_proc_cluster.py``).
"""

import sys
import threading
import time

import pytest

from repro.faults import LinkFaults
from repro.gcs import GCSCluster, PrimaryComponentService, UdpTransport
from repro.net.topology import Topology


def partition_heal_trace(cluster):
    """Stabilize through partition and heal; return the view traces."""
    trace = []
    try:
        cluster.run_until_stable(max_ticks=3000)
        trace.append(sorted(
            tuple(sorted(members))
            for members in cluster.common_views().values()
        ))
        cluster.set_topology(
            cluster.topology.partition(frozenset(range(4)), frozenset({2, 3}))
        )
        cluster.run_until_stable(max_ticks=3000)
        assert cluster.views_agree_with_topology()
        trace.append(sorted(
            tuple(sorted(members))
            for members in cluster.common_views().values()
        ))
        cluster.set_topology(Topology.fully_connected(4))
        cluster.run_until_stable(max_ticks=3000)
        assert cluster.views_agree_with_topology()
        trace.append(sorted(
            tuple(sorted(members))
            for members in cluster.common_views().values()
        ))
    finally:
        cluster.close()
    return trace


EXPECTED_TRACE = [
    [(0, 1, 2, 3)],
    [(0, 1), (2, 3)],
    [(0, 1, 2, 3)],
]


class TestUdp:
    def test_partition_heal_convergence(self):
        cluster = GCSCluster(4, transport="udp")
        assert cluster.transport.kind == "udp"
        assert partition_heal_trace(cluster) == EXPECTED_TRACE

    def test_convergence_across_injected_loss(self):
        # 15% loss on every transmission attempt: the ARQ must recover
        # every frame and the stack must still negotiate correct views.
        link = LinkFaults(loss_permille=150, seed=7)
        transport = UdpTransport(link=link, tick_interval=0.005)
        cluster = GCSCluster(4, transport=transport)
        assert partition_heal_trace(cluster) == EXPECTED_TRACE
        assert transport.injected_lost > 0  # faults actually fired
        assert transport._links.retransmissions() > 0  # and ARQ recovered

    def test_primary_component_over_udp(self):
        service = PrimaryComponentService("ykd", 4, transport="udp")
        try:
            service.run_until_stable(max_ticks=3000)
            assert service.primary_members() == (0, 1, 2, 3)
            service.set_topology(
                service.cluster.topology.partition(
                    frozenset(range(4)), frozenset({0})
                )
            )
            service.run_until_stable(max_ticks=3000)
            # {1,2,3} is 3 of 4: it keeps the primary; {0} cannot.
            assert service.primary_members() == (1, 2, 3)
        finally:
            service.close()


def drain(transport, seconds=10.0):
    """Deliver until ``pending()`` reads 0; everything delivered."""
    delivered = []
    deadline = time.monotonic() + seconds
    while transport.pending():
        assert time.monotonic() < deadline, (
            f"{transport.pending()} datagrams still pending"
        )
        delivered += transport.deliver_tick()
        transport.idle_wait()
    return delivered


class TestLedger:
    """``pending()`` is exact: one quiet tick proves stability on it."""

    def test_a_send_counts_before_the_loop_thread_queues_it(self):
        transport = UdpTransport()
        transport.bind(frozenset({0, 1}), frozenset({0, 1}))
        blocked, release = threading.Event(), threading.Event()

        def block_the_loop():
            blocked.set()
            release.wait(timeout=10)

        try:
            transport._loop.call_soon_threadsafe(block_the_loop)
            assert blocked.wait(timeout=10)
            transport.send(0, 1, "held")
            # Still in the hand-off: the loop thread has not queued it.
            assert transport.pending() == 1
            release.set()
            assert [d.payload for d in drain(transport)] == ["held"]
        finally:
            release.set()
            transport.close()

    def test_thousands_of_sends_drain_to_exactly_zero(self):
        # Drain while the loop thread is still receiving, with thread
        # switches far more frequent than by default: the interleaving
        # in which a counter that both threads update loses an update.
        transport = UdpTransport()
        transport.bind(frozenset({0, 1, 2}), frozenset({0, 1, 2}))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            delivered = []
            for serial in range(3000):
                src = serial % 3
                transport.send(src, (src + 1) % 3, serial)
                if serial % 10 == 0:
                    delivered += transport.deliver_tick()
            delivered += drain(transport)
        finally:
            sys.setswitchinterval(switch_interval)
            transport.close()
        assert transport.pending() == 0
        assert transport.deliver_tick() == []
        assert transport.delivered_count == transport.sent_count == 3000
        assert sorted(d.payload for d in delivered) == list(range(3000))


class TestLifecycle:
    def test_send_before_bind_refused(self):
        from repro.errors import SimulationError

        transport = UdpTransport()
        with pytest.raises(SimulationError, match="not hosted|not bound"):
            transport.send(0, 1, None)

    def test_send_from_foreign_pid_refused(self):
        from repro.errors import SimulationError

        transport = UdpTransport()
        transport.bind(frozenset({0, 1}), frozenset({0}))
        try:
            with pytest.raises(SimulationError, match="not hosted"):
                transport.send(1, 0, None)
        finally:
            transport.close()

    def test_double_bind_refused(self):
        from repro.errors import SimulationError

        transport = UdpTransport()
        transport.bind(frozenset({0, 1}), frozenset({0, 1}))
        try:
            with pytest.raises(SimulationError, match="already bound"):
                transport.bind(frozenset({0, 1}), frozenset({0, 1}))
        finally:
            transport.close()

    def test_close_is_idempotent(self):
        transport = UdpTransport()
        transport.bind(frozenset({0, 1}), frozenset({0, 1}))
        transport.close()
        transport.close()
