"""The in-memory transport: legacy equivalence, fault deferral.

Two obligations from the transport redesign:

* **byte-identity** — ``GCSCluster`` on the (default) fault-free
  :class:`MemoryTransport` must reproduce the pre-seam packet network
  exactly: same views, same tick counts, same traffic counters,
  whatever the attachment spelling (default, name, instance);
* **explicit deferral** — with link faults attached the transport may
  hold packets across ticks; :meth:`pending` accounts for every held
  packet and ``run_until_stable`` refuses to call a tick quiet while
  anything is still in flight.
"""

import pytest

from repro.errors import UnsupportedTransportConfig
from repro.faults import LinkFaults
from repro.gcs import GCSCluster, MemoryTransport, PrimaryComponentService
from repro.gcs.transport.base import resolve_transport
from repro.net.topology import Topology


def run_scenario(cluster):
    """A fixed partition/heal scenario; returns its observable trace."""
    trace = [cluster.run_until_stable()]
    cluster.set_topology(
        cluster.topology.partition(frozenset(range(5)), frozenset({3, 4}))
    )
    trace.append(cluster.run_until_stable())
    whole = Topology.fully_connected(5)
    cluster.set_topology(whole)
    trace.append(cluster.run_until_stable())
    trace.append(sorted(
        (view_id, tuple(sorted(members)))
        for view_id, members in cluster.common_views().items()
    ))
    transport = cluster.transport
    trace.append(
        (transport.sent_count, transport.delivered_count,
         transport.dropped_count)
    )
    return trace


class TestLegacyEquivalence:
    def test_every_attachment_spelling_is_identical(self):
        # None (default), "memory", and a constructed instance must be
        # indistinguishable, down to the traffic counters.
        traces = [
            run_scenario(GCSCluster(5)),
            run_scenario(GCSCluster(5, transport="memory")),
            run_scenario(GCSCluster(5, transport=MemoryTransport())),
        ]
        assert traces[0] == traces[1] == traces[2]

    def test_resolver_refuses_unknown_backends(self):
        with pytest.raises(UnsupportedTransportConfig, match="unknown"):
            resolve_transport("carrier-pigeon")
        with pytest.raises(UnsupportedTransportConfig, match="Transport"):
            resolve_transport(42)

    def test_fault_free_quiet_tick_implies_nothing_pending(self):
        # The stability rule added for deferring backends ("quiet" also
        # requires pending() == 0) is vacuous on the fault-free memory
        # path: deliver_tick always drains the whole queue, so a tick
        # that moved nothing left nothing behind.  This is what makes
        # the new rule behaviour-identical to the legacy detector.
        cluster = GCSCluster(4)
        for _ in range(30):
            moved = cluster.tick()
            if not moved:
                assert cluster.transport.pending() == 0


class TestFaultDeferral:
    def test_delay_holds_packets_across_ticks(self):
        link = LinkFaults(delay_permille=1000, delay_max=3, seed=11)
        transport = MemoryTransport(
            topology=Topology.fully_connected(2), link=link
        )
        for i in range(8):
            transport.send(0, 1, i)
        assert transport.pending() == 8
        collected = []
        ticks_with_holdover = 0
        for _ in range(6):
            collected.extend(d.payload for d in transport.deliver_tick())
            if transport.pending():
                ticks_with_holdover += 1
        # Delays actually deferred something, and every packet arrived
        # exactly once (delay may reorder across maturity ticks — the
        # GCS stack tolerates that; loss it is not).
        assert ticks_with_holdover > 0
        assert sorted(collected) == list(range(8))
        assert transport.pending() == 0

    def test_run_until_stable_waits_out_deferred_packets(self):
        # With delay faults the membership protocol still converges to
        # the correct views — stability detection must not fire early
        # while matured-later packets are pending.
        link = LinkFaults(delay_permille=700, delay_max=4, seed=3)
        cluster = GCSCluster(4, transport=MemoryTransport(link=link))
        cluster.run_until_stable(max_ticks=400)
        assert cluster.views_agree_with_topology()
        assert cluster.transport.pending() == 0

    def test_loss_is_replayable_and_seed_selected(self):
        def counters(seed):
            link = LinkFaults(loss_permille=300, seed=seed)
            cluster = GCSCluster(4, transport=MemoryTransport(link=link))
            # The initial views already cover the universe, so force a
            # real renegotiation — that is where the traffic (and the
            # loss draws) happen.
            cluster.run_until_stable(max_ticks=400)
            cluster.set_topology(
                cluster.topology.partition(frozenset(range(4)),
                                           frozenset({3}))
            )
            cluster.run_until_stable(max_ticks=400)
            cluster.set_topology(Topology.fully_connected(4))
            cluster.run_until_stable(max_ticks=400)
            assert cluster.views_agree_with_topology()
            transport = cluster.transport
            return (transport.sent_count, transport.delivered_count,
                    transport.dropped_count)

        first = counters(5)
        assert first == counters(5)  # pure replay
        assert first[2] > 0  # losses actually happened
        assert first != counters(6)  # the seed selects the environment

    def test_reorder_converges_to_same_views_as_fifo(self):
        link = LinkFaults(reorder=True, seed=9)
        faulted = PrimaryComponentService(
            "ykd", 5, transport=MemoryTransport(link=link)
        )
        clean = PrimaryComponentService("ykd", 5)
        for service in (faulted, clean):
            service.run_until_stable()
            service.set_topology(
                service.cluster.topology.partition(
                    frozenset(range(5)), frozenset({0, 1})
                )
            )
            service.run_until_stable()
        assert faulted.primary_members() == clean.primary_members() == (2, 3, 4)
