"""The in-memory transport: the packet network behind a driver seam.

This is the routing :class:`~repro.gcs.stack.GCSCluster` always had —
FIFO unicast channels, one tick of latency, connectivity gated by the
component topology at delivery time — extracted verbatim behind the
:class:`~repro.gcs.transport.base.Transport` interface.  With no link
faults attached, its behaviour is byte-identical to that routing
(``tests/test_gcs_packets.py``, the pre-transport suite, passes on it).

``link=`` accepts a :class:`repro.faults.LinkFaults` and injects wire
faults per packet, replayably: every draw is a pure hash of
``(link.seed, packet serial, sender, recipient)`` through
:mod:`repro.faults.link` — no RNG stream, no ambient randomness.  Loss
drops the packet at its delivery tick; delay defers maturity across
ticks (the explicit-deferral contract :meth:`pending` accounts for);
``reorder`` releases matured packets in a deterministically shuffled
order instead of send order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.faults.link import delivery_delay, delivery_lost, reorder_key
from repro.faults.model import LinkFaults
from repro.gcs.transport.base import Datagram, Transport
from repro.net.topology import Topology
from repro.types import Members, ProcessId


class MemoryTransport(Transport):
    """FIFO unicast channels gated by the component topology.

    Semantics (unchanged from the historical packet network):

    * unicast only — multicast is built above, in the view-synchrony
      layer;
    * per-(src, dst) FIFO ordering (unless ``link.reorder`` shuffles
      matured releases);
    * one simulation tick of base latency (sent this tick, deliverable
      next) plus any injected delay;
    * a datagram is delivered only if its endpoints are connected *at
      delivery time*; partitions drop in-flight traffic across the new
      boundary, which is how mid-protocol interruption arises naturally
      here.
    """

    kind = "memory"
    realtime = False

    def __init__(
        self,
        topology: Optional[Topology] = None,
        link: Optional[LinkFaults] = None,
    ) -> None:
        self.topology = topology
        self.link = link
        #: (serial, mature_tick, datagram); mature_tick is unused (0)
        #: on the fault-free fast path, which delivers the whole queue
        #: every tick exactly as the legacy network did.
        self._in_flight: Deque[Tuple[int, int, Datagram]] = deque()
        self._tick = 0
        self._serial = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # ------------------------------------------------------------------
    # Transport interface.
    # ------------------------------------------------------------------

    def bind(self, universe: Members, local_pids: Members) -> None:
        """Default to full connectivity when no topology was given."""
        if self.topology is None:
            self.topology = Topology.fully_connected(len(universe))

    def connected(self, a: ProcessId, b: ProcessId) -> bool:
        """Whether a datagram from ``a`` can currently reach ``b``."""
        if a == b:
            return True
        if self.topology.is_crashed(a) or self.topology.is_crashed(b):
            return False
        return b in self.topology.component_of(a)

    def send(self, src: ProcessId, dst: ProcessId, payload: Any = None) -> None:
        """Queue a datagram; it matures on the next tick plus any delay."""
        self.sent_count += 1
        serial = self._serial
        self._serial += 1
        mature = 0
        if self.link is not None:
            mature = self._tick + 1 + delivery_delay(
                self.link, serial, src, dst
            )
        self._in_flight.append(
            (serial, mature, Datagram(src=src, dst=dst, payload=payload))
        )

    def set_topology(self, topology: Topology) -> None:
        """Install a new topology; in-flight cross-boundary traffic will
        be dropped when its delivery tick arrives."""
        self.topology = topology

    def deliver_tick(self) -> List[Datagram]:
        """Deliver everything matured before this tick, in send order
        (or the injected reorder permutation)."""
        self._tick += 1
        if self.link is None:
            return self._deliver_all()
        return self._deliver_faulted()

    def pending(self) -> int:
        """Everything queued or delay-deferred, not yet delivered."""
        return len(self._in_flight)

    # ------------------------------------------------------------------
    # Delivery paths.
    # ------------------------------------------------------------------

    def _deliver_all(self) -> List[Datagram]:
        """The fault-free fast path: the legacy network's exact loop."""
        deliverable: List[Datagram] = []
        pending = self._in_flight
        self._in_flight = deque()
        for _, _, datagram in pending:
            if self.connected(datagram.src, datagram.dst):
                deliverable.append(datagram)
                self.delivered_count += 1
            else:
                self.dropped_count += 1
        return deliverable

    def _deliver_faulted(self) -> List[Datagram]:
        link = self.link
        held: Deque[Tuple[int, int, Datagram]] = deque()
        matured: List[Tuple[int, int, Datagram]] = []
        for entry in self._in_flight:
            (matured if entry[1] <= self._tick else held).append(entry)
        self._in_flight = held
        if link.reorder:
            # Pure-hash shuffle keyed per packet serial; the serial
            # tie-break keeps the permutation total and replayable.
            matured.sort(
                key=lambda entry: (
                    reorder_key(
                        link, entry[0], entry[2].dst, entry[2].src
                    ),
                    entry[0],
                )
            )
        deliverable: List[Datagram] = []
        for serial, _, datagram in matured:
            if not self.connected(datagram.src, datagram.dst):
                self.dropped_count += 1
            elif delivery_lost(link, serial, datagram.src, datagram.dst):
                self.dropped_count += 1
            else:
                deliverable.append(datagram)
                self.delivered_count += 1
        return deliverable
