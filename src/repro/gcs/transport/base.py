"""The transport driver interface of the group communication stack.

Every packet the GCS exchanges crosses exactly one seam: a
:class:`Transport`.  The stack above (membership, view synchrony, the
algorithm adapter) sends ``(src, dst, payload)`` unicasts into it and
periodically drains whatever has become deliverable; it neither knows
nor cares whether the datagrams moved through an in-memory queue
(:class:`~repro.gcs.transport.memory.MemoryTransport`) or a real UDP
socket — the separation JBotSim and QUANTAS get their leverage from,
applied to this repository's substrate.

The contract every backend honours:

* **unicast only** — multicast is built above, in the view-synchrony
  layer;
* **reliable FIFO per (src, dst) link while the endpoints stay
  connected** — the network backends run a small ARQ
  (:mod:`repro.gcs.transport.arq`) to uphold this over genuine packet
  loss; the memory backend has it by construction;
* **connectivity gating** — traffic between disconnected endpoints is
  eventually dropped, never delivered while the partition lasts;
* **explicit deferral** — a backend may hold packets across any number
  of :meth:`Transport.deliver_tick` calls (delay faults, sockets,
  retransmission); it accounts for every held packet in
  :meth:`Transport.pending`, exactly and at any instant, which is how
  ``run_until_stable`` keeps its stability detection sound with one
  quiet tick on every backend (a tick that moves nothing is only
  *stable* when nothing is still in flight).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional

from repro.net.topology import Topology
from repro.types import Members, ProcessId


@dataclass(frozen=True)
class Datagram:
    """One unicast packet as the stack sees it (payload already decoded)."""

    src: ProcessId
    dst: ProcessId
    payload: Any


class Transport(ABC):
    """Abstract packet backend for :class:`~repro.gcs.stack.GCSCluster`.

    Lifecycle: construct → :meth:`bind` once (the cluster does this)
    → any number of :meth:`send` / :meth:`deliver_tick` /
    :meth:`set_topology` cycles → :meth:`close`.

    Attributes:
        kind: stable name of the backend (``"memory"``, ``"udp"``).
        realtime: True when delivery is driven by the wall clock rather
            than by :meth:`deliver_tick` calls; the tick loop then
            paces itself with :meth:`idle_wait`, and the transport
            carries its ARQ's ``rto`` and its ``tick_interval`` in
            seconds, from which the cluster sizes its membership
            proposal timeout.  Stability detection
            is the same on every backend: one tick that moved nothing
            while :meth:`pending` reads zero.
    """

    kind: ClassVar[str] = "abstract"
    realtime: ClassVar[bool] = False

    sent_count: int
    delivered_count: int
    dropped_count: int

    @abstractmethod
    def bind(self, universe: Members, local_pids: Members) -> None:
        """Attach the transport to a universe of process ids.

        ``local_pids`` are the processes hosted behind *this* transport
        instance, the cluster's ``hosted`` set: the whole universe by
        default, a single pid on a :mod:`repro.gcs.proc` node.
        """

    @abstractmethod
    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Queue one unicast from a local pid to any pid."""

    @abstractmethod
    def deliver_tick(self) -> List[Datagram]:
        """Everything deliverable to the local pids *now*, FIFO per link."""

    @abstractmethod
    def pending(self) -> int:
        """Packets accepted but neither delivered nor dropped yet.

        Counts everything the backend is still holding: queued,
        delayed, unacknowledged, or received-but-undrained.  The count
        must be exact whenever the driving thread reads it, also for a
        backend that moves packets on threads of its own: a tick that
        moved no traffic is *stable* as soon as this is zero.
        """

    @abstractmethod
    def set_topology(self, topology: Topology) -> None:
        """Install the connectivity gate from a component topology."""

    def idle_wait(self) -> None:
        """Block briefly while in-flight traffic arrives (realtime only)."""

    def arq_stats(self) -> dict:
        """Aggregate ARQ counters, empty for backends without an ARQ.

        The network backends report their
        :meth:`~repro.gcs.transport.arq.ReliableLinkMap.stats`; the
        in-memory backend is reliable by construction and reports
        nothing.  Node status polls and ``/healthz`` surface this.
        """
        return {}

    def close(self) -> None:
        """Release sockets/threads; further sends are undefined."""


def resolve_transport(
    transport: "Optional[Transport | str]",
) -> Transport:
    """Turn the ``transport=`` argument into a bound-ready instance.

    Accepts ``None`` (the in-memory default), a backend name
    (``"memory"``, ``"udp"``), or an already constructed
    :class:`Transport`.  Unknown names raise
    :class:`~repro.errors.UnsupportedTransportConfig` — loudly, in the
    :class:`~repro.errors.UnsupportedBatchConfig` tradition.
    """
    from repro.errors import UnsupportedTransportConfig

    if transport is None:
        from repro.gcs.transport.memory import MemoryTransport

        return MemoryTransport()
    if isinstance(transport, Transport):
        return transport
    if isinstance(transport, str):
        if transport == "memory":
            from repro.gcs.transport.memory import MemoryTransport

            return MemoryTransport()
        if transport == "udp":
            from repro.gcs.transport.asyncnet import UdpTransport

            return UdpTransport()
        raise UnsupportedTransportConfig(
            f"unknown transport {transport!r}; known backends: "
            "memory, udp"
        )
    raise UnsupportedTransportConfig(
        f"transport must be None, a backend name or a Transport "
        f"instance, not {type(transport).__name__}"
    )
