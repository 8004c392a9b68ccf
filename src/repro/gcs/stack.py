"""The per-process group communication stack and its cluster runtime.

``GCStack`` composes the membership agent with the view-synchrony
layer, exposing the two-primitive API the thesis' interface needs:
``multicast(payload)`` and an event stream of view installations and
delivered messages.

``GCSCluster`` is the simulation harness: it owns a pluggable packet
:class:`~repro.gcs.transport.Transport` (in-memory by default, real
UDP sockets on request) and one stack per process, advances
everything in lock-step ticks, and lets tests reshape the topology
between ticks.  Unlike the `repro.sim` driver — which plays the group
communication role itself, as the thesis' testing system did — every
view here is *negotiated* by the membership protocol over
point-to-point packets.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.obs import EventBus, Subscriber
from repro.gcs.membership import (
    Ack,
    AgreedView,
    Install,
    MembershipAgent,
    Nudge,
    Propose,
    ViewId,
)
from repro.gcs.transport.base import Transport, resolve_transport
from repro.gcs.vsync import ViewMessage, VSyncLayer
from repro.net.topology import Topology
from repro.types import Members, ProcessId


@dataclass(frozen=True)
class ViewInstalled:
    """Event: the stack installed a new agreed view."""

    view_id: ViewId
    members: Members
    seq: int


@dataclass(frozen=True)
class Delivered:
    """Event: a view-synchronous multicast arrived."""

    sender: ProcessId
    payload: Any


GCSEvent = Union[ViewInstalled, Delivered]


class GCStack:
    """One process's group communication endpoint.

    ``event_sink``, when given, is called as ``sink(pid, event)`` the
    moment each :data:`GCSEvent` is raised — in addition to (not
    instead of) the event being queued for :meth:`poll_events`.  The
    cluster runtime uses it to publish stack events onto its
    ``repro.obs`` bus.
    """

    def __init__(
        self,
        pid: ProcessId,
        universe: Members,
        event_sink: Optional[Callable[[ProcessId, "GCSEvent"], None]] = None,
    ) -> None:
        self.pid = pid
        self.membership = MembershipAgent(pid, universe)
        self.vsync = VSyncLayer(pid)
        initial = self.membership.current_view
        self.vsync.enter_view(initial.view_id, initial.members)
        self._events: List[GCSEvent] = []
        self._outgoing: List[Tuple[ProcessId, Any]] = []
        self._event_sink = event_sink

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------

    def multicast(self, payload: Any) -> None:
        """Send a payload to every member of the current view."""
        self._outgoing.extend(self.vsync.multicast(payload))

    def poll_events(self) -> List[GCSEvent]:
        """Drain the pending view/delivery events, oldest first."""
        events, self._events = self._events, []
        return events

    @property
    def view_members(self) -> Members:
        return self.membership.view_members

    # ------------------------------------------------------------------
    # Runtime hooks.
    # ------------------------------------------------------------------

    def tick(self, reachable: Members) -> None:
        """Advance the failure detector / membership machinery."""
        before = self.membership.current_view
        self._outgoing.extend(self.membership.observe_reachable(reachable))
        self._note_view_change(before)

    def on_datagram(self, src: ProcessId, payload: Any) -> None:
        """Route one incoming datagram to membership or view synchrony."""
        if isinstance(payload, (Propose, Ack, Install, Nudge)):
            before = self.membership.current_view
            self._outgoing.extend(self.membership.handle(src, payload))
            self._note_view_change(before)
        elif isinstance(payload, ViewMessage):
            for sender, delivered in self.vsync.receive(payload):
                self._emit(Delivered(sender=sender, payload=delivered))
        else:
            raise SimulationError(
                f"stack received unknown payload {type(payload).__name__}"
            )

    def drain_outgoing(self) -> List[Tuple[ProcessId, Any]]:
        """Hand the queued (dst, payload) unicasts to the network layer."""
        outgoing, self._outgoing = self._outgoing, []
        return outgoing

    def _emit(self, event: GCSEvent) -> None:
        """Queue one event and mirror it to the attached sink, if any."""
        self._events.append(event)
        if self._event_sink is not None:
            self._event_sink(self.pid, event)

    def _note_view_change(self, before: AgreedView) -> None:
        current = self.membership.current_view
        if current.view_id == before.view_id:
            return
        buffered = self.vsync.enter_view(current.view_id, current.members)
        self._emit(
            ViewInstalled(
                view_id=current.view_id,
                members=current.members,
                seq=self.membership.view_seq(),
            )
        )
        for sender, payload in buffered:
            self._emit(Delivered(sender=sender, payload=payload))


def proposal_timeout_ticks(transport: Transport) -> int:
    """Ticks a membership proposal may wait for acks on ``transport``.

    The memory transport delivers a datagram by the next tick, so the
    agent's default of 4 ticks holds there.  A realtime transport
    resends a lost frame only after its ARQ's ``rto`` of wall time, and
    a proposal abandoned sooner makes every loss restart agreement; so
    there the timeout spans at least two ``rto`` of ``tick_interval``
    ticks.
    """
    ticks = MembershipAgent.PROPOSAL_TIMEOUT_TICKS
    if transport.realtime:
        ticks = max(
            ticks, math.ceil(2 * transport.rto / transport.tick_interval)
        )
    return ticks


class GCSCluster:
    """Lock-step simulation of a whole group communication system.

    ``observers`` takes any :class:`repro.obs.Subscriber` instances;
    the cluster publishes ``on_gcs_event(cluster, pid, event)`` the
    moment any stack raises a view installation or delivery.

    ``transport`` is the single packet-backend attachment point: pass
    ``None`` (in-memory default), a backend name (``"memory"``,
    ``"udp"``) or a constructed
    :class:`~repro.gcs.transport.Transport` — e.g. a
    ``MemoryTransport(link=LinkFaults(...))`` to inject wire faults.

    ``hosted`` names the processes whose stacks live in this cluster:
    the whole universe by default, one pid on a :mod:`repro.gcs.proc`
    node, whose peers are other OS processes reached over the
    transport.
    """

    def __init__(
        self,
        n_processes: int,
        observers: Iterable[Subscriber] = (),
        *,
        transport: "Optional[Transport | str]" = None,
        hosted: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        if n_processes < 2:
            raise SimulationError("a group needs at least two processes")
        universe = frozenset(range(n_processes))
        hosted = universe if hosted is None else frozenset(hosted)
        self.topology = Topology.fully_connected(n_processes)
        self.transport = resolve_transport(transport)
        self.transport.bind(universe, hosted)
        self.transport.set_topology(self.topology)
        self.bus = EventBus(observers)
        event_hooks = self.bus.hooks("on_gcs_event")
        sink = None
        if event_hooks:
            # A weak reference: the stacks must not keep their cluster
            # alive, or every dropped cluster waits for the cycle GC.
            cluster = weakref.ref(self)

            def sink(pid: ProcessId, event: GCSEvent) -> None:
                for hook in event_hooks:
                    hook(cluster(), pid, event)
        self.stacks: Dict[ProcessId, GCStack] = {
            pid: GCStack(pid, universe, event_sink=sink)
            for pid in sorted(hosted)
        }
        timeout = proposal_timeout_ticks(self.transport)
        for stack in self.stacks.values():
            stack.membership.proposal_timeout_ticks = timeout
        self.ticks = 0

    # ------------------------------------------------------------------
    # Topology control.
    # ------------------------------------------------------------------

    def set_topology(self, topology: Topology) -> None:
        """Reshape the network; failure detectors notice next tick."""
        self.topology = topology
        self.transport.set_topology(topology)

    def reachable(self, pid: ProcessId) -> Members:
        """The oracle reachable set fed to one process's detector."""
        if self.topology.is_crashed(pid):
            return frozenset({pid})
        return self.topology.component_of(pid)

    # ------------------------------------------------------------------
    # The tick loop.
    # ------------------------------------------------------------------

    def tick(self, pump: Optional[Callable[[], None]] = None) -> bool:
        """One lock-step tick; returns True when any traffic moved.

        ``pump``, the hosted applications' step, runs before the flush,
        the one place stack output reaches the transport."""
        self.ticks += 1
        # 1. Deliver whatever the transport has matured.
        deliveries = self.transport.deliver_tick()
        for datagram in deliveries:
            if self.topology.is_crashed(datagram.dst):
                continue
            self.stacks[datagram.dst].on_datagram(
                datagram.src, datagram.payload
            )
        # 2. Advance failure detectors / membership.
        for pid in sorted(self.stacks):
            if not self.topology.is_crashed(pid):
                self.stacks[pid].tick(self.reachable(pid))
        # 3. Run the hosted applications.
        if pump is not None:
            pump()
        # 4. Flush everything the stacks produced into the transport.
        moved = bool(deliveries)
        for pid in sorted(self.stacks):
            for dst, payload in self.stacks[pid].drain_outgoing():
                self.transport.send(pid, dst, payload)
                moved = True
        return moved

    def run_until_stable(
        self,
        max_ticks: int = 200,
        tick: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Tick until the system is quiet; returns ticks used.

        A tick is *quiet* when it moved no traffic **and** the
        transport holds nothing in flight — backends may defer delivery
        across ticks (injected delay, sockets, retransmission), and a
        packet still pending means the silence is not stability.  The
        first quiet tick ends the loop on every backend: ``pending()``
        counts every held packet exactly, and the membership layer
        sends traffic every tick while any view disagrees with its
        reachable set.  Realtime backends pace the ticks with
        :meth:`~repro.gcs.transport.base.Transport.idle_wait`.
        ``tick`` replaces :meth:`tick` for a caller with per-tick work.
        """
        step = tick or self.tick
        for elapsed in range(max_ticks):
            if not step() and self.transport.pending() == 0:
                return elapsed + 1
            if self.transport.realtime:
                self.transport.idle_wait()
        raise SimulationError(
            f"group communication did not stabilize in {max_ticks} ticks"
        )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def views_agree_with_topology(self) -> bool:
        """Does every live process's view equal its component?"""
        return all(
            self.stacks[pid].view_members == self.reachable(pid)
            for pid in self.stacks
            if not self.topology.is_crashed(pid)
        )

    def common_views(self) -> Dict[ViewId, Members]:
        """The distinct views currently installed across the cluster."""
        views: Dict[ViewId, Members] = {}
        for stack in self.stacks.values():
            view = stack.membership.current_view
            views[view.view_id] = view.members
        return views

    def close(self) -> None:
        """Release the transport (sockets/threads of network backends)."""
        self.transport.close()
