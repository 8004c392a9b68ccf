"""Asyncio network transport: real UDP sockets under the GCS stack.

The backend runs a private asyncio event loop on a daemon thread and
presents the same synchronous :class:`~repro.gcs.transport.base.Transport`
face the in-memory backend does — ``send`` marshals into the loop,
``deliver_tick`` drains a thread-safe queue of decoded datagrams.  On
the wire every frame is length-prefixed canonical JSON
(:mod:`repro.gcs.transport.wire`); above the carrier runs the ARQ of
:mod:`repro.gcs.transport.arq`, so the stack sees reliable FIFO links
even across genuine (or injected) packet loss.

Wire faults (``link=LinkFaults(...)``) are injected at the transmit
boundary, below the ARQ — exactly where a flaky network would sit.
Every draw is a pure hash of ``(link.seed, transmission serial, src,
dst)`` through :mod:`repro.faults.link`, so a given seed always loses
and delays the same transmissions; only the wall-clock interleaving
is real.

Reachability (a partition schedule's view of the world) gates links at
both ends: a sender holds frames queued for unreachable destinations
(no wire traffic, nothing lost), and a receiver drops frames from
sources outside its reachable set.  Unlike the in-memory backend —
which drops cross-boundary in-flight traffic forever — held frames are
delivered after the partition heals; the view-synchrony layer discards
them as stale, and the differential convergence battery pins that
stable views and primaries agree across the substrates anyway.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from typing import Any, Dict, List, Optional

from repro.errors import SimulationError, WireFormatError
from repro.faults.link import delivery_delay, delivery_lost
from repro.faults.model import LinkFaults
from repro.gcs.transport.arq import ReliableLinkMap
from repro.gcs.transport.base import Datagram, Transport
from repro.gcs.transport.wire import (
    decode_datagram,
    deframe,
    encode_datagram,
    frame,
)
from repro.net.topology import Topology
from repro.sim.rng import derive_seed
from repro.types import Members, ProcessId

#: Loopback only: these transports exist to put a real OS network
#: under the stack, not to expose it.
HOST = "127.0.0.1"

#: Seconds one unit of injected ``LinkFaults.delay_max`` holds a
#: transmission (the tick-denominated delay draw, made temporal).
DELAY_UNIT = 0.01


class _AsyncTransportBase(Transport):
    """Shared machinery: loop thread, ARQ pump, fault injection."""

    realtime = True

    def __init__(
        self,
        *,
        link: Optional[LinkFaults] = None,
        ports: Optional[Dict[ProcessId, int]] = None,
        rto: float = 0.04,
        tick_interval: float = 0.01,
    ) -> None:
        self.link = link
        self.rto = rto
        #: Seconds :meth:`idle_wait` paces the driving tick loop by.
        #: Load-bearing: the membership layer emits traffic every tick,
        #: so an unpaced CPU-speed tick loop produces packets faster
        #: than any wall-clock ARQ can drain them.
        self.tick_interval = tick_interval
        self.ports: Dict[ProcessId, int] = dict(ports or {})
        self.universe: Members = frozenset()
        self.local_pids: Members = frozenset()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.injected_lost = 0
        self.injected_delayed = 0
        self._links = ReliableLinkMap(rto=rto)
        self._reachable: Dict[ProcessId, Members] = {}
        self._recv: "queue.SimpleQueue[Datagram]" = queue.SimpleQueue()
        self._pace_event = threading.Event()  # never set: a pure timer
        #: Sends the loop thread has queued on their links; with
        #: ``sent_count`` it gives the sends still in the hand-off.
        self._queued_count = 0
        self._delayed_frames = 0
        self._attempt_serial = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Loop-thread lifecycle.
    # ------------------------------------------------------------------

    def bind(self, universe: Members, local_pids: Members) -> None:
        if self._loop is not None:
            raise SimulationError("transport is already bound")
        self.universe = frozenset(universe)
        self.local_pids = frozenset(local_pids)
        if not self.local_pids <= self.universe:
            raise SimulationError("local pids must belong to the universe")
        started = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            started.set()
            loop.run_forever()
            # Drain cancelled callbacks so sockets close cleanly.
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(
            target=runner, name=f"gcs-{self.kind}-transport", daemon=True
        )
        self._thread.start()
        started.wait()
        future = asyncio.run_coroutine_threadsafe(self._open(), self._loop)
        future.result(timeout=10)

    async def _open(self) -> None:
        await self._open_endpoints()
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def _open_endpoints(self) -> None:
        raise NotImplementedError

    def set_peer_ports(self, ports: Dict[ProcessId, int]) -> None:
        """Install the full pid → port map (multi-process rendezvous)."""
        self.ports.update(ports)

    def close(self) -> None:
        if self._loop is None or self._closed:
            return
        self._closed = True

        async def shutdown() -> None:
            if self._pump_task is not None:
                self._pump_task.cancel()
            await self._close_endpoints()
            asyncio.get_running_loop().stop()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
            self._thread.join(timeout=5)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    async def _close_endpoints(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Transport interface (called from the driving thread).
    # ------------------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        if src not in self.local_pids:
            raise SimulationError(
                f"pid {src} is not hosted behind this transport"
            )
        if self._loop is None:
            raise SimulationError("transport is not bound")
        body = encode_datagram(src, dst, payload)
        # Counted once encoded: a payload the wire format refuses never
        # enters the ledger of pending().
        self.sent_count += 1
        self._loop.call_soon_threadsafe(self._queue_and_kick, src, dst, body)

    def deliver_tick(self) -> List[Datagram]:
        deliverable: List[Datagram] = []
        while True:
            try:
                deliverable.append(self._recv.get_nowait())
            except queue.Empty:
                break
        self.delivered_count += len(deliverable)
        return deliverable

    def pending(self) -> int:
        # The ledger: four terms, each written by one thread, read in
        # the order a datagram moves through them.  A datagram enters
        # the next term before it leaves the previous one (queued
        # before counted, received before acked), so a read in this
        # order may count one twice but never misses one.
        #
        # 1. Handed to the loop thread, not yet queued on its link.
        handed = self.sent_count - self._queued_count
        # 2. Unacked frames on currently *reachable* links; frames
        #    parked behind a partition do not count (they cannot move
        #    until the schedule heals the link, so counting them would
        #    make a partitioned system look eternally unstable).
        unacked = sum(
            sender.pending()
            for sender in self._links.senders()
            if self._can_reach(sender.src, sender.dst)
        )
        # 3. Frames held by an injected delay; 4. received, undrained.
        return handed + unacked + self._delayed_frames + self._recv.qsize()

    def idle_wait(self) -> None:
        # A fixed pace, not a wait-for-traffic: returning early on
        # arrival would let the tick loop outrun the wire again.
        self._pace_event.wait(timeout=self.tick_interval)

    def set_topology(self, topology: Topology) -> None:
        for pid in self.local_pids:
            if topology.is_crashed(pid):
                allowed = frozenset({pid})
            else:
                allowed = topology.component_of(pid)
            previous = self._reachable.get(pid, self.universe)
            self._reachable[pid] = allowed
            # Partition onset: park the in-flight frames of every link
            # that just lost its destination.  The ARQ keeps the queue
            # and marks the frames never-sent, so no retransmission
            # timer burns while the partition lasts and transmission
            # resumes from the base when reachability returns.  Link
            # state lives on the loop thread; marshal the hold over.
            lost = previous - allowed
            if lost and self._loop is not None:
                self._loop.call_soon_threadsafe(
                    self._links.hold_back_towards, pid, lost
                )

    def _can_reach(self, src: ProcessId, dst: ProcessId) -> bool:
        allowed = self._reachable.get(src)
        return allowed is None or dst in allowed

    def arq_stats(self) -> Dict[str, int]:
        """Aggregate ARQ counters across this transport's links.

        Counters are plain ints mutated on the loop thread; reading
        them from the driving thread is a consistent-enough dirty read
        for telemetry (each value is internally exact).
        """
        return self._links.stats()

    # ------------------------------------------------------------------
    # ARQ pump and fault injection (loop thread only).
    # ------------------------------------------------------------------

    def _queue_and_kick(self, src: ProcessId, dst: ProcessId, body: Any) -> None:
        self._links.sender(src, dst).queue(body)
        self._queued_count += 1
        self._flush_link(src, dst)

    async def _pump(self) -> None:
        while True:
            await asyncio.sleep(self.rto / 2)
            for sender in self._links.senders():
                self._flush_link(sender.src, sender.dst)

    def _flush_link(self, src: ProcessId, dst: ProcessId) -> None:
        if not self._can_reach(src, dst):
            return
        now = asyncio.get_event_loop().time()
        for frame_body in self._links.sender(src, dst).frames_due(now):
            self._transmit(src, dst, frame_body)

    def _transmit(self, src: ProcessId, dst: ProcessId, frame_body: Any) -> None:
        """One transmission attempt, through the injected wire faults."""
        serial = self._attempt_serial
        self._attempt_serial += 1
        delay = 0.0
        if self.link is not None:
            if delivery_lost(self.link, serial, src, dst):
                self.injected_lost += 1
                return  # the ARQ will retransmit
            held = delivery_delay(self.link, serial, src, dst)
            delay = held * DELAY_UNIT
            if self.link.reorder:
                # Extra pure-hash jitter so same-instant transmissions
                # land in an arbitrary — but seed-replayable — order.
                jitter = derive_seed(
                    self.link.seed, "gcs.wire.reorder", serial, src, dst
                ) % 1000
                delay += (jitter / 1000.0) * DELAY_UNIT
        data = frame(frame_body)
        if delay > 0:
            self.injected_delayed += 1
            self._delayed_frames += 1

            def fire() -> None:
                self._delayed_frames -= 1
                self._carrier_send(src, dst, data)

            asyncio.get_event_loop().call_later(delay, fire)
        else:
            self._carrier_send(src, dst, data)

    def _carrier_send(self, src: ProcessId, dst: ProcessId, data: bytes) -> None:
        raise NotImplementedError

    def _on_frame(self, local_pid: ProcessId, body: Any) -> None:
        """One decoded frame arrived for a local pid (loop thread)."""
        if not isinstance(body, dict):
            raise WireFormatError(f"frame body must be an object: {body!r}")
        kind = body.get("kind")
        if kind == "data":
            src, dst = body.get("src"), body.get("dst")
            if dst != local_pid or not isinstance(src, int):
                raise WireFormatError(f"misrouted data frame: {body!r}")
            if not self._can_reach(dst, src):
                self.dropped_count += 1
                return  # partition: traffic from an unreachable peer
            receiver = self._links.receiver(src, dst)
            deliverable, ack = receiver.on_data(body)
            for datagram_body in deliverable:
                d_src, d_dst, payload = decode_datagram(datagram_body)
                self._recv.put(Datagram(src=d_src, dst=d_dst, payload=payload))
            self._transmit(dst, src, ack)
        elif kind == "ack":
            src, dst = body.get("src"), body.get("dst")
            if dst not in self.local_pids or not isinstance(src, int):
                raise WireFormatError(f"misrouted ack frame: {body!r}")
            if not self._can_reach(dst, src):
                self.dropped_count += 1
                return
            self._links.sender(dst, src).on_ack(int(body.get("ack", 0)))
            # The window just advanced: push the next batch now rather
            # than waiting for the pump period (line-rate throughput).
            self._flush_link(dst, src)
        else:
            raise WireFormatError(f"unknown frame kind {kind!r}")


class UdpTransport(_AsyncTransportBase):
    """One UDP socket per local pid; one frame per datagram.

    Supports the full injected fault surface (loss, delay, reorder) —
    the ARQ restores the reliable-FIFO contract above it.
    """

    kind = "udp"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._endpoints: Dict[ProcessId, asyncio.DatagramTransport] = {}

    async def _open_endpoints(self) -> None:
        loop = asyncio.get_running_loop()
        for pid in sorted(self.local_pids):
            requested = self.ports.get(pid, 0)

            transport_self = self

            class Protocol(asyncio.DatagramProtocol):
                def __init__(self, local_pid: ProcessId) -> None:
                    self.local_pid = local_pid

                def datagram_received(self, data: bytes, addr) -> None:
                    try:
                        body = deframe(data)
                        transport_self._on_frame(self.local_pid, body)
                    except WireFormatError:
                        transport_self.dropped_count += 1

            transport, _ = await loop.create_datagram_endpoint(
                lambda pid=pid: Protocol(pid), local_addr=(HOST, requested)
            )
            self._endpoints[pid] = transport
            self.ports[pid] = transport.get_extra_info("sockname")[1]

    async def _close_endpoints(self) -> None:
        for transport in self._endpoints.values():
            transport.close()

    def _carrier_send(self, src: ProcessId, dst: ProcessId, data: bytes) -> None:
        port = self.ports.get(dst)
        if port is None:
            return  # peer not known yet; the ARQ retransmits later
        endpoint = self._endpoints.get(src)
        if endpoint is not None and not endpoint.is_closing():
            endpoint.sendto(data, (HOST, port))
