"""``gcs_udp``: view agreement and primary election over real UDP sockets.

One five-process ``PrimaryComponentService("ykd", transport="udp")``
lives in the child; a unit walks it through the five connectivity
stages of ``split_restore`` and ``cascade`` (the seed picks where in
the cycle a repeat starts).  The op is the reconfiguration settled, a
timed call ``set_topology`` until ``run_until_stable`` returns.  The
same stage sequence on the in-memory transport is the oracle for the
stable views and primaries -- and, through a recording transport, the
source of the datagrams the wire and ARQ layers are replayed over.
"""

from __future__ import annotations

import time
from time import perf_counter
from typing import Any, List, Tuple

from harness import Context, digest

ALGORITHM = "ykd"
N = 5
#: Frames pushed through one ArqSender/ArqReceiver pair per replay.
ARQ_REPLAY_FRAMES = 2000


def stage_cycle() -> List[Tuple[Tuple[int, ...], ...]]:
    """Stages 1.. of ``split_restore`` then ``cascade`` (each ends healed)."""
    from repro.gcs.proc.schedule import STOCK_SCHEDULES

    return [
        *STOCK_SCHEDULES["split_restore"].stages[1:],
        *STOCK_SCHEDULES["cascade"].stages[1:],
    ]


def stable_outcome(service) -> Any:
    """The convergence-relevant facts of a stable point, JSON-ready."""
    return {
        "views": [
            sorted(service.cluster.stacks[pid].view_members)
            for pid in range(N)
        ],
        "primaries": [
            pid for pid in range(N) if service.processes[pid].in_primary()
        ],
    }


def reconfigure(service, stage) -> int:
    from repro.net.topology import Topology

    service.set_topology(
        Topology(components=tuple(frozenset(c) for c in stage))
    )
    return service.run_until_stable()


def gcs_udp(ctx: Context) -> None:
    from repro.gcs.adapter import PrimaryComponentService

    cycle = stage_cycle()
    offset = ctx.seed % len(cycle)
    outcomes = []
    unacked_at_stable = 0
    service = PrimaryComponentService(ALGORITHM, N, transport="udp")
    try:
        service.run_until_stable()
        transport = service.cluster.transport
        sent_before = transport.sent_count
        cpu_before = time.process_time()
        ticks_before = service.cluster.ticks
        ctx.begin()
        k = 0
        while k == 0 or not ctx.expired():
            with ctx.unit(k):
                for index in range(len(cycle)):
                    stage = cycle[(offset + index) % len(cycle)]
                    started = perf_counter()
                    reconfigure(service, stage)
                    ctx.call(k, 1, perf_counter() - started)
                    outcomes.append(stable_outcome(service))
                    unacked_at_stable += transport.arq_stats()["unacked"]
            k += 1
        reconfigs = len(outcomes)
        arq = transport.arq_stats()
        ctx.layers.update({
            "gcs.ticks_per_reconfig":
                (service.cluster.ticks - ticks_before) / reconfigs,
            "gcs.datagrams_per_reconfig":
                (transport.sent_count - sent_before) / reconfigs,
            "gcs.transport.arq.transmissions": arq["transmissions"],
            "gcs.transport.arq.retransmit_share":
                arq["retransmissions"] / max(1, arq["transmissions"]),
            "gcs.transport.asyncnet.cpu_ms_per_reconfig":
                1e3 * (time.process_time() - cpu_before) / reconfigs,
        })
    finally:
        service.close()
    traced = ctx.tracer is not None
    ctx.end()

    # The oracle: the same stages on the deterministic memory transport.
    reference, datagrams = memory_reference(cycle, offset, len(outcomes))
    for index, (got, want) in enumerate(zip(outcomes, reference)):
        ctx.check(
            got == want,
            f"reconfiguration {index}: UDP settled on {got}, memory on {want}",
        )
    ctx.check(
        unacked_at_stable == 0,
        f"{unacked_at_stable} frames unacknowledged at stable points",
    )
    ctx.digests["cycle"] = digest(reference[:len(cycle)])
    ctx.counts["unit0_datagrams"] = len(datagrams)
    if traced:
        ctx.layers.update(replay_wire(datagrams))
        ctx.layers.update(replay_arq(datagrams))
        ctx.layers["gcs.transport.arq.lossy_reconfig_ms"] = lossy_pass(
            ctx, cycle
        )


def memory_reference(cycle, offset: int, reconfigs: int):
    """Stable outcomes of the same sequence in memory, plus the
    datagrams of its first cycle as the stack handed them over."""
    from repro.gcs.adapter import PrimaryComponentService
    from repro.gcs.transport.memory import MemoryTransport

    class Recording(MemoryTransport):
        def __init__(self) -> None:
            super().__init__()
            self.captured: List[Tuple[int, int, Any]] = []

        def send(self, src, dst, payload=None) -> None:
            self.captured.append((src, dst, payload))
            super().send(src, dst, payload)

    transport = Recording()
    service = PrimaryComponentService(ALGORITHM, N, transport=transport)
    service.run_until_stable()
    outcomes = []
    first_cycle: List[Tuple[int, int, Any]] = []
    for index in range(reconfigs):
        reconfigure(service, cycle[(offset + index) % len(cycle)])
        outcomes.append(stable_outcome(service))
        if index == len(cycle) - 1:
            first_cycle = list(transport.captured)
    return outcomes, first_cycle or list(transport.captured)


def replay_wire(datagrams) -> dict:
    """Encode+frame and deframe+decode over the captured datagrams."""
    from repro.gcs.transport import wire

    started = perf_counter()
    frames = [
        wire.frame(wire.encode_datagram(src, dst, payload))
        for src, dst, payload in datagrams
    ]
    encode_s = perf_counter() - started
    started = perf_counter()
    for data in frames:
        wire.decode_datagram(wire.deframe(data))
    decode_s = perf_counter() - started
    count = max(1, len(frames))
    return {
        "gcs.transport.wire.encode_us": 1e6 * encode_s / count,
        "gcs.transport.wire.decode_us": 1e6 * decode_s / count,
        "gcs.transport.wire.bytes_per_datagram":
            sum(len(data) for data in frames) / count,
    }


def replay_arq(datagrams) -> dict:
    """One sender/receiver pair fed the captured bodies, loss-free."""
    from repro.gcs.transport import wire
    from repro.gcs.transport.arq import ArqReceiver, ArqSender

    bodies = [
        wire.encode_datagram(src, dst, payload)
        for src, dst, payload in datagrams
    ]
    if not bodies:
        return {"gcs.transport.arq.us_per_frame": 0.0}
    sender, receiver = ArqSender(0, 1), ArqReceiver(0, 1)
    frames = 0
    started = perf_counter()
    while frames < ARQ_REPLAY_FRAMES:
        sender.queue(bodies[frames % len(bodies)])
        for data in sender.frames_due(0.0):
            _, ack = receiver.on_data(data)
            sender.on_ack(ack["ack"])
            frames += 1
    return {
        "gcs.transport.arq.us_per_frame":
            1e6 * (perf_counter() - started) / frames,
    }


def lossy_pass(ctx: Context, cycle) -> float:
    """Median reconfiguration time over UDP with 10 % injected loss."""
    import statistics

    from repro.faults.model import LinkFaults
    from repro.gcs.adapter import PrimaryComponentService
    from repro.gcs.transport.asyncnet import UdpTransport

    service = PrimaryComponentService(
        ALGORITHM, N,
        transport=UdpTransport(
            link=LinkFaults(loss_permille=100, seed=ctx.seed)
        ),
    )
    samples = []
    try:
        service.run_until_stable()
        for stage in cycle:
            started = perf_counter()
            reconfigure(service, stage)
            samples.append(1e3 * (perf_counter() - started))
    finally:
        service.close()
    return statistics.median(samples)
