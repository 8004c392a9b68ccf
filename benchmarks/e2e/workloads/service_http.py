"""``service_http``: the store behind its HTTP front ends, on real sockets.

One process, one thread, one event loop hosts
``FrontendGroup(StoreCluster(5), tick_interval=0.005)`` *and* the load
generator; at most two client requests are in flight.  Ops come from
the repository's pure-hash ``workload`` (four clients, every tick, half
writes), each routed to its client's pinned replica and following one
307 hop.  A connectivity change is applied every
:data:`CHANGE_PERIOD_S`, cycling the stages of ``split_restore`` and
``cascade``.

*Paced phase* (60 % of the repeat): lane 1 is an open loop at
:data:`PACED_RATE` requests/s, each timed from the instant it was due;
lane 2 probes ``PUT /kv/probe`` every :data:`PROBE_PERIOD_S` (skipping
ahead when late) to time each change's outage.  *Closed phase* (40 %):
both lanes issue ops back to back; throughput is counted per change
period, so every slice holds exactly one connectivity change.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Tuple

from harness import Context, digest, percentile

N = 5
TICK_INTERVAL_S = 0.005
CHANGE_PERIOD_S = 0.4
#: Together with the probes about a third of the loop's time: at the
#: issue's 300/s plus a probe every 2 ms the single thread ran near
#: saturation whenever the VM slowed, and p90 measured the VM.
PACED_RATE = 150.0
PROBE_PERIOD_S = 0.005
PACED_SHARE = 0.6
ALLOWED_STATUSES = {200, 307, 503}
#: Generous upper bound of requests/s in the closed phase, to size the
#: op stream generated during set-up (it is cycled if ever exhausted).
CLOSED_RATE_CEILING = 2500.0


async def http(address, method: str, path: str, body: bytes = b""):
    """One request on a fresh connection -> (status, Location, payload)."""
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("ascii") + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    location = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"location":
            location = value.strip().decode("ascii")
    return status, location, payload


class Lanes:
    """The two client lanes and everything they observe."""

    def __init__(self, ctx: Context, peers, ops, profile) -> None:
        from repro.service.load import replica_for

        self.ctx = ctx
        self.peers = peers
        self.ops = ops
        self.cursor = 0
        self.profile = profile
        self.replica_for = replica_for
        self.statuses: Dict[int, int] = {}
        self.errors = 0
        self.requests = 0
        self.redirected = 0
        self.service_s = 0.0  # sum of sent -> done over all requests
        #: key -> values of acknowledged PUTs.
        self.acked: Dict[str, set] = {}
        self.paced: List[Tuple[float, bool]] = []  # (due -> done ms, served)
        self.late_ms: List[float] = []
        self.probes: List[Tuple[float, bool]] = []  # (done time, acked)
        self.closed_done: List[float] = []  # completion times

    def next_op(self):
        op = self.ops[self.cursor % len(self.ops)]
        self.cursor += 1
        return op

    async def request(self, method, replica, key, value=None) -> bool:
        """One client request, following one redirect; True when served."""
        body = b""
        if method == "PUT":
            body = json.dumps({"value": value}).encode("utf-8")
        path = f"/kv/{key}"
        sent = perf_counter()
        self.requests += 1
        try:
            status, location, _ = await http(
                self.peers[replica], method, path, body
            )
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 307 and location is not None:
                self.redirected += 1
                host, _, port = location[len("http://"):].partition("/")[
                    0
                ].partition(":")
                status, _, _ = await http((host, int(port)), method, path, body)
                self.statuses[status] = self.statuses.get(status, 0) + 1
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            self.errors += 1
            return False
        finally:
            self.service_s += perf_counter() - sent
        served = status == 200
        if served and method == "PUT":
            self.acked.setdefault(key, set()).add(value)
        return served

    async def op_request(self, op) -> bool:
        replica = self.replica_for(self.profile, op.client, N, op.tick)
        if self.ctx.tracer is not None:
            self.ctx.tracer.trace_id = (
                f"{self.ctx.workload}/0/{self.requests}"
            )
        return await self.request(
            "PUT" if op.kind == "put" else "GET", replica, op.key, op.value
        )

    async def paced_lane(self, start: float, seconds: float) -> None:
        index = 0
        while True:
            due = start + index / PACED_RATE
            if due - start >= seconds:
                return
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append(1e3 * max(0.0, perf_counter() - due))
            served = await self.op_request(self.next_op())
            self.paced.append((1e3 * (perf_counter() - due), served))
            index += 1

    async def probe_lane(self, start: float, seconds: float) -> None:
        index = 0
        while True:
            now = perf_counter()
            index = max(index, int((now - start) / PROBE_PERIOD_S))
            due = start + index * PROBE_PERIOD_S
            if due - start >= seconds:
                return
            if due > now:
                await asyncio.sleep(due - now)
            acked = await self.request("PUT", 0, "probe", f"p{index}")
            self.probes.append((perf_counter(), acked))
            index += 1

    async def closed_lane(self, end: float) -> None:
        while perf_counter() < end:
            await self.op_request(self.next_op())
            self.closed_done.append(perf_counter())


def outages_ms(changes: List[float], probes, end: float) -> List[float]:
    """Per connectivity change: first refused probe to the first
    acknowledged probe after the last refusal (0 when none refused)."""
    result = []
    for index, changed in enumerate(changes):
        until = changes[index + 1] if index + 1 < len(changes) else end
        window = [(t, ok) for t, ok in probes if changed <= t < until]
        refused = [t for t, ok in window if not ok]
        if not refused:
            result.append(0.0)
            continue
        healed = [t for t, ok in window if ok and t > refused[-1]]
        result.append(1e3 * ((healed[0] if healed else until) - refused[0]))
    return result


async def drive(ctx: Context) -> None:
    from repro.service.cluster import StoreCluster
    from repro.service.frontend import FrontendGroup
    from repro.service.load import LoadProfile, workload

    from workloads.gcs_udp import stage_cycle

    cycle = stage_cycle()
    paced_s = PACED_SHARE * ctx.budget_s
    closed_s = ctx.budget_s - paced_s
    needed = PACED_RATE * paced_s + CLOSED_RATE_CEILING * closed_s
    profile = LoadProfile(
        clients=4, ticks=int(needed / 4) + 1, arrival_permille=1000,
        put_permille=500, burst_gap_mean=0, storm_gap_mean=0,
        seed=ctx.unit_seed(0),
    )
    cluster = StoreCluster(N)
    group = FrontendGroup(cluster, tick_interval=TICK_INTERVAL_S)
    peers = await group.start()
    try:
        ops = workload(profile)
        lanes = Lanes(ctx, peers, ops, profile)
        # Warm-up: wait for the first primary, then touch every route.
        for _ in range(400):
            if await lanes.request("PUT", 0, "warm", "up"):
                break
            await asyncio.sleep(TICK_INTERVAL_S)
        for replica in range(N):
            await lanes.request("GET", replica, "warm")
        warm_requests, warm_errors = lanes.requests, lanes.errors
        lanes.statuses.clear()
        lanes.service_s = 0.0
        lanes.redirected = 0

        changes: List[float] = []

        async def change_connectivity(start: float) -> None:
            index = 0
            while True:
                delay = start + (index + 0.5) * CHANGE_PERIOD_S - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                cluster.apply_stage(cycle[(ctx.seed + index) % len(cycle)])
                changes.append(perf_counter())
                index += 1

        if ctx.tracer is not None:
            # Time the loop spends blocked in select() is waiting, not
            # work: give it a name so the rest of the unit's unattributed
            # time is HTTP handling, asyncio and the client lanes.
            selector = asyncio.get_running_loop()._selector
            selector.select = ctx.tracer.timed("loop.select", selector.select)
        ctx.begin()
        with ctx.unit(0):
            start = perf_counter()
            changer = asyncio.ensure_future(change_connectivity(start))
            try:
                await asyncio.gather(
                    lanes.paced_lane(start, paced_s),
                    lanes.probe_lane(start, paced_s),
                )
                paced_end = perf_counter()
                closed_start = start + paced_s
                closed_end = closed_start + closed_s
                await asyncio.gather(
                    lanes.closed_lane(closed_end),
                    lanes.closed_lane(closed_end),
                )
            finally:
                changer.cancel()
                try:
                    await changer
                except asyncio.CancelledError:
                    pass
        timed_requests = lanes.requests - warm_requests
        timed_errors = lanes.errors - warm_errors
        service_s, redirected = lanes.service_s, lanes.redirected
        if ctx.tracer is not None:
            backend_s = ctx.tracer.total_s("service.frontend.backend")
        statuses = dict(lanes.statuses)

        # Final heal, untimed.  What must hold: everyone rejoins the
        # primary, and a write made after the heal reaches every
        # replica.  What is only audited: whether the replicas agree on
        # the writes made *during* the changes (see README, findings).
        cluster.apply_stage(cycle[-1])
        rejoined = False
        for _ in range(400):
            await asyncio.sleep(TICK_INTERVAL_S)
            if len(cluster.primary_claimants()) == N:
                rejoined = True
                break
        sentinel = f"healed-{ctx.seed}-{ctx.repeat}"
        wrote = await lanes.request("PUT", 0, "healed", sentinel)
        snapshots: List[Dict[str, Any]] = []
        for _ in range(200):
            await asyncio.sleep(TICK_INTERVAL_S)
            snapshots = [
                json.loads((await http(peers[pid], "GET", "/snapshot"))[2])
                for pid in range(N)
            ]
            if all(s["data"].get("healed") == sentinel for s in snapshots):
                break
    finally:
        await group.stop()
    ctx.end()

    ctx.check(rejoined, "not every replica rejoined the primary after the heal")
    ctx.check(
        wrote and len(snapshots) == N and all(
            s["data"].get("healed") == sentinel for s in snapshots
        ),
        "a write made after the final heal did not reach every replica",
    )
    ctx.check(
        set(statuses) <= ALLOWED_STATUSES,
        f"unexpected HTTP statuses {sorted(set(statuses) - ALLOWED_STATUSES)}",
    )
    data = [s["data"] for s in snapshots] or [{}]
    ctx.extras["diverged_keys"] = sum(
        any(d.get(key) != data[0].get(key) for d in data)
        for key in set().union(*data)
    )
    ctx.extras["lost_acked_keys"] = sum(
        data[0].get(key) not in values for key, values in lanes.acked.items()
    )
    ctx.attempted += timed_requests
    ctx.failed += timed_errors
    if timed_errors:
        ctx.failures.append(f"{timed_errors} requests raised")

    served = [ms for ms, ok in lanes.paced if ok]
    ctx.latency_ms = served
    slices = Counter(
        int((done - closed_start) / CHANGE_PERIOD_S)
        for done in lanes.closed_done
    )
    whole = int(closed_s / CHANGE_PERIOD_S)
    if whole:
        for index in range(whole):
            ctx.call(0, slices[index], CHANGE_PERIOD_S)
    else:
        ctx.call(0, len(lanes.closed_done), closed_s)
    paced_changes = [t for t in changes if t < paced_end]
    ctx.extras["outage_ms"] = outages_ms(paced_changes, lanes.probes, paced_end)
    ctx.extras["unserved_by_unit"] = {
        f"repeat{ctx.repeat}": [len(lanes.paced) - len(served), len(lanes.paced)]
    }
    ctx.digests["0"] = digest([op.to_dict() for op in ops[:200]])
    ctx.counts["generated_ops"] = len(ops)
    ctx.layers.update({
        "service.frontend.redirect_share": redirected / max(1, timed_requests),
        "service.frontend.served_p99_ms": percentile(served, 99),
        "loadgen.late_p99_ms": percentile(lanes.late_ms, 99),
    })
    if ctx.tracer is not None:
        # Client-observed time the wrapped backend calls do not explain.
        ctx.layers["service.frontend.http_overhead_us"] = (
            1e6 * (service_s - backend_s) / max(1, timed_requests)
        )


def service_http(ctx: Context) -> None:
    asyncio.run(drive(ctx))
