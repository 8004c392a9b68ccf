"""Drive seeded load against a partitioning cluster; emit the report.

The runner marries the three deterministic pieces — the pure-hash
workload (:mod:`repro.service.load`), the recorded partition schedule
(:mod:`repro.gcs.proc.schedule`) and the lock-step store cluster
(:mod:`repro.service.cluster`) — so the whole scenario is a pure
function of its inputs.  Running it twice yields byte-identical
availability reports; the CLI's ``--verify-replay`` and the CI smoke
job both assert exactly that.

Routing model (a session-affine load balancer):

* every client is pinned to a replica (re-pinned at reconnect storms);
* **gets** are served by the pinned replica from local state — the
  primary-partition guarantee protects writes, not reads;
* **puts** go to the pinned replica; on a ``NotPrimaryError`` the
  request is redirected once to a primary claimant *reachable from
  that replica's component*.  If none exists, the request is unserved
  and classified by :func:`~repro.service.blame.classify_unserved`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.app.replicated_store import NotPrimaryError
from repro.gcs.proc.schedule import RecordedSchedule
from repro.obs.canonical import canonical_digest
from repro.obs.telemetry.collector import TelemetryCollector
from repro.obs.telemetry.trace import mint_trace_id
from repro.service import load
from repro.service.cluster import StoreCluster
from repro.service.load import ClientOp, LoadProfile, replica_for, storm_ticks
from repro.service.report import build_report
from repro.types import ProcessId


def stage_start_ticks(n_stages: int, ticks: int) -> List[int]:
    """When each schedule stage applies: stage i at ``i*ticks//n``.

    Stage 0 applies before the warm-up, so its entry is always 0.
    """
    return [index * ticks // n_stages for index in range(n_stages)]


#: Tick budget for the first stage's primary to form before any load.
WARMUP_TICKS = 300


def run_scenario(
    profile: LoadProfile,
    schedule: Optional[RecordedSchedule] = None,
    algorithm: str = "ykd",
    n_processes: int = 5,
    collector: Optional[TelemetryCollector] = None,
) -> Dict[str, Any]:
    """Run one load scenario and return its availability report.

    With no schedule the cluster stays fully connected for the whole
    run — the pinned fault-free baseline, which must come out at 100%
    user-perceived availability.

    With a ``collector`` the cluster runs its per-replica flight
    recorders (view changes, store ops, unserved requests — each with
    the request's minted trace id), the routing loop notes
    per-outcome/per-tick series, and the streams are pulled into the
    collector at the end.  The report itself is unchanged — telemetry
    observes the scenario, it never perturbs it — and the collector's
    aggregated JSONL is byte-identical across replays of the same
    profile.
    """
    if schedule is not None:
        n_processes = schedule.n_processes
        stages = list(schedule.stages)
        schedule_name = schedule.name
    else:
        stages = [(tuple(range(n_processes)),)]
        schedule_name = None

    cluster = StoreCluster(
        n_processes, algorithm, record_flight=collector is not None
    )
    starts = stage_start_ticks(len(stages), profile.ticks)
    cluster.apply_stage(stages[0])
    cluster.warm_up(max_ticks=WARMUP_TICKS)

    ops = load.workload(profile)
    by_tick: Dict[int, List[ClientOp]] = {}
    for op in ops:
        by_tick.setdefault(op.tick, []).append(op)
    storms = frozenset(storm_ticks(profile))
    pins: Dict[int, ProcessId] = {}  # client -> replica, this storm epoch
    served_gets = puts_direct = puts_redirected = 0
    unserved: Dict[str, int] = {}
    rounds_with_primary = 0
    stage_rows: List[Dict[str, Any]] = []
    row = None
    stage_index = 0

    for tick in range(profile.ticks):
        while (
            stage_index + 1 < len(stages)
            and starts[stage_index + 1] <= tick
        ):
            stage_index += 1
            cluster.apply_stage(stages[stage_index])
        if row is None or row["stage"] != stage_index:
            row = {
                "stage": stage_index,
                "components": [
                    list(component) for component in stages[stage_index]
                ],
                "ticks": 0,
                "requests": 0,
                "served": 0,
                "unserved": 0,
            }
            stage_rows.append(row)
        if tick in storms:
            pins.clear()
        cluster.tick()
        row["ticks"] += 1
        claimants = cluster.primary_claimants()
        if claimants:
            rounds_with_primary += 1
        tick_requests = tick_served = 0
        for op in by_tick.get(tick, ()):
            row["requests"] += 1
            tick_requests += 1
            replica = pins.get(op.client)
            if replica is None:
                replica = pins[op.client] = replica_for(
                    profile, op.client, n_processes, tick
                )
            trace = (
                mint_trace_id(profile.seed, op.client, tick)
                if collector is not None
                else None
            )
            if op.kind == "get":
                cluster.get(replica, op.key, trace=trace)
                served_gets += 1
                row["served"] += 1
                tick_served += 1
                if collector is not None:
                    collector.note_request("get")
                continue
            try:
                cluster.put(replica, op.key, op.value, trace=trace)
                puts_direct += 1
                row["served"] += 1
                tick_served += 1
                if collector is not None:
                    collector.note_request("put_direct")
                continue
            except NotPrimaryError:
                pass
            component = cluster.component_of(replica)
            reachable = [pid for pid in claimants if pid in component]
            served_redirect = False
            if reachable:
                try:
                    cluster.put(reachable[0], op.key, op.value, trace=trace)
                    puts_redirected += 1
                    row["served"] += 1
                    tick_served += 1
                    served_redirect = True
                    if collector is not None:
                        collector.note_request("put_redirected")
                except NotPrimaryError:  # pragma: no cover - defensive
                    pass
            if served_redirect:
                continue
            category = cluster.blame_for(replica) or "attempt_in_flight"
            unserved[category] = unserved.get(category, 0) + 1
            row["unserved"] += 1
            cluster.record(replica, "unserved", blame=category, trace=trace)
            if collector is not None:
                collector.note_request("unserved", blame=category)
        if collector is not None:
            collector.note_tick(tick_requests, tick_served)

    report = build_report(
        profile=profile,
        algorithm=algorithm,
        n_processes=n_processes,
        schedule_name=schedule_name,
        workload_digest=canonical_digest(op.to_dict() for op in ops),
        served_gets=served_gets,
        puts_direct=puts_direct,
        puts_redirected=puts_redirected,
        unserved=unserved,
        rounds_with_primary=rounds_with_primary,
        stages=stage_rows,
    )
    if collector is not None:
        availability = report["availability"]
        collector.note_availability(
            availability["user_perceived_percent"],
            availability["round_level_percent"],
        )
        collector.collect_store_cluster(cluster)
    return report
