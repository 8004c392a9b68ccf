"""The benchmark's tables: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 benchmarks/e2e/selfcheck.py --write-contract``) and
``selfcheck.py`` refuses a tree where the two disagree, so the names,
units, directions and bounds live in exactly one place.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one contract run measures (``--seconds`` default).
RUN_SECONDS = 12
#: Cold children per run; each measures ``seconds / REPEATS``.
REPEATS = 3
#: The seed whose unit digests ``expected.json`` pins.
DEFAULT_SEED = 0

ALGORITHMS: Tuple[str, ...] = (
    "dfls",
    "mr1p",
    "one_pending",
    "simple_majority",
    "ykd",
    "ykd_aggressive",
    "ykd_unopt",
)

#: name -> (what one op is, what one timed call is, why the workload exists)
WORKLOADS: Dict[str, Tuple[str, str, str]] = {
    "campaign_fresh": (
        "simulated round",
        "run_case of one algorithm (ms per 1000 rounds)",
        "paper-scale fresh-start campaign on the batched kernel: all time "
        "in sim.batch compile+kernel, none in sim.driver; mr1p is two "
        "thirds of it",
    ),
    "campaign_cascading": (
        "routed broadcast",
        "run_case of one algorithm (ms per 1000 broadcasts)",
        "cascading campaign asks for the batched kernel and falls back to "
        "the scalar driver: all time in sim.driver+core, none in sim.batch "
        "(bypass partner of campaign_fresh)",
    ),
    "check_fuzz": (
        "fault plan checked under all 7 algorithms",
        "generate_plan + check_plan of one plan",
        "scalar driver x 7 algorithms x fault injector x oracles, one "
        "schedule at a time: the target of a batched screening front line",
    ),
    "explore": (
        "scenario covered",
        "explore() of one algorithm",
        "exhaustive fork-based model check: the only consumer of "
        "DriverLoop snapshot/restore/fork and sim.statehash",
    ),
    "service_sim": (
        "client request routed",
        "run_scenario of one partition schedule",
        "logical-time write-heavy store scenario: outbox flush, "
        "view-synchronous multicast and LWW apply dominate, no sockets; "
        "a second pass prices telemetry",
    ),
    "service_http": (
        "HTTP request completed (closed loop)",
        "HTTP request served (open loop at 150/s, timed from its due time)",
        "the only path through the hand-rolled HTTP parser, real loopback "
        "sockets and wall-clock ticking while connectivity changes every "
        "400 ms",
    ),
    "gcs_udp": (
        "reconfiguration settled",
        "set_topology until run_until_stable returns",
        "the only workload through gcs.transport wire+arq+asyncnet over "
        "real UDP; reconfiguration time is mostly idle_wait pacing",
    ),
}

#: Workloads whose calls do seed-dependent amounts of work: their
#: latency samples are ms per 1000 ops of the call, not ms per call.
LATENCY_PER_KILO_OP = ("campaign_fresh", "campaign_cascading")
#: Workloads whose every unit makes the same few kinds of call, in the
#: same order (one per algorithm, one per schedule): a latency sample is
#: one kind's time averaged over the run's units, so the percentiles
#: range over kinds and a unit more or less does not move them.
LATENCY_BY_CALL_KIND = (
    "campaign_fresh", "campaign_cascading", "explore", "service_sim",
)

#: (name, unit, better, bound) -- every workload reports every one.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Workload-specific end-to-end metrics: printed, saved and compared by
#: compare.py, but outside the driver contract because not every
#: workload has them.  (name, unit, better, bound, workloads)
EXTRA_END_TO_END: List[Tuple[str, str, str, float, Tuple[str, ...]]] = [
    ("recorded_ops_per_s", "1/s", "higher", 0.10, ("service_sim",)),
    ("outage_ms", "ms", "lower", 0.10, ("service_http",)),
    ("unserved_share", "share", "lower", 0.15,
     ("service_sim", "service_http")),
    ("failed_share", "share", "lower", 0.0, tuple(WORKLOADS)),
]


def _per_algorithm(prefix: str, unit: str, better: str):
    return [(f"{prefix}.{name}", unit, better) for name in ALGORITHMS]


#: (name, unit, better) -- a traced run reports every one; a layer the
#: workload never enters reports 0 (the predicted zeros of the README).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.campaign.self_s", "s", "lower"),
    ("sim.campaign.batched_share", "share", "higher"),
    ("sim.batch.compile.self_s", "s", "lower"),
    ("sim.batch.compile.changes", "count", "lower"),
    ("sim.batch.kernel.self_s", "s", "lower"),
    ("sim.batch.kernel.rounds", "count", "higher"),
    *_per_algorithm("sim.batch.kernel.rounds_per_s", "1/s", "higher"),
    ("sim.driver.rounds", "count", "lower"),
    ("sim.driver.poll_s", "s", "lower"),
    ("sim.driver.cut_s", "s", "lower"),
    ("sim.driver.deliver_s", "s", "lower"),
    ("sim.driver.views_s", "s", "lower"),
    ("sim.driver.observe_s", "s", "lower"),
    ("sim.driver.round_us", "us", "lower"),
    ("sim.driver.snapshot_us", "us", "lower"),
    ("sim.driver.restore_us", "us", "lower"),
    ("sim.driver.snapshots", "count", "lower"),
    ("core.incoming_message_s", "s", "lower"),
    ("core.outgoing_message_poll_s", "s", "lower"),
    ("core.view_changed_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    *_per_algorithm("core.self_s", "s", "lower"),
    ("check.generate_plan_s", "s", "lower"),
    ("check.check_plan_self_s", "s", "lower"),
    ("check.plans", "count", "higher"),
    ("check.expected_failures", "count", "lower"),
    ("check.unexpected_failures", "count", "lower"),
    ("faults.injector.self_s", "s", "lower"),
    ("faults.injector.deliveries", "count", "lower"),
    ("faults.injector.dropped", "count", "lower"),
    ("sim.explore.self_s", "s", "lower"),
    ("sim.explore.scenarios", "count", "higher"),
    ("sim.explore.nodes", "count", "lower"),
    ("sim.explore.dedup_hit_share", "share", "higher"),
    ("sim.statehash.self_s", "s", "lower"),
    ("sim.statehash.calls", "count", "lower"),
    ("service.load.workload_s", "s", "lower"),
    ("service.load.replica_for_us", "us", "lower"),
    ("service.load.ops", "count", "higher"),
    ("service.scenario.self_s", "s", "lower"),
    ("service.report.render_s", "s", "lower"),
    ("service.cluster.tick_us", "us", "lower"),
    ("service.cluster.ticks", "count", "lower"),
    ("service.cluster.put_us", "us", "lower"),
    ("service.cluster.get_us", "us", "lower"),
    ("service.cluster.blame_us", "us", "lower"),
    ("app.replicated_store.put_us", "us", "lower"),
    ("app.replicated_store.on_payload_us", "us", "lower"),
    ("app.replicated_store.applied", "count", "higher"),
    ("gcs.tick_us", "us", "lower"),
    ("gcs.ticks_per_reconfig", "count", "lower"),
    ("gcs.views_installed", "count", "lower"),
    ("gcs.datagrams_per_reconfig", "count", "lower"),
    ("gcs.transport.wire.encode_us", "us", "lower"),
    ("gcs.transport.wire.decode_us", "us", "lower"),
    ("gcs.transport.wire.bytes_per_datagram", "B", "lower"),
    ("gcs.transport.arq.us_per_frame", "us", "lower"),
    ("gcs.transport.arq.transmissions", "count", "lower"),
    ("gcs.transport.arq.retransmit_share", "share", "lower"),
    ("gcs.transport.arq.lossy_reconfig_ms", "ms", "lower"),
    ("gcs.transport.asyncnet.idle_wait_share", "share", "lower"),
    ("gcs.transport.asyncnet.send_us", "us", "lower"),
    ("gcs.transport.asyncnet.deliver_tick_us", "us", "lower"),
    ("gcs.transport.asyncnet.cpu_ms_per_reconfig", "ms", "lower"),
    ("service.frontend.http_overhead_us", "us", "lower"),
    ("service.frontend.backend_us", "us", "lower"),
    ("service.frontend.served_p99_ms", "ms", "lower"),
    ("service.frontend.redirect_share", "share", "lower"),
    ("obs.canonical.json_us", "us", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("obs.telemetry.record_us", "us", "lower"),
    ("obs.telemetry.events", "count", "lower"),
    ("obs.telemetry.collect_s", "s", "lower"),
    ("obs.telemetry.overhead_ratio", "ratio", "lower"),
    ("e2e.recorded_ops_per_s", "1/s", "higher"),
    ("e2e.outage_ms", "ms", "lower"),
    ("e2e.unserved_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "share", "lower"),
]

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _, _, _ in EXTRA_END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def contract() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (_, _, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
