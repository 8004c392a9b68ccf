"""``service_sim``: the replicated store under seeded load, in logical time.

A unit runs the same write-heavy profile against the three stock
partition schedules, once without telemetry (``ops_per_s``, latency,
``unserved_share``) and once with a ``TelemetryCollector``
(``recorded_ops_per_s``) -- the pair prices the recorder.  Everything
is a pure function of the seed, so requests, unserved requests and the
rendered reports are exact.  The op is the client request routed, a
timed call one ``run_scenario``.
"""

from __future__ import annotations

from time import perf_counter

from harness import Context, digest

PROFILE = dict(clients=32, ticks=400, put_permille=800)
SCHEDULES = ("split_restore", "cascade", "flip_flop")


def service_sim(ctx: Context) -> None:
    from repro.gcs.proc.schedule import STOCK_SCHEDULES
    from repro.obs.telemetry.collector import TelemetryCollector
    from repro.service import report as reporting
    from repro.service import scenario
    from repro.service.load import LoadProfile

    # Warm-up doubles as the pinned fault-free baseline: with no
    # schedule every request must be served.
    calm = scenario.run_scenario(
        LoadProfile(clients=8, ticks=60, seed=ctx.seed),
        collector=TelemetryCollector(),
    )

    unserved_by_unit = {}
    recorded = {}
    ctx.begin()
    k = 0
    while k == 0 or not ctx.expired():
        profile = LoadProfile(seed=ctx.unit_seed(k), **PROFILE)
        unit_ops = unit_unserved = 0
        rendered = []
        with ctx.unit(k):
            for name in SCHEDULES:
                schedule = STOCK_SCHEDULES[name]
                started = perf_counter()
                plain = scenario.run_scenario(profile, schedule=schedule)
                ctx.call(
                    k, plain["requests"]["total"], perf_counter() - started
                )
                unit_ops += plain["requests"]["total"]
                unit_unserved += plain["requests"]["unserved"]["total"]

                collector = TelemetryCollector()
                started = perf_counter()
                observed = scenario.run_scenario(
                    profile, schedule=schedule, collector=collector
                )
                recorded.setdefault(str(k), []).append([
                    observed["requests"]["total"],
                    1e3 * (perf_counter() - started),
                ])
                with ctx.layer("obs.telemetry.collect"):
                    telemetry = collector.aggregated_jsonl()
                with ctx.layer("service.report"):
                    text = reporting.render_report(plain)
                rendered.append(text)
                ctx.check(
                    text == reporting.render_report(observed),
                    f"{name}: the report changes when telemetry is on",
                )
                ctx.check(
                    telemetry.count("\n") > plain["requests"]["total"],
                    f"{name}: telemetry holds fewer events than requests",
                )
        unserved_by_unit[str(k)] = [unit_unserved, unit_ops]
        ctx.digests[str(k)] = digest(rendered)
        k += 1
    ctx.end()

    ctx.check(
        calm["availability"]["user_perceived_percent"] == 100.0
        and calm["requests"]["unserved"]["total"] == 0,
        "fault-free pass served "
        f"{calm['availability']['user_perceived_percent']} %",
    )
    ctx.counts["unit0_unserved"], ctx.counts["unit0_requests"] = (
        unserved_by_unit["0"]
    )
    ctx.extras["unserved_by_unit"] = unserved_by_unit
    ctx.extras["recorded_calls"] = recorded
