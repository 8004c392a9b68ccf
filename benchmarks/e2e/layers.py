"""Which callables a traced run wraps, and the per-layer metrics they give.

Layer = module of ``repro``.  Every wrapper is installed in every
traced child whatever its workload, so a layer the workload never
enters reports a measured zero rather than a missing value.  Names are
``<layer>[.<callable>][.<algorithm>]``; a metric sums the names under
its prefix.  ``_s`` and ``_us`` metrics are self times unless the
README says otherwise.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Dict

from harness import Context
from spec import ALGORITHMS, PER_LAYER
from tracing import Tracer

CORE_METHODS = ("incoming_message", "outgoing_message_poll", "view_changed")


class Installed:
    """The wrappers of one traced child and the counters they feed."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.obs.profile import PhaseProfiler

        self.tracer = tracer
        self.profiler = PhaseProfiler()
        self.counters: Dict[str, float] = {}
        self._driver_init: Any = None
        self._install()

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def _install(self) -> None:
        from repro.app.replicated_store import ReplicatedStore
        from repro.check import fuzzer
        from repro.core.registry import algorithm_class, algorithm_names
        from repro.faults.injector import FaultInjector
        from repro.gcs.adapter import PrimaryComponentService
        from repro.gcs.stack import GCStack, ViewInstalled
        from repro.gcs.transport.asyncnet import _AsyncTransportBase
        from repro.gcs.transport.memory import MemoryTransport
        from repro.obs.telemetry.collector import TelemetryCollector
        from repro.obs.telemetry.recorder import FlightRecorder
        from repro.service import frontend, load, scenario
        from repro.service.cluster import StoreCluster
        from repro.sim import campaign
        from repro.sim.batch import api as batch_api
        from repro.sim.driver import DriverLoop

        explorer = importlib.import_module("repro.sim.explore")
        wrap, count = self.tracer.wrap, self._count

        wrap(campaign, "run_case", "sim.campaign", record=True)
        wrap(
            batch_api, "compile_case", "sim.batch.compile", record=True,
            after=lambda runs, *a: count(
                "compile.changes", sum(len(run.changes) for run in runs)
            ),
        )
        wrap(
            batch_api, "execute_batch", "sim.batch.kernel", record=True,
            key=lambda algorithm, *a: algorithm,
            after=lambda outcome, algorithm, *a: count(
                f"kernel.rounds.{algorithm}", outcome.rounds_total
            ),
        )

        wrap(DriverLoop, "run_round", "sim.driver.run_round")
        wrap(DriverLoop, "execute_run", "sim.driver.execute_run")
        wrap(DriverLoop, "execute_schedule", "sim.driver.execute_schedule")
        wrap(DriverLoop, "snapshot", "sim.driver.snapshot")
        wrap(DriverLoop, "restore", "sim.driver.restore")
        self._inject_profiler(DriverLoop)

        for name in algorithm_names():
            for method in CORE_METHODS:
                wrap(
                    algorithm_class(name), method, f"core.{method}",
                    key=lambda self, *a: self.name,
                )

        wrap(fuzzer, "fuzz", "check.fuzz", record=True)
        wrap(fuzzer, "generate_plan", "check.generate_plan")
        wrap(fuzzer, "check_plan", "check.check_plan", record=True)
        wrap(
            FaultInjector, "transform", "faults.injector.transform",
            after=lambda message, *a: message is None and count("held"),
        )
        wrap(
            FaultInjector, "matured", "faults.injector.matured",
            after=lambda due, *a: due and count("released", len(due)),
        )

        wrap(explorer, "explore", "sim.explore", record=True)
        wrap(explorer, "state_fingerprint", "sim.statehash")

        wrap(
            load, "workload", "service.load.workload", record=True,
            after=lambda ops, *a: count("load.ops", len(ops)),
        )
        wrap(load, "replica_for", "service.load.replica_for")
        wrap(scenario, "replica_for", "service.load.replica_for")
        wrap(scenario, "run_scenario", "service.scenario", record=True)
        wrap(StoreCluster, "tick", "service.cluster.tick", record=True)
        wrap(StoreCluster, "put", "service.cluster.put")
        wrap(StoreCluster, "get", "service.cluster.get")
        wrap(StoreCluster, "blame_for", "service.cluster.blame_for")
        wrap(ReplicatedStore, "put", "app.replicated_store.put")
        wrap(ReplicatedStore, "on_payload", "app.replicated_store.on_payload")
        wrap(ReplicatedStore, "_apply_put", "app.replicated_store.apply")

        wrap(PrimaryComponentService, "tick", "gcs.tick")
        wrap(PrimaryComponentService, "set_topology", "gcs.set_topology")
        wrap(
            GCStack, "poll_events", "gcs.poll_events",
            after=lambda events, *a: events and count("gcs.views", sum(
                isinstance(event, ViewInstalled) for event in events
            )),
        )
        wrap(MemoryTransport, "send", "gcs.transport.memory.send")
        for method in ("send", "deliver_tick", "idle_wait"):
            wrap(
                _AsyncTransportBase, method,
                f"gcs.transport.asyncnet.{method}",
            )

        wrap(
            frontend.MemoryNodeBackend, "get", "service.frontend.backend",
            record=True,
        )
        wrap(
            frontend.MemoryNodeBackend, "put", "service.frontend.backend",
            record=True,
        )
        wrap(frontend, "canonical_json", "obs.canonical.json")

        wrap(FlightRecorder, "record", "obs.telemetry.record")
        wrap(
            TelemetryCollector, "collect_store_cluster",
            "obs.telemetry.collect", record=True,
        )

    def _inject_profiler(self, driver_class) -> None:
        """Hand every DriverLoop the shared PhaseProfiler through its
        own ``observers=`` parameter (passing it to ``run_case`` would
        push batchable cases off the kernel)."""
        original = driver_class.__init__
        signature = inspect.signature(original)

        def init(*args: Any, **kwargs: Any) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.arguments["observers"] = [
                *bound.arguments.get("observers", ()), self.profiler
            ]
            original(*bound.args, **bound.kwargs)

        self._driver_init = (driver_class, original)
        driver_class.__init__ = init

    def reset(self) -> None:
        """Forget what set-up did: the numbers describe the timed part."""
        from repro.obs.profile import PhaseProfiler

        self.tracer.totals.clear()
        self.tracer.spans.clear()
        self.counters.clear()
        self.profiler = PhaseProfiler()

    def uninstall(self) -> None:
        self.tracer.uninstall()
        if self._driver_init is not None:
            driver_class, original = self._driver_init
            driver_class.__init__ = original
            self._driver_init = None

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------

    def metrics(self, ctx: Context) -> Dict[str, float]:
        """Every per-layer metric this child can know (the parent adds
        the ones that compare traced with untraced children)."""
        t = self.tracer
        c = self.counters
        m: Dict[str, float] = dict(ctx.layers)

        m["sim.campaign.self_s"] = t.self_s("sim.campaign")
        m["sim.batch.compile.self_s"] = t.self_s("sim.batch.compile")
        m["sim.batch.compile.changes"] = c.get("compile.changes", 0)
        m["sim.batch.kernel.self_s"] = t.self_s("sim.batch.kernel")
        m["sim.batch.kernel.rounds"] = sum(
            v for k, v in c.items() if k.startswith("kernel.rounds.")
        )
        for name in ALGORITHMS:
            seconds = t.total_s(f"sim.batch.kernel.{name}")
            m[f"sim.batch.kernel.rounds_per_s.{name}"] = (
                c.get(f"kernel.rounds.{name}", 0) / seconds if seconds else 0.0
            )
            m[f"core.self_s.{name}"] = sum(
                t.self_s(f"core.{method}.{name}") for method in CORE_METHODS
            )

        rounds = self.profiler.rounds
        phases = {s.phase: s.wall_seconds for s in self.profiler.stats()}
        # A phase bracket contains the algorithm (and injector) calls
        # made in it; take them out so the driver's numbers are its own.
        inner = {
            "poll": t.total_s("core.outgoing_message_poll"),
            "deliver": t.total_s("core.incoming_message")
            + t.total_s("faults.injector"),
            "views": t.total_s("core.view_changed"),
        }
        m["sim.driver.rounds"] = rounds
        for phase in ("poll", "cut", "deliver", "views", "observe"):
            m[f"sim.driver.{phase}_s"] = (
                max(0.0, phases.get(phase, 0.0) - inner.get(phase, 0.0))
                if rounds else 0.0
            )
        m["sim.driver.round_us"] = (
            1e6 * t.self_s("sim.driver.run_round") / rounds if rounds else 0.0
        )
        m["sim.driver.snapshot_us"] = t.self_us_per_call("sim.driver.snapshot")
        m["sim.driver.restore_us"] = t.self_us_per_call("sim.driver.restore")
        m["sim.driver.snapshots"] = t.calls("sim.driver.snapshot")

        for method in CORE_METHODS:
            m[f"core.{method}_s"] = t.self_s(f"core.{method}")
        m["core.calls"] = t.calls("core")

        m["check.generate_plan_s"] = t.self_s("check.generate_plan")
        m["check.check_plan_self_s"] = t.self_s("check.check_plan")
        m["check.plans"] = t.calls("check.check_plan")
        m["faults.injector.self_s"] = t.self_s("faults.injector")
        m["faults.injector.deliveries"] = t.calls("faults.injector.transform")
        m["faults.injector.dropped"] = max(
            0, c.get("held", 0) - c.get("released", 0)
        )

        m["sim.explore.self_s"] = t.self_s("sim.explore")
        m["sim.statehash.self_s"] = t.self_s("sim.statehash")
        m["sim.statehash.calls"] = t.calls("sim.statehash")

        m["service.load.workload_s"] = t.self_s("service.load.workload")
        m["service.load.replica_for_us"] = t.self_us_per_call(
            "service.load.replica_for"
        )
        m["service.load.ops"] = c.get("load.ops", 0)
        m["service.scenario.self_s"] = t.self_s("service.scenario")
        m["service.report.render_s"] = t.self_s("service.report")
        m["service.cluster.tick_us"] = t.self_us_per_call("service.cluster.tick")
        m["service.cluster.ticks"] = t.calls("service.cluster.tick")
        m["service.cluster.put_us"] = t.self_us_per_call("service.cluster.put")
        m["service.cluster.get_us"] = t.self_us_per_call("service.cluster.get")
        m["service.cluster.blame_us"] = t.self_us_per_call(
            "service.cluster.blame_for"
        )
        m["app.replicated_store.put_us"] = t.self_us_per_call(
            "app.replicated_store.put"
        )
        m["app.replicated_store.on_payload_us"] = t.self_us_per_call(
            "app.replicated_store.on_payload"
        )
        m["app.replicated_store.applied"] = t.calls("app.replicated_store.apply")

        reconfigs = t.calls("gcs.set_topology")
        m["gcs.tick_us"] = t.self_us_per_call("gcs.tick")
        m["gcs.ticks_per_reconfig"] = (
            t.calls("gcs.tick") / reconfigs if reconfigs else 0.0
        )
        m["gcs.views_installed"] = c.get("gcs.views", 0)
        m["gcs.datagrams_per_reconfig"] = (
            (
                t.calls("gcs.transport.memory.send")
                + t.calls("gcs.transport.asyncnet.send")
            ) / reconfigs
            if reconfigs else 0.0
        )
        m["gcs.transport.asyncnet.idle_wait_share"] = (
            t.total_s("gcs.transport.asyncnet.idle_wait") / ctx.unit_seconds
            if ctx.unit_seconds else 0.0
        )
        m["gcs.transport.asyncnet.send_us"] = t.self_us_per_call(
            "gcs.transport.asyncnet.send"
        )
        m["gcs.transport.asyncnet.deliver_tick_us"] = t.self_us_per_call(
            "gcs.transport.asyncnet.deliver_tick"
        )

        backend_calls = t.calls("service.frontend.backend")
        m["service.frontend.backend_us"] = (
            1e6 * t.total_s("service.frontend.backend") / backend_calls
            if backend_calls else 0.0
        )
        m["obs.canonical.json_us"] = t.self_us_per_call("obs.canonical.json")

        m["obs.telemetry.record_us"] = t.self_us_per_call(
            "obs.telemetry.record"
        )
        m["obs.telemetry.events"] = t.calls("obs.telemetry.record")
        m["obs.telemetry.collect_s"] = t.self_s("obs.telemetry.collect")

        unit_s = t.total_s("harness.unit")
        m["trace.unattributed_share"] = (
            t.self_s("harness.unit") / unit_s if unit_s else 0.0
        )
        known = {name for name, _, _ in PER_LAYER}
        return {name: float(value) for name, value in m.items() if name in known}
