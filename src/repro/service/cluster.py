"""A replicated-store cluster with a service-facing surface.

:class:`StoreCluster` wraps :class:`~repro.gcs.adapter
.PrimaryComponentService` with a :class:`~repro.app.replicated_store
.ReplicatedStore` endpoint per process.  It ticks and settles through
the substrate's own tick and settle loop: the adapter pump drains each
replica's write backlog, so every write leaves within the tick it was
made, exactly as on a multi-process node.  On top it adds the two
things the service layer needs:

* **partition staging** from the recorded-schedule vocabulary
  (:meth:`apply_stage` takes the same component tuples a
  :class:`~repro.gcs.proc.schedule.RecordedSchedule` carries);
* a live **ops view**: per-node store stats, primary claimants, the
  in-progress view-agreement windows from
  :class:`~repro.obs.causal.gcs.GCSViewSpans`, and a causal blame tag
  for every component that cannot currently serve writes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.app.replicated_store import NotPrimaryError, PutOp, ReplicatedStore
from repro.gcs.adapter import PrimaryComponentService
from repro.gcs.stack import GCSCluster
from repro.net.topology import Topology
from repro.obs.causal.gcs import GCSViewSpans
from repro.obs.telemetry.recorder import FlightRecorder, FlightViewChanges
from repro.service.blame import classify_unserved
from repro.types import ProcessId


def store_put(
    store: ReplicatedStore,
    recorder: Optional[FlightRecorder],
    gcs: GCSCluster,
    key: str,
    value: Any,
    trace: Optional[str] = None,
) -> PutOp:
    """Write through one replica, recording it (refused writes too)
    in its flight ring when ``recorder`` is set; ``gcs`` supplies the
    tick.  A :class:`StoreCluster` and a proc node both write here."""
    try:
        op = store.put(key, value)
    except NotPrimaryError:
        if recorder is not None:
            recorder.record(
                "store_put",
                tick=gcs.ticks,
                key=key,
                accepted=False,
                trace=trace,
            )
        raise
    if recorder is not None:
        recorder.record(
            "store_put",
            tick=gcs.ticks,
            key=key,
            accepted=True,
            stamp=list(op.stamp),
            trace=trace,
        )
    return op


def store_get(
    store: ReplicatedStore,
    recorder: Optional[FlightRecorder],
    gcs: GCSCluster,
    key: str,
    default: Any = None,
    trace: Optional[str] = None,
) -> Any:
    """Read a key from one replica, recording it like :func:`store_put`."""
    value = store.get(key, default)
    if recorder is not None:
        recorder.record("store_get", tick=gcs.ticks, key=key, trace=trace)
    return value


class StoreCluster:
    """N replicated-store processes on the deterministic GCS substrate."""

    def __init__(
        self,
        n_processes: int,
        algorithm: str = "ykd",
        record_flight: bool = False,
    ) -> None:
        self.n_processes = n_processes
        self.algorithm = algorithm
        self.view_spans = GCSViewSpans()
        #: One flight recorder per replica when telemetry is on; empty
        #: otherwise, so the recorder-off hot path stays a dict miss.
        self.recorders: Dict[ProcessId, FlightRecorder] = {}
        observers = [self.view_spans]
        if record_flight:
            self.recorders = {
                pid: FlightRecorder(pid, capacity=4096)
                for pid in range(n_processes)
            }
            observers.append(FlightViewChanges(self.recorders))
        self.service = PrimaryComponentService(
            algorithm,
            n_processes,
            endpoint_factory=ReplicatedStore,
            observers=observers,
        )

    # ------------------------------------------------------------------
    # Substrate driving.
    # ------------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Lock-step ticks elapsed since the cluster was built."""
        return self.service.cluster.ticks

    def store(self, pid: ProcessId) -> ReplicatedStore:
        """The replica endpoint hosted by one process."""
        return self.service.endpoints[pid]  # type: ignore[return-value]

    def tick(self) -> bool:
        """One lock-step tick; every replica's write backlog leaves in it."""
        return self.service.tick()

    def warm_up(self, max_ticks: int = 300) -> int:
        """Tick until quiet (views installed, outboxes empty, nothing
        in flight), then run the strict stable-point safety checks."""
        return self.service.run_until_stable(max_ticks)

    def apply_stage(self, stage: Iterable[Iterable[ProcessId]]) -> None:
        """Reshape connectivity from recorded-schedule component tuples."""
        self.service.set_topology(
            Topology(components=tuple(frozenset(c) for c in stage))
        )

    # ------------------------------------------------------------------
    # Service surface.
    # ------------------------------------------------------------------

    def put(
        self,
        pid: ProcessId,
        key: str,
        value: Any,
        trace: Optional[str] = None,
    ):
        """Write through one replica (raises NotPrimaryError outside)."""
        return store_put(
            self.store(pid),
            self.recorders.get(pid),
            self.service.cluster,
            key,
            value,
            trace,
        )

    def get(
        self,
        pid: ProcessId,
        key: str,
        default: Any = None,
        trace: Optional[str] = None,
    ) -> Any:
        """Read a key from one replica (possibly stale outside primary)."""
        return store_get(
            self.store(pid),
            self.recorders.get(pid),
            self.service.cluster,
            key,
            default,
            trace,
        )

    def record(self, pid: ProcessId, event: str, **fields: Any) -> None:
        """Append one event to a replica's flight ring (no-op when off)."""
        recorder = self.recorders.get(pid)
        if recorder is not None:
            recorder.record(event, tick=self.ticks, **fields)

    def snapshot(self, pid: ProcessId) -> Dict[str, Any]:
        """One replica's full contents."""
        return self.store(pid).snapshot()

    def primary_claimants(self) -> Tuple[ProcessId, ...]:
        """Every live process currently claiming the primary."""
        return self.service.primary_members() or ()

    def component_of(self, pid: ProcessId) -> frozenset:
        """The connectivity component one process currently sits in."""
        return self.service.cluster.topology.component_of(pid)

    def views(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """Each process's currently installed view membership."""
        return {
            pid: tuple(sorted(self.service.cluster.stacks[pid].view_members))
            for pid in range(self.n_processes)
        }

    def blame_for(self, pid: ProcessId) -> Optional[str]:
        """Why a write pinned to ``pid`` would go unserved (None: served)."""
        claimants = self.primary_claimants()
        component = self.component_of(pid)
        if set(claimants) & component:
            return None
        return classify_unserved(
            self.n_processes, component, claimants, self.views()
        )

    def ops_view(self) -> Dict[str, Any]:
        """The live operational picture, JSON-ready.

        This is what ``GET /ops`` serves: enough to explain an outage
        while it happens — who claims the primary, which component is
        blocked on what, and which view windows are still installing.
        """
        claimants = self.primary_claimants()
        views = self.views()
        topology = self.service.cluster.topology
        components = []
        for component in topology.components:
            members = sorted(component)
            if set(claimants) & component:
                blame = None
            else:
                blame = classify_unserved(
                    self.n_processes, component, claimants, views
                )
            components.append({"members": members, "blame": blame})
        return {
            "kind": "repro.service/ops",
            "tick": self.ticks,
            "algorithm": self.algorithm,
            "primary": sorted(claimants),
            "components": components,
            "nodes": [
                {
                    "pid": pid,
                    "in_primary": self.store(pid).in_primary(),
                    "view": list(views[pid]),
                    "component": sorted(self.component_of(pid)),
                    "store": self.store(pid).stats(),
                }
                for pid in range(self.n_processes)
            ],
            "view_windows": self.view_spans.open_views(),
        }
