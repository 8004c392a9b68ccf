"""The scrape-plane collector: per-node streams → one deterministic view.

A :class:`TelemetryCollector` gathers the flight-recorder streams of a
whole cluster — in-process from a
:class:`~repro.service.cluster.StoreCluster`, over the controller pipe
from a :class:`~repro.gcs.proc.controller.ProcCluster` — plus whatever
scenario-level series the caller notes directly, and presents both
deterministically:

* :meth:`aggregated_jsonl` — every node's header and events as one
  canonical JSONL document, nodes in a fixed order, events in recorded
  order.  For the deterministic substrates this text is **byte
  identical across replays** (the acceptance criterion the telemetry
  scenario test pins);
* :meth:`fold` — the streams reduced into a
  :class:`~repro.obs.metrics.MetricsRegistry` (event counts per node
  and kind, drop counts) merged with the noted series, in the same
  fixed node order — the merge discipline of
  :func:`repro.obs.metrics.merge_registries`, so shard order can never
  leak into the output.

The noted series use :meth:`note_request` / :meth:`note_tick` /
:meth:`note_availability`, which is what
:func:`repro.service.scenario.run_scenario` calls while routing; the
latency/availability distributions come back out through
:meth:`~repro.obs.metrics.Histogram.percentile` in :meth:`describe`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.canonical import canonical_digest, canonical_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.recorder import (
    FLIGHT_HEADER_KIND,
    FlightRecorder,
)

NodeName = Union[int, str]


def _node_order(node: NodeName) -> Tuple[int, Union[int, str]]:
    """Fixed node ordering: integer pids first, then named streams."""
    if isinstance(node, int):
        return (0, node)
    return (1, str(node))


def fold_flight_streams(streams: List[Dict[str, Any]]) -> MetricsRegistry:
    """Reduce stream snapshots to flight counters, in the given order."""
    registry = MetricsRegistry()
    for stream in streams:
        node = stream["node"]
        registry.counter("telemetry.flight.recorded", node=node).inc(
            stream.get("recorded", len(stream["events"]))
        )
        registry.counter("telemetry.flight.dropped", node=node).inc(
            stream.get("dropped", 0)
        )
        for event in stream["events"]:
            registry.counter(
                "telemetry.flight.events", node=node, event=event["event"]
            ).inc()
    return registry


class TelemetryCollector:
    """Pulls per-node flight streams and folds them deterministically."""

    def __init__(self) -> None:
        self._streams: Dict[NodeName, Dict[str, Any]] = {}
        #: Scenario-noted series (requests, blame, per-tick histograms).
        self.registry = MetricsRegistry()

    # ------------------------------------------------------------------
    # Stream intake.
    # ------------------------------------------------------------------

    def add_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Install one node's stream snapshot (last write wins)."""
        self._streams[snapshot["node"]] = {
            "node": snapshot["node"],
            "capacity": snapshot.get("capacity"),
            "recorded": snapshot.get("recorded", len(snapshot["events"])),
            "dropped": snapshot.get("dropped", 0),
            "events": list(snapshot["events"]),
        }

    def attach(self, recorder: FlightRecorder) -> None:
        """Pull one in-process recorder's current stream."""
        self.add_snapshot(recorder.snapshot())

    def collect_store_cluster(self, cluster: Any) -> None:
        """Pull every replica recorder of a :class:`StoreCluster`."""
        for pid in sorted(cluster.recorders):
            self.attach(cluster.recorders[pid])

    def collect_proc_cluster(self, cluster: Any) -> None:
        """Pull every node stream of a :class:`ProcCluster` (pipe)."""
        for snapshot in cluster.collect_telemetry().values():
            self.add_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Aggregated views.
    # ------------------------------------------------------------------

    def nodes(self) -> List[NodeName]:
        """Every collected node, in the fixed aggregation order."""
        return sorted(self._streams, key=_node_order)

    def aggregated_events(self) -> List[Dict[str, Any]]:
        """Headers and events of every node, in aggregation order."""
        lines: List[Dict[str, Any]] = []
        for node in self.nodes():
            stream = self._streams[node]
            lines.append(
                {
                    "kind": FLIGHT_HEADER_KIND,
                    "node": node,
                    "capacity": stream["capacity"],
                    "recorded": stream["recorded"],
                    "dropped": stream["dropped"],
                }
            )
            lines.extend(stream["events"])
        return lines

    def aggregated_jsonl(self) -> str:
        """The whole cluster's telemetry as canonical JSON lines.

        Replay-deterministic on the deterministic substrates: same
        seeded scenario, byte-identical text (trace ids included).
        """
        return canonical_jsonl(self.aggregated_events())

    def aggregated_digest(self) -> str:
        """A content digest of :meth:`aggregated_jsonl`."""
        return canonical_digest(self.aggregated_events())

    # ------------------------------------------------------------------
    # Scenario-side notes (called while routing requests).
    # ------------------------------------------------------------------

    def note_request(self, outcome: str, blame: Optional[str] = None) -> None:
        """Count one routed request by outcome (and blame if unserved)."""
        self.registry.counter("service.requests", outcome=outcome).inc()
        if blame is not None:
            self.registry.counter("service.unserved", blame=blame).inc()

    def note_tick(self, requests: int, served: int) -> None:
        """Feed the per-tick load/served distributions."""
        self.registry.histogram("service.tick.requests").observe(requests)
        self.registry.histogram("service.tick.served").observe(served)

    def note_availability(
        self, user_percent: float, round_percent: float
    ) -> None:
        """Record the run's two headline availability figures."""
        self.registry.gauge("service.availability.user_percent").set(
            user_percent
        )
        self.registry.gauge("service.availability.round_percent").set(
            round_percent
        )

    # ------------------------------------------------------------------
    # Fold and describe.
    # ------------------------------------------------------------------

    def fold(self) -> MetricsRegistry:
        """Streams + noted series as one deterministic registry."""
        folded = fold_flight_streams(
            [self._streams[node] for node in self.nodes()]
        )
        folded.merge(self.registry)
        return folded

    def describe(self) -> str:
        """A terminal-friendly summary (uses ``Histogram.percentile``)."""
        lines: List[str] = []
        events = 0
        dropped = 0
        for node in self.nodes():
            stream = self._streams[node]
            events += len(stream["events"])
            dropped += stream["dropped"]
        lines.append(
            f"telemetry: {len(self._streams)} node streams, "
            f"{events} events retained, {dropped} dropped off rings"
        )
        by_event: Dict[str, int] = {}
        for node in self.nodes():
            for event in self._streams[node]["events"]:
                by_event[event["event"]] = by_event.get(event["event"], 0) + 1
        if by_event:
            breakdown = ", ".join(
                f"{name}={count}" for name, count in sorted(by_event.items())
            )
            lines.append(f"  events: {breakdown}")
        for name in ("service.tick.requests", "service.tick.served"):
            series = self.registry.get(name)
            if series is not None and series.count:  # type: ignore[union-attr]
                summary = series.summary()  # type: ignore[union-attr]
                lines.append(
                    f"  {name}: p50={summary['p50']} p90={summary['p90']} "
                    f"p99={summary['p99']} max={summary['max']}"
                )
        user = self.registry.get("service.availability.user_percent")
        rounds = self.registry.get("service.availability.round_percent")
        if user is not None and rounds is not None:
            lines.append(
                f"  availability: user-perceived {user.value:.2f}% vs "
                f"round-level {rounds.value:.2f}%"  # type: ignore[union-attr]
            )
        return "\n".join(lines)
