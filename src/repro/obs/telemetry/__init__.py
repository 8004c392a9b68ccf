"""repro.obs.telemetry: the live cluster's measurement plane.

PR 3 gave the *simulator* one observability substrate; this package
gives the same treatment to the pieces closest to production — the
multi-process cluster (:mod:`repro.gcs.proc`) and the HTTP service
(:mod:`repro.service`).  Three cooperating parts:

* **flight recorders** (:mod:`repro.obs.telemetry.recorder`) — one
  bounded, deterministic ring buffer of structured events per node
  (GCS view changes, ARQ counter movements, store ops, HTTP requests
  with blame tags), dumped as canonical JSONL on demand and
  automatically when a proc node dies, so dead children leave a
  post-mortem;
* **trace propagation** (:mod:`repro.obs.telemetry.trace`) — request
  ids minted by the load generator as a pure hash of ``(seed, client,
  tick)`` and carried through HTTP headers into the frontend, the
  store and the GCS tick loop, so replays produce identical trace ids
  and an unserved request can be joined against the blame span that
  fenced it;
* **the scrape plane** (:mod:`repro.obs.telemetry.prom`,
  :mod:`repro.obs.telemetry.collector`) — a stdlib Prometheus-text
  renderer for the existing :class:`~repro.obs.metrics.MetricsRegistry`
  (served from ``GET /metrics`` on every frontend) and a collector
  that pulls per-node event streams (over the proc-controller pipe for
  a :class:`~repro.gcs.proc.controller.ProcCluster`, in-process for a
  :class:`~repro.service.cluster.StoreCluster`) and folds them into a
  registry with the same deterministic merge discipline PR 3 proved.

Everything here reuses the repo's one canonical encoder
(:mod:`repro.obs.canonical`) and one metrics model
(:mod:`repro.obs.metrics`); nothing is reinvented.  See
``docs/observability.md`` (distributed telemetry) and
``docs/forensics.md`` (post-mortem workflow).
"""

from repro.obs.telemetry.collector import TelemetryCollector, fold_flight_streams
from repro.obs.telemetry.prom import render_prometheus
from repro.obs.telemetry.recorder import (
    FLIGHT_HEADER_KIND,
    FLIGHT_KIND,
    FlightRecorder,
    FlightViewChanges,
    crash_dump_path,
    load_flight_dump,
    parse_flight_jsonl,
    write_crash_dump,
)
from repro.obs.telemetry.trace import TRACE_HEADER, TRACE_NS, mint_trace_id

__all__ = [
    "FLIGHT_HEADER_KIND",
    "FLIGHT_KIND",
    "FlightRecorder",
    "FlightViewChanges",
    "TRACE_HEADER",
    "TRACE_NS",
    "TelemetryCollector",
    "crash_dump_path",
    "fold_flight_streams",
    "load_flight_dump",
    "mint_trace_id",
    "parse_flight_jsonl",
    "render_prometheus",
    "write_crash_dump",
]
