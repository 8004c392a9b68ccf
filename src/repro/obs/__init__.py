"""repro.obs: the unified observability layer.

One substrate for everything the simulator can report, in three parts:

* **event bus** (`repro.obs.bus`) — the :class:`Subscriber` protocol
  and its pay-for-what-you-use dispatch.  The driver loop, campaigns
  and the GCS cluster publish; statistics collectors, trace recorders
  and invariant checkers subscribe.  Attach any subscriber through the
  single ``observers=[...]`` parameter of the publisher you care about.
* **metrics** (`repro.obs.metrics`, `repro.obs.collect`,
  `repro.obs.export`) — labelled counters/gauges/histograms with
  deterministic merge, the :class:`CampaignMetrics` subscriber that
  fills a registry from campaign events, and canonical JSONL/CSV
  exporters (JSONL round-trips).
* **profiling & progress** (`repro.obs.profile`,
  `repro.obs.progress`) — per-phase wall/CPU timing of the driver's
  round, and live progress reporting for long campaigns.

See ``docs/observability.md`` for the architecture and a subscriber
how-to, and ``examples/custom_subscriber.py`` for a worked example.
"""

from repro.obs.bus import EventBus, HOOK_NAMES, Subscriber, overrides_hook
from repro.obs.canonical import (
    canonical_digest,
    canonical_json,
    canonical_jsonl,
    canonical_line,
)
from repro.obs.collect import CampaignMetrics
from repro.obs.export import (
    METRICS_KIND,
    load_metrics_jsonl,
    registry_from_jsonl,
    registry_to_csv,
    registry_to_jsonl,
    series_to_dict,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSeries,
    MetricsRegistry,
    canonical_labels,
    merge_registries,
)
from repro.obs.profile import DRIVER_PHASES, PhaseProfiler, PhaseStat
from repro.obs.progress import ProgressReporter

#: Names re-exported lazily from ``repro.obs.causal``.  The causal
#: package's live observer subclasses the trace recorder, so importing
#: it here eagerly would close an import cycle
#: (``repro.sim.stats`` → ``repro.obs`` → causal → ``repro.sim.trace``
#: → ``repro.sim.stats``); PEP 562 lazy loading breaks it while keeping
#: ``from repro.obs import CausalObserver`` working.
_CAUSAL_EXPORTS = frozenset(
    {
        "ATTEMPT_OUTCOMES",
        "AttemptSpan",
        "BLAME_CATEGORIES",
        "CausalLink",
        "CausalObserver",
        "GCSViewSpans",
        "PrimarySpan",
        "ViewSpan",
        "RunSpan",
        "SpanBuilder",
        "SpanSet",
        "render_forensics_report",
        "render_html_report",
        "spans_from_jsonl",
        "spans_from_recorder",
        "spans_to_jsonl",
        "write_html_report",
        "write_spans_jsonl",
    }
)


#: Names re-exported lazily from ``repro.obs.telemetry`` for the same
#: reason: trace minting pulls in ``repro.sim.rng``, which must not be
#: imported while this package is still initializing.
_TELEMETRY_EXPORTS = frozenset(
    {
        "FLIGHT_HEADER_KIND",
        "FLIGHT_KIND",
        "FlightRecorder",
        "TRACE_HEADER",
        "TelemetryCollector",
        "crash_dump_path",
        "load_flight_dump",
        "mint_trace_id",
        "parse_flight_jsonl",
        "render_prometheus",
        "write_crash_dump",
    }
)


def __getattr__(name: str):
    if name in _CAUSAL_EXPORTS:
        from repro.obs import causal

        return getattr(causal, name)
    if name in _TELEMETRY_EXPORTS:
        from repro.obs import telemetry

        return getattr(telemetry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CampaignMetrics",
    "Counter",
    "DEFAULT_BUCKETS",
    "DRIVER_PHASES",
    "EventBus",
    "Gauge",
    "HOOK_NAMES",
    "Histogram",
    "METRICS_KIND",
    "MetricSeries",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseStat",
    "ProgressReporter",
    "Subscriber",
    "canonical_digest",
    "canonical_json",
    "canonical_jsonl",
    "canonical_labels",
    "canonical_line",
    "load_metrics_jsonl",
    "merge_registries",
    "overrides_hook",
    "registry_from_jsonl",
    "registry_to_csv",
    "registry_to_jsonl",
    "series_to_dict",
    "write_metrics_csv",
    "write_metrics_jsonl",
    *sorted(_CAUSAL_EXPORTS),
    *sorted(_TELEMETRY_EXPORTS),
]
