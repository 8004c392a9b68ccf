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

The causal spans (`repro.obs.causal`) and the distributed telemetry
(`repro.obs.telemetry`) are imported from those packages only: both
import `repro.sim` modules that import this package, so re-exporting
them here would close an import cycle.

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
]
