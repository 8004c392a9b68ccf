"""repro.obs.causal: causal attempt tracing and availability forensics.

The layer that turns a flat trace into an explanation.  Every lost
round of a run is attributed to exactly one blame category, every
agreement attempt and primary lifetime becomes a span with causal
links back to the trace events that opened, advanced, and closed it:

* **span model** (`spans`) — :class:`AttemptSpan`, :class:`PrimarySpan`,
  :class:`RunSpan`, :class:`CausalLink`, :class:`SpanSet`;
* **reconstruction** (`builder`, `observer`) — one
  :class:`SpanBuilder` state machine fed either live
  (:class:`CausalObserver` on the event bus) or offline
  (:func:`spans_from_recorder` / :func:`spans_from_jsonl`), the two
  proven byte-identical; :class:`CausalMetrics` folds spans into a
  :class:`~repro.obs.MetricsRegistry` for deterministic shard merge;
* **query + report** (`index`, `report`) — :class:`SpanIndex`
  composable filters, canonical span JSONL, a terminal report and a
  self-contained HTML report.

See ``docs/forensics.md`` for the model and a walkthrough of the
``repro-experiments explain`` CLI built on this package.
"""

from repro.obs.causal.builder import (
    SpanBuilder,
    spans_from_dicts,
    spans_from_jsonl,
    spans_from_recorder,
)
from repro.obs.causal.gcs import (
    VIEW_AGREED,
    VIEW_PENDING,
    VIEW_SUPERSEDED,
    GCSViewSpans,
    ViewSpan,
)
from repro.obs.causal.index import SpanIndex
from repro.obs.causal.observer import SPAN_BUCKETS, CausalMetrics, CausalObserver
from repro.obs.causal.report import (
    attempt_rounds_histogram,
    render_forensics_report,
    render_html_report,
    spans_to_jsonl,
    write_html_report,
    write_spans_jsonl,
)
from repro.obs.causal.spans import (
    ATTEMPT_OUTCOMES,
    BLAME_AMBIGUOUS,
    BLAME_CATEGORIES,
    BLAME_IDLE,
    BLAME_IN_FLIGHT,
    BLAME_NO_QUORUM,
    SPAN_KIND,
    AttemptSpan,
    CausalLink,
    PrimarySpan,
    RunSpan,
    SpanSet,
)

__all__ = [
    "ATTEMPT_OUTCOMES",
    "AttemptSpan",
    "BLAME_AMBIGUOUS",
    "BLAME_CATEGORIES",
    "BLAME_IDLE",
    "BLAME_IN_FLIGHT",
    "BLAME_NO_QUORUM",
    "CausalLink",
    "CausalMetrics",
    "CausalObserver",
    "GCSViewSpans",
    "PrimarySpan",
    "RunSpan",
    "VIEW_AGREED",
    "VIEW_PENDING",
    "VIEW_SUPERSEDED",
    "ViewSpan",
    "SPAN_BUCKETS",
    "SPAN_KIND",
    "SpanBuilder",
    "SpanIndex",
    "SpanSet",
    "attempt_rounds_histogram",
    "render_forensics_report",
    "render_html_report",
    "spans_from_dicts",
    "spans_from_jsonl",
    "spans_from_recorder",
    "spans_to_jsonl",
    "write_html_report",
    "write_spans_jsonl",
]
