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
  proven byte-identical;
* **report** (`report`) — canonical span JSONL, a terminal report and
  a self-contained HTML report.  A :class:`SpanSet` holds plain tuples
  of frozen spans: narrowing it is a comprehension over
  ``spans.attempts``, its aggregates are ``outcome_counts()``,
  ``interruption_counts()`` and ``blame_totals()``.

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
from repro.obs.causal.observer import CausalObserver
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
    "CausalObserver",
    "GCSViewSpans",
    "PrimarySpan",
    "RunSpan",
    "VIEW_AGREED",
    "VIEW_PENDING",
    "VIEW_SUPERSEDED",
    "ViewSpan",
    "SPAN_KIND",
    "SpanBuilder",
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
