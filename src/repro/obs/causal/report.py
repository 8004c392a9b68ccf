"""Forensics reports: canonical JSONL, plain text, self-contained HTML.

Three renderings of one :class:`~repro.obs.causal.SpanSet`:

* :func:`spans_to_jsonl` — the canonical interchange form, framed by
  the shared :mod:`repro.obs.canonical` encoder.  Equal span sets
  serialize to byte-identical text, which is what the live-vs-offline
  differential test compares.
* :func:`render_forensics_report` — the terminal report: availability,
  the blame breakdown, attempt outcomes, interruption causes, and the
  attempt round distribution (percentiles via
  :meth:`~repro.obs.metrics.Histogram.percentile`).
* :func:`render_html_report` — a single self-contained HTML file
  (stdlib only, inline CSS, no external assets) with the same tables
  plus an embedded timeline, suitable for CI artifacts.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.canonical import canonical_jsonl, write_text
from repro.obs.causal.spans import (
    ATTEMPT_OUTCOMES,
    BLAME_CATEGORIES,
    SpanSet,
)
from repro.obs.metrics import Histogram

#: Buckets of the attempt-extent distribution: attempts settle within
#: a few rounds, the tail runs to the length of a run.
REPORT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Rows the HTML attempts table shows before it states the cap.
MAX_ATTEMPT_ROWS = 200


def spans_to_jsonl(spans: SpanSet) -> str:
    """The whole span set as canonical JSON lines."""
    return canonical_jsonl(spans.to_dicts())


def write_spans_jsonl(spans: SpanSet, path: Union[str, Path]) -> Path:
    """Write the canonical span JSONL; returns the written path."""
    return write_text(path, spans_to_jsonl(spans))


def attempt_rounds_histogram(
    spans: SpanSet, outcome: Optional[str] = None
) -> Histogram:
    """Open-to-close extents of (optionally one outcome's) attempts."""
    label = outcome if outcome is not None else "all"
    histogram = Histogram(
        "attempt_rounds", (("outcome", label),), REPORT_BUCKETS
    )
    for span in spans.attempts:
        if outcome is None or span.outcome == outcome:
            histogram.observe(span.rounds)
    return histogram


# ----------------------------------------------------------------------
# Text report.
# ----------------------------------------------------------------------


def render_forensics_report(
    spans: SpanSet, labels: Optional[Mapping[str, Any]] = None
) -> str:
    """The terminal forensics report of one span set."""
    lines: List[str] = []
    header = "availability forensics"
    if labels:
        tagged = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        header = f"{header} — {tagged}"
    lines.append(header)
    lines.append("=" * len(header))

    runs = spans.runs
    available = sum(1 for run in runs if run.available)
    decided = sum(1 for run in runs if run.available is not None)
    total = spans.total_rounds
    lines.append(
        f"runs: {len(runs)} ({available}/{decided} available)"
        if decided
        else f"runs: {len(runs)}"
    )
    lines.append(
        f"rounds: {total} total, {spans.primary_rounds} with a primary, "
        f"{spans.nonprimary_rounds} without"
    )
    if spans.truncated:
        lines.append("WARNING: trace was truncated — spans are incomplete")

    lines.append("")
    lines.append("blame for rounds without a primary:")
    totals = spans.blame_totals()
    nonprimary = spans.nonprimary_rounds
    for category in BLAME_CATEGORIES:
        count = totals[category]
        share = (100.0 * count / nonprimary) if nonprimary else 0.0
        lines.append(f"  {category:<22} {count:>8}  ({share:5.1f}%)")

    lines.append("")
    lines.append("agreement attempts:")
    outcomes = spans.outcome_counts()
    for outcome in ATTEMPT_OUTCOMES:
        if outcome in outcomes:
            lines.append(f"  {outcome:<22} {outcomes[outcome]:>8}")
    for outcome in sorted(set(outcomes) - set(ATTEMPT_OUTCOMES)):
        lines.append(f"  {outcome:<22} {outcomes[outcome]:>8}")

    interruptions = spans.interruption_counts()
    if interruptions:
        lines.append("")
        lines.append("interrupted by:")
        for kind in sorted(interruptions):
            lines.append(f"  {kind:<22} {interruptions[kind]:>8}")

    histogram = attempt_rounds_histogram(spans)
    if histogram.count:
        summary = histogram.summary()
        lines.append("")
        lines.append(
            "attempt extent (rounds): "
            f"p50={summary['p50']} p90={summary['p90']} "
            f"p99={summary['p99']} max={summary['max']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML report (stdlib only, fully self-contained).
# ----------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1c2733; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #dde3ea; font-size: .9rem; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { background: #4a90d9; height: .7rem; display: inline-block; }
.bar.no_quorum_possible { background: #c0504d; }
.bar.attempt_in_flight { background: #f0ad4e; }
.bar.ambiguous_blocked { background: #8064a2; }
.bar.algorithm_idle { background: #9aa5b1; }
pre.timeline { background: #f6f8fa; padding: 1rem; overflow-x: auto;
               font-size: .8rem; line-height: 1.35; }
.warn { color: #b3261e; font-weight: 600; }
.tag { background: #eef2f6; border-radius: .3rem; padding: .1rem .4rem;
       margin-right: .3rem; font-size: .8rem; }
"""


def _row(cells: List[str], tag: str = "td") -> str:
    return "<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>"


def _num(value: Any) -> str:
    return f'<td class="num">{html.escape(str(value))}</td>'


def render_html_report(
    spans: SpanSet,
    title: str = "Availability forensics",
    labels: Optional[Mapping[str, Any]] = None,
    timeline: Optional[str] = None,
) -> str:
    """One self-contained HTML page for a span set.

    ``timeline`` takes pre-rendered text (e.g. from
    :func:`repro.sim.trace.render_timeline` with spans woven in) and is
    embedded verbatim in a ``<pre>`` block.  The attempts table is
    capped at ``MAX_ATTEMPT_ROWS``; the cap is stated explicitly in the
    page when it bites, never silently.
    """
    parts: List[str] = []
    parts.append("<!doctype html><html><head><meta charset='utf-8'>")
    parts.append(f"<title>{html.escape(title)}</title>")
    parts.append(f"<style>{_CSS}</style></head><body>")
    parts.append(f"<h1>{html.escape(title)}</h1>")
    if labels:
        tags = "".join(
            f"<span class='tag'>{html.escape(str(k))}="
            f"{html.escape(str(v))}</span>"
            for k, v in sorted(labels.items())
        )
        parts.append(f"<p>{tags}</p>")
    if spans.truncated:
        parts.append(
            "<p class='warn'>Trace was truncated — spans are incomplete.</p>"
        )

    runs = spans.runs
    available = sum(1 for run in runs if run.available)
    decided = sum(1 for run in runs if run.available is not None)
    parts.append("<h2>Summary</h2><table>")
    parts.append(_row(["runs", "available", "rounds", "primary rounds",
                       "non-primary rounds"], tag="th"))
    parts.append(
        "<tr>"
        + _num(len(runs))
        + _num(f"{available}/{decided}" if decided else "—")
        + _num(spans.total_rounds)
        + _num(spans.primary_rounds)
        + _num(spans.nonprimary_rounds)
        + "</tr>"
    )
    parts.append("</table>")

    parts.append("<h2>Blame breakdown (rounds without a primary)</h2>")
    parts.append("<table>")
    parts.append(_row(["category", "rounds", "share", ""], tag="th"))
    totals = spans.blame_totals()
    nonprimary = spans.nonprimary_rounds
    for category in BLAME_CATEGORIES:
        count = totals[category]
        share = (100.0 * count / nonprimary) if nonprimary else 0.0
        bar = (
            f"<span class='bar {category}' "
            f"style='width:{share * 3:.0f}px'></span>"
        )
        parts.append(
            "<tr><td>" + html.escape(category) + "</td>"
            + _num(count) + _num(f"{share:.1f}%")
            + f"<td>{bar}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Attempt outcomes</h2><table>")
    parts.append(_row(["outcome", "attempts", "p50 rounds", "p90 rounds",
                       "p99 rounds", "max"], tag="th"))
    outcomes = spans.outcome_counts()
    ordered = [o for o in ATTEMPT_OUTCOMES if o in outcomes] + sorted(
        set(outcomes) - set(ATTEMPT_OUTCOMES)
    )
    for outcome in ordered:
        summary = attempt_rounds_histogram(spans, outcome).summary()
        parts.append(
            "<tr><td>" + html.escape(outcome) + "</td>"
            + _num(outcomes[outcome])
            + _num(summary["p50"]) + _num(summary["p90"])
            + _num(summary["p99"]) + _num(summary["max"]) + "</tr>"
        )
    parts.append("</table>")

    interruptions = spans.interruption_counts()
    if interruptions:
        parts.append("<h2>Interruption causes</h2><table>")
        parts.append(_row(["change kind", "attempts interrupted"], tag="th"))
        for kind in sorted(interruptions):
            parts.append(
                "<tr><td>" + html.escape(kind) + "</td>"
                + _num(interruptions[kind]) + "</tr>"
            )
        parts.append("</table>")

    parts.append("<h2>Attempts</h2><table>")
    parts.append(_row(["run", "members", "opened", "closed", "outcome",
                       "message rounds", "cause"], tag="th"))
    for span in spans.attempts[:MAX_ATTEMPT_ROWS]:
        parts.append(
            "<tr>" + _num(span.run_index)
            + "<td>{" + html.escape(",".join(map(str, span.members))) + "}</td>"
            + _num(f"r{span.open_round}")
            + _num("open" if span.close_round is None else f"r{span.close_round}")
            + "<td>" + html.escape(span.outcome) + "</td>"
            + _num(span.message_rounds)
            + "<td>" + html.escape(span.interrupted_by or "") + "</td></tr>"
        )
    parts.append("</table>")
    if len(spans.attempts) > MAX_ATTEMPT_ROWS:
        parts.append(
            f"<p>Showing {MAX_ATTEMPT_ROWS} of {len(spans.attempts)} "
            "attempts.</p>"
        )

    if timeline:
        parts.append("<h2>Timeline</h2>")
        parts.append(f"<pre class='timeline'>{html.escape(timeline)}</pre>")

    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    spans: SpanSet,
    path: Union[str, Path],
    **kwargs: Any,
) -> Path:
    """Write the HTML report; returns the written path."""
    return write_text(path, render_html_report(spans, **kwargs))
