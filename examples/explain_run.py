#!/usr/bin/env python
"""Availability forensics: explain every lost round of a campaign.

The availability number says *how often* a campaign ended without a
primary; the causal layer says *why* — every round without a primary
is blamed on exactly one cause, and every agreement attempt becomes a
span linked back to the trace events that opened, advanced and closed
it.  This example runs one case observed live, prints the forensics
report, queries the span set, and then proves the live reconstruction
byte-identical to an offline replay of the recorded trace.

Run with: PYTHONPATH=src python examples/explain_run.py
(or just ``repro-experiments explain ykd`` for the CLI equivalent)
"""

from repro.obs.causal import (
    CausalObserver,
    render_forensics_report,
    spans_from_jsonl,
    spans_to_jsonl,
)
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.trace import TraceRecorder, trace_to_jsonl


def main() -> None:
    """One explained campaign case, live and offline."""
    config = CaseConfig(
        algorithm="ykd",
        n_processes=6,
        n_changes=4,
        mean_rounds_between_changes=3.0,
        runs=25,
        master_seed=7,
    )

    # Observe live and record the raw trace on the same event bus.
    recorder = TraceRecorder(max_events=1_000_000)
    causal = CausalObserver()
    result = run_case(config, observers=[recorder, causal])
    spans = causal.finalize()

    print(f"availability: {result.availability_percent:.1f}%\n")
    print(render_forensics_report(spans, labels={"algorithm": "ykd"}))

    # Spans are plain tuples of frozen records, so a query is a
    # comprehension: which partitions cost us in-flight attempts?
    by_partition = [
        span
        for span in spans.attempts
        if span.outcome == "interrupted" and span.interrupted_by == "partition"
    ]
    print()
    print(
        f"interrupted attempts: {spans.outcome_counts().get('interrupted', 0)}"
        f" ({len(by_partition)} by a partition)"
    )
    for span in by_partition[:3]:
        cause = span.closed_by
        print(f"  {span.describe()}  (cut landed at {cause.describe()})")

    # The differential guarantee: reconstructing the recorded trace
    # offline yields the byte-identical span set.
    offline = spans_from_jsonl(trace_to_jsonl(recorder))
    assert spans_to_jsonl(offline) == spans_to_jsonl(spans)
    print("\nlive == offline reconstruction: byte-identical")


if __name__ == "__main__":
    main()
