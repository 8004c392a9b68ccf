"""Live span reconstruction: the subscriber that feeds the builder.

:class:`CausalObserver` is the live half of the differential pair: it
subclasses :class:`~repro.sim.trace.TraceRecorder` and overrides only
its append point (the :class:`~repro.sim.trace.TraceDigester` trick),
so it observes *exactly* the events a trace recorder would record —
same hooks, same order, same dicts — and feeds each one to a
:class:`~repro.obs.causal.SpanBuilder` instead of storing it.  Offline
reconstruction of a recorded trace therefore replays the identical
dict stream through the identical state machine; the byte-identity of
the two paths is pinned by ``tests/test_causal.py``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.causal.builder import SpanBuilder
from repro.obs.causal.spans import SpanSet
from repro.sim.trace import TraceRecorder


class CausalObserver(TraceRecorder):
    """A trace observer that builds spans instead of storing events.

    Attach anywhere a :class:`~repro.sim.trace.TraceRecorder` goes —
    ``DriverLoop(observers=[...])``, ``run_case(observers=[...])`` —
    then call :meth:`finalize` for the reconstructed
    :class:`~repro.obs.causal.SpanSet`.
    """

    def __init__(self) -> None:
        super().__init__(max_events=1)
        self.builder = SpanBuilder()

    def _append(self, event: Dict[str, Any]) -> None:
        self.builder.ingest(event)

    def finalize(self) -> SpanSet:
        """The completed span set (idempotent; closes dangling state)."""
        return self.builder.finalize()
