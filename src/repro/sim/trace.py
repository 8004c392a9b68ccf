"""Structured execution tracing.

A :class:`TraceRecorder` observes a driver loop and records every
interesting event — rounds, broadcasts, connectivity changes, view
installations, primary formations and losses — as typed, timestamped
(by round) entries.  Traces serve three audiences:

* debugging an algorithm implementation (the renderer draws a compact
  per-round timeline of who sent what and which views exist);
* tests that assert *how* an execution unfolded, not just its outcome;
* export (`to_dicts`) for external tooling.

Recording is allocation-light: one small dataclass per event, bounded
by ``max_events`` so long cascading campaigns cannot exhaust memory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.message import Message
from repro.obs import Subscriber
from repro.obs.canonical import canonical_jsonl, canonical_line
from repro.types import ProcessId, sorted_members


@dataclass(frozen=True)
class TraceEvent:
    """Base class: something that happened at a given round."""

    round_index: int

    @property
    def kind(self) -> str:
        return type(self).__name__.replace("Event", "").lower()

    def describe(self) -> str:  # pragma: no cover - overridden
        """One-line human-readable rendering for the timeline."""
        return self.kind

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form of this event."""
        data: Dict[str, Any] = {"kind": self.kind, "round": self.round_index}
        data.update(self._fields())
        return data

    def _fields(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True)
class BroadcastEvent(TraceEvent):
    sender: ProcessId
    items: Tuple[str, ...]

    def describe(self) -> str:
        inner = ", ".join(self.items) if self.items else "app payload"
        return f"p{self.sender} ⇒ [{inner}]"

    def _fields(self) -> Dict[str, Any]:
        return {"sender": self.sender, "items": list(self.items)}


@dataclass(frozen=True)
class ChangeEvent(TraceEvent):
    description: str
    components_after: Tuple[Tuple[ProcessId, ...], ...]

    def describe(self) -> str:
        parts = " ".join(
            "{" + ",".join(map(str, c)) + "}" for c in self.components_after
        )
        return f"change {self.description} → {parts}"

    def _fields(self) -> Dict[str, Any]:
        return {
            "change": self.description,
            "components_after": [list(c) for c in self.components_after],
        }


@dataclass(frozen=True)
class ViewEvent(TraceEvent):
    view_seq: int
    members: Tuple[ProcessId, ...]

    def describe(self) -> str:
        inner = ",".join(map(str, self.members))
        return f"view#{self.view_seq}{{{inner}}} installed"

    def _fields(self) -> Dict[str, Any]:
        return {"view_seq": self.view_seq, "members": list(self.members)}


@dataclass(frozen=True)
class PrimaryFormedEvent(TraceEvent):
    members: Tuple[ProcessId, ...]

    def describe(self) -> str:
        inner = ",".join(map(str, self.members))
        return f"PRIMARY {{{inner}}}"

    def _fields(self) -> Dict[str, Any]:
        return {"members": list(self.members)}


@dataclass(frozen=True)
class PrimaryLostEvent(TraceEvent):
    members: Tuple[ProcessId, ...]

    def describe(self) -> str:
        inner = ",".join(map(str, self.members))
        return f"primary {{{inner}}} dissolved"

    def _fields(self) -> Dict[str, Any]:
        return {"members": list(self.members)}


@dataclass(frozen=True)
class RunBoundaryEvent(TraceEvent):
    run_index: int
    boundary: str  # "start" | "end"
    available: Optional[bool] = None

    def describe(self) -> str:
        if self.boundary == "start":
            return f"— run {self.run_index} begins —"
        verdict = "available" if self.available else "NO primary"
        return f"— run {self.run_index} ends: {verdict} —"

    def _fields(self) -> Dict[str, Any]:
        return {
            "run_index": self.run_index,
            "boundary": self.boundary,
            "available": self.available,
        }


#: kind string → event class, the inverse of :attr:`TraceEvent.kind`.
_EVENT_TYPES: Dict[str, type] = {
    "broadcast": BroadcastEvent,
    "change": ChangeEvent,
    "view": ViewEvent,
    "primaryformed": PrimaryFormedEvent,
    "primarylost": PrimaryLostEvent,
    "runboundary": RunBoundaryEvent,
}


def event_from_dict(data: Mapping[str, Any]) -> TraceEvent:
    """Rebuild one :class:`TraceEvent` from its :meth:`~TraceEvent.to_dict` form.

    The exact inverse of the export encoding:
    ``event_from_dict(e.to_dict()).to_dict() == e.to_dict()`` for every
    event kind (property-tested), which is what lets recorded traces be
    replayed offline — through the span reconstructor, the timeline
    renderer, or a fresh digest — from nothing but their JSONL.
    """
    kind = data.get("kind")
    round_index = int(data["round"])
    if kind == "broadcast":
        return BroadcastEvent(
            round_index=round_index,
            sender=int(data["sender"]),
            items=tuple(str(item) for item in data["items"]),
        )
    if kind == "change":
        return ChangeEvent(
            round_index=round_index,
            description=str(data["change"]),
            components_after=tuple(
                tuple(int(p) for p in component)
                for component in data["components_after"]
            ),
        )
    if kind == "view":
        return ViewEvent(
            round_index=round_index,
            view_seq=int(data["view_seq"]),
            members=tuple(int(p) for p in data["members"]),
        )
    if kind == "primaryformed":
        return PrimaryFormedEvent(
            round_index=round_index,
            members=tuple(int(p) for p in data["members"]),
        )
    if kind == "primarylost":
        return PrimaryLostEvent(
            round_index=round_index,
            members=tuple(int(p) for p in data["members"]),
        )
    if kind == "runboundary":
        available = data.get("available")
        return RunBoundaryEvent(
            round_index=round_index,
            run_index=int(data["run_index"]),
            boundary=str(data["boundary"]),
            available=None if available is None else bool(available),
        )
    raise ValueError(f"unknown trace event kind {kind!r}")


class TraceRecorder(Subscriber):
    """Observer that accumulates a bounded event trace."""

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.truncated = False
        #: Events that arrived after the cap and were not recorded.
        self.dropped_events = 0
        self._run_index = 0
        self._live_primary: Optional[Tuple[ProcessId, ...]] = None

    # ------------------------------------------------------------------
    # Observer hooks.
    # ------------------------------------------------------------------

    def on_run_start(self, driver) -> None:
        self._append(
            RunBoundaryEvent(
                round_index=driver.round_index,
                run_index=self._run_index,
                boundary="start",
            )
        )

    def on_broadcast(self, driver, sender: ProcessId, message: Message) -> None:
        items: Tuple[str, ...] = ()
        if message.piggyback is not None:
            items = tuple(
                type(item).__name__ for item in message.piggyback.items
            )
        self._append(
            BroadcastEvent(
                round_index=driver.round_index, sender=sender, items=items
            )
        )

    def on_change(self, driver, change) -> None:
        self._append(
            ChangeEvent(
                round_index=driver.round_index,
                description=change.describe(),
                components_after=tuple(
                    sorted_members(c) for c in driver.topology.components
                ),
            )
        )

    def on_round(self, driver) -> None:
        for view in driver.views_installed_this_round:
            self._append(
                ViewEvent(
                    round_index=driver.round_index,
                    view_seq=view.seq,
                    members=sorted_members(view.members),
                )
            )
        current = driver.primary_members()
        if current != self._live_primary:
            if self._live_primary is not None:
                self._append(
                    PrimaryLostEvent(
                        round_index=driver.round_index,
                        members=self._live_primary,
                    )
                )
            if current is not None:
                self._append(
                    PrimaryFormedEvent(
                        round_index=driver.round_index, members=current
                    )
                )
            self._live_primary = current

    def on_run_end(self, driver) -> None:
        self._append(
            RunBoundaryEvent(
                round_index=driver.round_index,
                run_index=self._run_index,
                boundary="end",
                available=driver.primary_exists(),
            )
        )
        self._run_index += 1

    # ------------------------------------------------------------------
    # Queries and export.
    # ------------------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            self.dropped_events += 1
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind (e.g. ``"view"``)."""
        return [event for event in self.events if event.kind == kind]

    def formations(self) -> List[PrimaryFormedEvent]:
        """Every primary-formation event, in order."""
        return [e for e in self.events if isinstance(e, PrimaryFormedEvent)]

    def rounds_with_traffic(self) -> List[int]:
        """Round indices at which at least one broadcast happened."""
        return sorted({e.round_index for e in self.events if isinstance(e, BroadcastEvent)})

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready form of the whole trace.

        A truncated trace ends with an explicit marker entry carrying
        the dropped-event count, so capped exports can never be
        mistaken for complete ones.  Untruncated traces export exactly
        their events — no marker — which keeps historical golden files
        byte-stable.
        """
        dicts = [event.to_dict() for event in self.events]
        if self.truncated:
            dicts.append(
                {
                    "kind": "truncation",
                    "truncated": True,
                    "dropped_events": self.dropped_events,
                    "max_events": self.max_events,
                }
            )
        return dicts

    def iter_rounds(self) -> Iterator[Tuple[int, List[TraceEvent]]]:
        """Events grouped by round, in order."""
        current_round: Optional[int] = None
        bucket: List[TraceEvent] = []
        for event in self.events:
            if current_round is None:
                current_round = event.round_index
            if event.round_index != current_round:
                yield current_round, bucket
                current_round, bucket = event.round_index, []
            bucket.append(event)
        if bucket:
            assert current_round is not None
            yield current_round, bucket


def trace_canonical_json(recorder: TraceRecorder) -> str:
    """Canonical JSON text of a whole trace (sorted keys, fixed layout).

    The same execution always produces the same bytes, so equality of
    two canonical texts *is* byte-identity of the two executions as far
    as the trace can see — rounds, broadcasts, changes, views, primary
    formations and losses.  The golden-file regression tests build on
    this.
    """
    payload = {
        "kind": "repro.sim/trace",
        "truncated": recorder.truncated,
        "events": recorder.to_dicts(),
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _event_line(event: TraceEvent) -> bytes:
    """One event as a canonical JSON line (sorted keys, newline-framed).

    Delegates to the shared :mod:`repro.obs.canonical` encoder — the
    same framing the metrics and span exporters use — so every golden
    digest in the repo is defined by one encoder.
    """
    return canonical_line(event.to_dict())


def trace_digest(recorder: TraceRecorder) -> str:
    """SHA-256 hex digest over the canonical per-event JSON stream.

    Digests let large executions (a 10k-round campaign) be pinned in a
    golden file of a few dozen bytes instead of megabytes of JSON.  The
    digest is defined over the newline-framed canonical JSON of each
    event in order, which is exactly what :class:`TraceDigester`
    computes incrementally — the two always agree on the same run.
    """
    sha = hashlib.sha256()
    for event in recorder.events:
        sha.update(_event_line(event))
    return sha.hexdigest()


def trace_to_jsonl(recorder: TraceRecorder) -> str:
    """The whole trace as canonical JSON lines (one event per line).

    Same per-event bytes as the digest stream, newline-framed by the
    shared :func:`repro.obs.canonical.canonical_jsonl` encoder.  A
    truncated trace ends with the explicit ``truncation`` marker line
    from :meth:`TraceRecorder.to_dicts`, so capped exports stay honest.
    """
    return canonical_jsonl(recorder.to_dicts())


def events_from_jsonl(text: str) -> Tuple[List[TraceEvent], bool]:
    """Parse trace JSONL back into events.

    Returns ``(events, truncated)`` — ``truncated`` is True when the
    text ends with a ``truncation`` marker line (which is consumed, not
    returned as an event).
    """
    events: List[TraceEvent] = []
    truncated = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"trace line {line_number}: not valid JSON ({error})"
            ) from error
        if data.get("kind") == "truncation":
            truncated = True
            continue
        events.append(event_from_dict(data))
    return events, truncated


def write_trace_jsonl(
    recorder: TraceRecorder, path: Union[str, Path]
) -> Path:
    """Write the canonical trace JSONL; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_to_jsonl(recorder), encoding="utf-8")
    return path


def recorder_from_events(
    events: Iterable[TraceEvent], truncated: bool = False
) -> TraceRecorder:
    """A recorder pre-filled with existing events (offline replay).

    Gives loaded traces access to every recorder-based consumer —
    :func:`render_timeline`, :func:`trace_digest`,
    :func:`~repro.obs.causal.spans_from_recorder` — without having
    observed a live driver.
    """
    recorder = TraceRecorder()
    recorder.events = list(events)
    recorder.max_events = max(recorder.max_events, len(recorder.events))
    recorder.truncated = truncated
    return recorder


class TraceDigester(TraceRecorder):
    """A trace observer that hashes events instead of storing them.

    Observes exactly the events a :class:`TraceRecorder` would record,
    but folds each one into a running SHA-256 the moment it happens, so
    arbitrarily long campaigns can be digest-pinned in O(1) memory.
    ``hexdigest()`` equals :func:`trace_digest` of an untruncated
    recorder observing the same run.
    """

    def __init__(self) -> None:
        super().__init__(max_events=1)
        self._sha = hashlib.sha256()
        self.event_count = 0

    def _append(self, event: TraceEvent) -> None:
        self._sha.update(_event_line(event))
        self.event_count += 1

    def hexdigest(self) -> str:
        """The digest of everything observed so far."""
        return self._sha.hexdigest()


def render_timeline(
    recorder: TraceRecorder,
    max_rounds: int = 200,
    spans: Optional[Iterable[Any]] = None,
) -> str:
    """A compact human-readable timeline of a trace.

    ``spans`` takes attempt spans (any objects with ``members``,
    ``open_round``, ``close_round`` and ``outcome`` — see
    :class:`repro.obs.causal.AttemptSpan`) and weaves their open/close
    marks into the matching round rows, so the timeline shows not just
    what happened but which agreement attempt it belonged to.

    Truncation is marked explicitly at both levels: a display cut at
    ``max_rounds`` appends an elision line counting the rounds and
    events not rendered, and a recording cut at the recorder's
    ``max_events`` appends the dropped-event line — both can appear.
    """
    opened: Dict[int, List[Any]] = {}
    closed: Dict[int, List[Any]] = {}
    if spans is not None:
        for span in spans:
            opened.setdefault(span.open_round, []).append(span)
            if span.close_round is not None:
                closed.setdefault(span.close_round, []).append(span)
    lines: List[str] = []
    shown = 0
    rounds = recorder.iter_rounds()
    for round_index, events in rounds:
        if shown >= max_rounds:
            omitted = 1 + sum(1 for _ in rounds)
            lines.append(
                f"... (timeline cut at max_rounds={max_rounds}: "
                f"{omitted} more rounds omitted, "
                f"{len(recorder.events)} events total)"
            )
            break
        shown += 1
        lines.append(f"r{round_index:>4}:")
        broadcasts = [e for e in events if isinstance(e, BroadcastEvent)]
        others = [e for e in events if not isinstance(e, BroadcastEvent)]
        if broadcasts:
            senders = ",".join(f"p{e.sender}" for e in broadcasts)
            kinds = sorted(
                {item for e in broadcasts for item in e.items}
            )
            suffix = f" [{', '.join(kinds)}]" if kinds else ""
            lines.append(f"       sends: {senders}{suffix}")
        for event in others:
            lines.append(f"       {event.describe()}")
        for span in opened.get(round_index, ()):
            inner = ",".join(map(str, span.members))
            lines.append(f"       ├─ attempt {{{inner}}} opens")
        for span in closed.get(round_index, ()):
            inner = ",".join(map(str, span.members))
            lines.append(f"       └─ attempt {{{inner}}}: {span.outcome}")
    if recorder.truncated:
        lines.append(
            f"(trace truncated at max_events={recorder.max_events}: "
            f"{recorder.dropped_events} events dropped)"
        )
    return "\n".join(lines)
