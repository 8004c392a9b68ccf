"""Structured execution tracing.

A :class:`TraceRecorder` observes a driver loop and records every
interesting event — rounds, broadcasts, connectivity changes, view
installations, primary formations and losses — as one dict per event,
stamped with its ``kind`` and round: the dict the event's line of trace
JSONL parses back to (:data:`EVENT_FIELDS`).  Traces serve three
audiences:

* debugging an algorithm implementation (the renderer draws a compact
  per-round timeline of who sent what and which views exist);
* tests that assert *how* an execution unfolded, not just its outcome;
* export (`to_dicts`) for external tooling.

Recording is allocation-light: one small dict per event, bounded by
``max_events`` so long cascading campaigns cannot exhaust memory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.message import Message
from repro.obs import Subscriber
from repro.obs.canonical import (
    canonical_digest,
    canonical_jsonl,
    canonical_line,
    read_jsonl,
    require_fields,
    write_text,
)
from repro.types import ProcessId, sorted_members

#: One trace event is the dict its JSONL line parses to: ``kind``, and
#: for each kind the fields below, each of the named shape.  The
#: recorder's hooks build exactly these dicts; :func:`check_event` holds
#: a line read from a file to the same table.
EVENT_FIELDS: Dict[str, Dict[str, str]] = {
    "broadcast": {"round": "int", "sender": "int", "items": "strs"},
    "change": {"round": "int", "change": "str", "components_after": "groups"},
    "view": {"round": "int", "view_seq": "int", "members": "ints"},
    "primaryformed": {"round": "int", "members": "ints"},
    "primarylost": {"round": "int", "members": "ints"},
    "runboundary": {
        "round": "int",
        "run_index": "int",
        "boundary": "str",
        "available": "flag",
    },
    "truncation": {
        "truncated": "flag",
        "dropped_events": "int",
        "max_events": "int",
    },
}


def _is_list_of(kind: type, value: Any) -> bool:
    return type(value) is list and all(type(item) is kind for item in value)


_SHAPES = {
    "int": lambda value: type(value) is int,
    "str": lambda value: type(value) is str,
    "flag": lambda value: value is None or type(value) is bool,
    "ints": lambda value: _is_list_of(int, value),
    "strs": lambda value: _is_list_of(str, value),
    "groups": lambda value: (
        type(value) is list and all(_is_list_of(int, g) for g in value)
    ),
}


def check_event(data: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``data`` if it is a well-formed trace event, else ValueError.

    Traces come back from files (``explain --replay``), so an unknown
    ``kind``, a missing field or a field of the wrong shape is rejected
    here, by name, before any consumer indexes into the line.  Extra
    fields are let through.
    """
    kind = data.get("kind")
    fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    require_fields(data, fields)
    for name, shape in fields.items():
        if not _SHAPES[shape](data[name]):
            raise ValueError(f"field {name!r} is not {shape}: {data[name]!r}")
    return data


def describe_event(event: Mapping[str, Any]) -> str:
    """One-line human-readable rendering of a non-broadcast event."""
    kind = event["kind"]
    if kind == "change":
        parts = " ".join(
            "{" + ",".join(map(str, c)) + "}"
            for c in event["components_after"]
        )
        return f"change {event['change']} → {parts}"
    if kind == "runboundary":
        if event["boundary"] == "start":
            return f"— run {event['run_index']} begins —"
        verdict = "available" if event["available"] else "NO primary"
        return f"— run {event['run_index']} ends: {verdict} —"
    inner = ",".join(map(str, event["members"]))
    if kind == "view":
        return f"view#{event['view_seq']}{{{inner}}} installed"
    if kind == "primaryformed":
        return f"PRIMARY {{{inner}}}"
    return f"primary {{{inner}}} dissolved"


class TraceRecorder(Subscriber):
    """Observer that accumulates a bounded event trace."""

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
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
            {
                "kind": "runboundary",
                "round": driver.round_index,
                "run_index": self._run_index,
                "boundary": "start",
                "available": None,
            }
        )

    def on_broadcast(self, driver, sender: ProcessId, message: Message) -> None:
        items: List[str] = []
        if message.piggyback is not None:
            items = [type(item).__name__ for item in message.piggyback.items]
        self._append(
            {
                "kind": "broadcast",
                "round": driver.round_index,
                "sender": sender,
                "items": items,
            }
        )

    def on_change(self, driver, change) -> None:
        self._append(
            {
                "kind": "change",
                "round": driver.round_index,
                "change": change.describe(),
                "components_after": [
                    list(sorted_members(c)) for c in driver.topology.components
                ],
            }
        )

    def on_round(self, driver) -> None:
        for view in driver.views_installed_this_round:
            self._append(
                {
                    "kind": "view",
                    "round": driver.round_index,
                    "view_seq": view.seq,
                    "members": list(sorted_members(view.members)),
                }
            )
        current = driver.primary_members()
        if current != self._live_primary:
            for kind, members in (
                ("primarylost", self._live_primary),
                ("primaryformed", current),
            ):
                if members is not None:
                    self._append(
                        {
                            "kind": kind,
                            "round": driver.round_index,
                            "members": list(members),
                        }
                    )
            self._live_primary = current

    def on_run_end(self, driver) -> None:
        self._append(
            {
                "kind": "runboundary",
                "round": driver.round_index,
                "run_index": self._run_index,
                "boundary": "end",
                "available": driver.primary_exists(),
            }
        )
        self._run_index += 1

    # ------------------------------------------------------------------
    # Queries and export.
    # ------------------------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            self.dropped_events += 1
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """All recorded events of one kind (e.g. ``"view"``)."""
        return [event for event in self.events if event["kind"] == kind]

    def formations(self) -> List[Dict[str, Any]]:
        """Every primary-formation event, in order."""
        return self.of_kind("primaryformed")

    def rounds_with_traffic(self) -> List[int]:
        """Round indices at which at least one broadcast happened."""
        return sorted({e["round"] for e in self.of_kind("broadcast")})

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The whole trace, one JSON-ready dict per line of its JSONL.

        A truncated trace ends with an explicit marker entry carrying
        the dropped-event count, so capped exports can never be
        mistaken for complete ones.  Untruncated traces export exactly
        their events — no marker — which keeps historical golden files
        byte-stable.
        """
        dicts = list(self.events)
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

    def iter_rounds(self) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Events grouped by round, in order."""
        current_round: Optional[int] = None
        bucket: List[Dict[str, Any]] = []
        for event in self.events:
            if current_round is None:
                current_round = event["round"]
            if event["round"] != current_round:
                yield current_round, bucket
                current_round, bucket = event["round"], []
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


def trace_digest(recorder: TraceRecorder) -> str:
    """SHA-256 hex digest over the canonical per-event JSON stream.

    Digests let large executions (a 10k-round campaign) be pinned in a
    golden file of a few dozen bytes instead of megabytes of JSON.  The
    digest is defined over the newline-framed canonical JSON of each
    event in order (the truncation marker is not an event), which is
    exactly what :class:`TraceDigester` computes incrementally — the
    two always agree on the same run.
    """
    return canonical_digest(recorder.events)


def trace_to_jsonl(recorder: TraceRecorder) -> str:
    """The whole trace as canonical JSON lines (one event per line).

    Same per-event bytes as the digest stream, newline-framed by the
    shared :func:`repro.obs.canonical.canonical_jsonl` encoder.  A
    truncated trace ends with the explicit ``truncation`` marker line
    from :meth:`TraceRecorder.to_dicts`, so capped exports stay honest.
    """
    return canonical_jsonl(recorder.to_dicts())


def read_trace_jsonl(text: str) -> Iterator[Dict[str, Any]]:
    """Every line of trace JSONL as a checked event dict, marker included."""
    for _, data in read_jsonl(text, "trace", check_event):
        yield data


def events_from_jsonl(text: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse trace JSONL back into events.

    Returns ``(events, truncated)`` — ``truncated`` is True when the
    text carries a ``truncation`` marker line (which is consumed, not
    returned as an event).
    """
    lines = list(read_trace_jsonl(text))
    events = [data for data in lines if data["kind"] != "truncation"]
    return events, len(events) < len(lines)


def write_trace_jsonl(
    recorder: TraceRecorder, path: Union[str, Path]
) -> Path:
    """Write the canonical trace JSONL; returns the written path."""
    return write_text(path, trace_to_jsonl(recorder))


def recorder_from_events(
    events: Iterable[Dict[str, Any]], truncated: bool = False
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

    def _append(self, event: Dict[str, Any]) -> None:
        self._sha.update(canonical_line(event))
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
        broadcasts = [e for e in events if e["kind"] == "broadcast"]
        if broadcasts:
            senders = ",".join(f"p{e['sender']}" for e in broadcasts)
            kinds = sorted(
                {item for e in broadcasts for item in e["items"]}
            )
            suffix = f" [{', '.join(kinds)}]" if kinds else ""
            lines.append(f"       sends: {senders}{suffix}")
        for event in events:
            if event["kind"] != "broadcast":
                lines.append(f"       {describe_event(event)}")
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
