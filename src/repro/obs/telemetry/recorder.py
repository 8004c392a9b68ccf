"""Bounded per-node flight recorders with canonical JSONL dumps.

A :class:`FlightRecorder` is the black box every proc node, store
replica and HTTP frontend carries: a fixed-capacity ring of structured
events.  Recording never allocates beyond the ring (the oldest event
falls off and is *counted*, not silently lost), never touches the
clock (events carry whatever tick/seq the caller passes — wall time
would break replay determinism), and serializes through the repo's one
canonical encoder, so two identical runs dump byte-identical streams.

Dump format — one canonical JSON object per line:

* line 1: a **header**, ``kind = "repro.obs/flight_header"``, carrying
  the node name, ring capacity, how many events were ever recorded and
  how many were dropped off the ring;
* every further line: an **event**, ``kind = "repro.obs/flight"``,
  carrying the node, a monotonically increasing per-recorder ``seq``,
  the event name and its fields.

:func:`write_crash_dump` is the post-mortem path: a dying proc node
appends one ``crash`` event (the traceback) and writes its whole ring
next to the others, so the controller — or a human, later — can read
what the dead child saw (:func:`crash_dump_path` names the file).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.bus import Subscriber
from repro.obs.canonical import (
    canonical_jsonl,
    read_jsonl,
    require_fields,
    write_text,
)

#: Envelope stamp on every recorded event line.
FLIGHT_KIND = "repro.obs/flight"
#: Envelope stamp on the per-node stream header line.
FLIGHT_HEADER_KIND = "repro.obs/flight_header"

#: Default ring capacity — enough for minutes of cluster life without
#: letting a chatty node grow without bound.
DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """A fixed-capacity ring of structured events for one node."""

    __slots__ = ("node", "capacity", "_ring", "_recorded")

    def __init__(
        self, node: Union[int, str], capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._recorded = 0

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event (JSON-ready fields only); returns the line.

        The sequence number is assigned here and never reused, so gaps
        at the front of a dumped stream reveal exactly how much history
        the ring shed.
        """
        line = {
            "kind": FLIGHT_KIND,
            "node": self.node,
            "seq": self._recorded,
            "event": event,
        }
        line.update(fields)
        self._ring.append(line)
        self._recorded += 1
        return line

    @property
    def recorded(self) -> int:
        """Events ever recorded (retained or not)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events that fell off the ring."""
        return self._recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (shallow copies)."""
        return [dict(line) for line in self._ring]

    def header(self) -> Dict[str, Any]:
        """The stream header line (capacity/recorded/dropped)."""
        return {
            "kind": FLIGHT_HEADER_KIND,
            "node": self.node,
            "capacity": self.capacity,
            "recorded": self._recorded,
            "dropped": self.dropped,
        }

    def snapshot(self) -> Dict[str, Any]:
        """A picklable snapshot (what the proc pipe protocol ships)."""
        return {
            "node": self.node,
            "capacity": self.capacity,
            "recorded": self._recorded,
            "dropped": self.dropped,
            "events": self.events(),
        }

    def to_jsonl(self) -> str:
        """Header plus every retained event as canonical JSON lines."""
        return canonical_jsonl([self.header(), *self._ring])

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the canonical dump to ``path``; returns the path."""
        return write_text(path, self.to_jsonl())


class FlightViewChanges(Subscriber):
    """Mirror every GCS view install into the hosting node's ring.

    One observer serves every host of a
    :class:`~repro.gcs.stack.GCSCluster`: a store cluster passes one
    ring per replica, a proc node its own.  A view install is the
    event that carries a ``view_id``, as
    :class:`~repro.obs.causal.gcs.GCSViewSpans` reads it.  It holds the
    rings, not their owner: the cluster holds its observers, so a back
    reference would make every dropped owner wait for the cycle
    collector.
    """

    def __init__(self, recorders: Dict[Any, FlightRecorder]) -> None:
        self._recorders = recorders

    def on_gcs_event(self, cluster: Any, pid: Any, event: Any) -> None:
        view_id = getattr(event, "view_id", None)
        if view_id is not None:
            self._recorders[pid].record(
                "view_change",
                tick=cluster.ticks,
                view_id=list(view_id),
                members=sorted(event.members),
            )


# ----------------------------------------------------------------------
# Crash dumps (the proc-node post-mortem path).
# ----------------------------------------------------------------------


def crash_dump_path(directory: Union[str, Path], node: Union[int, str]) -> Path:
    """Where one node's post-mortem flight dump lives."""
    return Path(directory) / f"flight-node{node}.jsonl"


def write_crash_dump(
    recorder: FlightRecorder,
    directory: Union[str, Path],
    error: str,
) -> Optional[Path]:
    """Record the fatal error and dump the ring; None when unwritable.

    This runs on a node that is already dying — it must never raise, or
    the real traceback headed for the controller would be masked.
    """
    try:
        recorder.record("crash", error=error)
        return recorder.dump(crash_dump_path(directory, recorder.node))
    except OSError:
        return None


# ----------------------------------------------------------------------
# Reading dumps back.
# ----------------------------------------------------------------------


#: kind → the fields a dumped line of that kind must carry.
_LINE_FIELDS = {
    FLIGHT_HEADER_KIND: ("node", "capacity", "recorded", "dropped"),
    FLIGHT_KIND: ("node", "seq", "event"),
}


def _check_line(data: Dict[str, Any]) -> Dict[str, Any]:
    kind = data.get("kind")
    if kind not in _LINE_FIELDS:
        raise ValueError(f"not a flight line (kind={kind!r})")
    require_fields(data, _LINE_FIELDS[kind])
    return data


def parse_flight_jsonl(
    text: str,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Split dump text into (headers, events); rejects foreign lines."""
    lines = [data for _, data in read_jsonl(text, "flight", _check_line)]
    return (
        [data for data in lines if data["kind"] == FLIGHT_HEADER_KIND],
        [data for data in lines if data["kind"] == FLIGHT_KIND],
    )


def load_flight_dump(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Read one dump file back into (headers, events)."""
    return parse_flight_jsonl(Path(path).read_text(encoding="utf-8"))
