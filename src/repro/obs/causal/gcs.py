"""Causal view-agreement spans for the group communication cluster.

The partitionable-GCS stack (:mod:`repro.gcs`) installs views
asymmetrically: each process adopts a view the moment its membership
agent decides, so a single connectivity change fans out into a window
of ticks during which some members run the new view and others still
the old one.  :class:`GCSViewSpans` subscribes to the cluster's
``on_gcs_event`` hook and turns each distinct view
into a span over that window:

* **opened** at the tick its first member installs it;
* **agreed** at the tick every live member of the view has installed
  it — the agreement latency is ``close_tick - open_tick`` ticks;
* **superseded** when one of its members installs a different, newer
  view first (the GCS analogue of an interrupted attempt).

This is the same explanatory move :class:`~repro.obs.causal.SpanBuilder`
makes for the voting simulator — don't just count how often views
agree, show which change windows they spent disagreeing in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.obs.bus import Subscriber

#: View-span outcomes.
VIEW_AGREED = "agreed"
VIEW_SUPERSEDED = "superseded"
VIEW_PENDING = "pending"


@dataclass(frozen=True)
class ViewSpan:
    """One view's agreement window across the cluster."""

    view_id: Tuple[int, int]
    members: Tuple[int, ...]
    open_tick: int
    close_tick: int
    outcome: str
    #: Processes that had installed the view when it closed.
    installed: Tuple[int, ...]

    @property
    def ticks(self) -> int:
        """Agreement latency: ticks from first install to close."""
        return self.close_tick - self.open_tick

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form, tagged ``repro.obs/gcs_view_span``."""
        return {
            "kind": "repro.obs/gcs_view_span",
            "view_id": list(self.view_id),
            "members": list(self.members),
            "open_tick": self.open_tick,
            "close_tick": self.close_tick,
            "outcome": self.outcome,
            "installed": list(self.installed),
        }


class _OpenView:
    __slots__ = ("view_id", "members", "open_tick", "installed")

    def __init__(self, view_id, members, open_tick: int) -> None:
        self.view_id = view_id
        self.members = frozenset(members)
        self.open_tick = open_tick
        self.installed: set = set()


class GCSViewSpans(Subscriber):
    """Attach via ``GCSCluster(observers=[...])``; read :meth:`finalize`."""

    def __init__(self) -> None:
        self._open: Dict[Any, _OpenView] = {}
        self._current: Dict[int, Any] = {}
        self.spans: List[ViewSpan] = []

    def on_gcs_event(self, cluster: Any, pid: int, event: Any) -> None:
        view_id = getattr(event, "view_id", None)
        members = getattr(event, "members", None)
        if view_id is None or members is None:
            return  # a delivery, not a view installation
        tick = cluster.ticks
        view = self._open.get(view_id)
        if view is None and not self._is_closed(view_id):
            view = _OpenView(view_id, members, tick)
            self._open[view_id] = view
        previous = self._current.get(pid)
        if previous is not None and previous != view_id:
            self._supersede(previous, pid, tick)
        self._current[pid] = view_id
        if view is not None:
            view.installed.add(pid)
            live = {
                member
                for member in view.members
                if not cluster.topology.is_crashed(member)
            }
            if live and live <= view.installed:
                self._close(view_id, VIEW_AGREED, tick)

    def _is_closed(self, view_id: Any) -> bool:
        return any(span.view_id == tuple(view_id) for span in self.spans)

    def _supersede(self, view_id: Any, pid: int, tick: int) -> None:
        view = self._open.get(view_id)
        if view is not None and pid in view.members:
            self._close(view_id, VIEW_SUPERSEDED, tick)

    def _close(self, view_id: Any, outcome: str, tick: int) -> None:
        view = self._open.pop(view_id, None)
        if view is None:
            return
        self.spans.append(
            ViewSpan(
                view_id=tuple(view_id),
                members=tuple(sorted(view.members)),
                open_tick=view.open_tick,
                close_tick=tick,
                outcome=outcome,
                installed=tuple(sorted(view.installed)),
            )
        )

    def open_views(self) -> List[Dict[str, Any]]:
        """The in-progress agreement windows, as JSON-ready dicts.

        This is the *live* face of the span model: while a view is
        still being installed member by member, the service ops view
        can show which window the cluster is inside and who has (and
        has not) installed it yet — an in-progress outage explained
        while it happens, before :meth:`finalize` ever runs.
        """
        return [
            {
                "view_id": list(tuple(view.view_id)),
                "members": sorted(view.members),
                "open_tick": view.open_tick,
                "installed": sorted(view.installed),
            }
            for _, view in sorted(
                self._open.items(), key=lambda item: tuple(item[0])
            )
        ]

    def finalize(self, at_tick: int = -1) -> List[ViewSpan]:
        """Close still-open views as pending and return every span.

        ``at_tick`` stamps the close of pending views (default: each
        view's own open tick, i.e. zero elapsed agreement time known).
        """
        for view_id in sorted(self._open, key=lambda v: tuple(v)):
            view = self._open[view_id]
            close = at_tick if at_tick >= 0 else view.open_tick
            self._open.pop(view_id)
            self.spans.append(
                ViewSpan(
                    view_id=tuple(view_id),
                    members=tuple(sorted(view.members)),
                    open_tick=view.open_tick,
                    close_tick=max(close, view.open_tick),
                    outcome=VIEW_PENDING,
                    installed=tuple(sorted(view.installed)),
                )
            )
        return list(self.spans)

    def describe(self) -> str:
        """One line per span, in close order."""
        return "\n".join(
            f"view{list(span.view_id)} {{{','.join(map(str, span.members))}}} "
            f"t{span.open_tick}..t{span.close_tick} {span.outcome} "
            f"({len(span.installed)}/{len(span.members)} installed)"
            for span in self.spans
        )
