"""Spans and self times, recorded from the benchmark's side of each layer.

A :class:`Tracer` wraps public callables of ``repro`` by replacing the
attribute the caller resolves (module global, class method) with a
timing wrapper; nothing inside ``src/`` changes.  All wrapped calls run
on the driving thread and nest properly, so one stack suffices:

* a call's *self time* is its duration minus the duration of the
  wrapped calls made inside it, hence self times over all names sum to
  the root span exactly;
* ``record=True`` additionally keeps the span (name, start, end,
  parent, trace id) in memory for the JSONL dump; hot leaf layers
  (``core.*``, the per-round driver calls) only aggregate, because a
  unit makes millions of such calls.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept per child; later ones are counted, not stored.
MAX_SPANS = 200_000


class Tracer:
    """One child's span store and per-name (calls, total, self) sums."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (name, start, end, parent span index or -1, trace id)
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.dropped_spans = 0
        #: Set by the harness: ``workload/unit/request index``.
        self.trace_id = ""
        #: Open frames: [name, start, seconds spent in wrapped callees,
        #: own span index (or the nearest recorded ancestor's), recorded].
        self._stack: List[List[Any]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Bracketing.
    # ------------------------------------------------------------------

    def _enter(self, name: str, record: bool) -> List[Any]:
        parent = self._stack[-1][3] if self._stack else -1
        index = parent
        if record:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, self.trace_id))
            else:
                self.dropped_spans += 1
                record = False
        frame = [name, 0.0, 0.0, index, record]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: List[Any]) -> float:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, inner, index, record = frame
        seconds = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += seconds
        total[2] += seconds - inner
        if stack:
            stack[-1][2] += seconds
        if record:
            _, _, _, parent, trace_id = self.spans[index]
            self.spans[index] = (name, start, end, parent, trace_id)
        return seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A recorded span around a call the harness makes itself."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # ------------------------------------------------------------------
    # Attribute wrappers.
    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        record: bool = False,
        key: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper named ``name``.

        ``key(*args)`` appends a per-call suffix to the name (an
        algorithm name); ``after(result, *args)`` runs outside the
        timed bracket and feeds exact counters.
        """
        if isinstance(owner, type):
            # Wrap where the method is defined, so subclasses that only
            # inherit it are covered by one wrapper.
            owner = next(b for b in owner.__mro__ if attr in b.__dict__)
        if any(o is owner and a == attr for o, a, _ in self._installed):
            return
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        setattr(
            owner, attr,
            self.timed(name, original, record=record, key=key, after=after),
        )

    def timed(
        self,
        name: str,
        original: Callable[..., Any],
        *,
        record: bool = False,
        key: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``original`` bracketed as ``name`` (see :meth:`wrap`)."""
        enter, leave = self._enter, self._exit
        suffixed: Dict[str, str] = {}  # millions of calls, a few suffixes

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            full = name
            if key is not None:
                suffix = key(*args)
                full = suffixed.get(suffix)
                if full is None:
                    full = suffixed[suffix] = f"{name}.{suffix}"
            frame = enter(full, record)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return int(sum(t[0] for n, t in self.totals.items() if _under(n, prefix)))

    def total_s(self, prefix: str) -> float:
        return sum(t[1] for n, t in self.totals.items() if _under(n, prefix))

    def self_s(self, prefix: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if _under(n, prefix))

    def self_us_per_call(self, prefix: str) -> float:
        calls = self.calls(prefix)
        return 1e6 * self.self_s(prefix) / calls if calls else 0.0

    def write(self, path: Path) -> None:
        """Dump the recorded spans, then the per-name sums, as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, trace_id) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": parent, "trace": trace_id,
                }) + "\n")
            for name in sorted(self.totals):
                calls, total, self_s = self.totals[name]
                out.write(json.dumps({
                    "layer": name, "calls": calls, "total_s": total,
                    "self_s": self_s,
                }) + "\n")
            out.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")
