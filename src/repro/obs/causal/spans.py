"""The span model: attempts, primaries, runs, and their causal links.

A recorded trace is a flat event stream; the forensics layer lifts it
into three kinds of *spans* — intervals with a beginning, an end, an
outcome, and links back to the exact events that caused each:

* :class:`AttemptSpan` — one agreement attempt: a component starts
  exchanging state after a view installation, advances through message
  rounds, and ends **resolved** (a primary formed), **interrupted** (a
  connectivity change broke the component mid-attempt — Fig. 3-1's
  scenario), **no_quorum** (the component quiesced but could never have
  formed a primary), or **ambiguous** (the component was
  quorum-capable yet quiesced without forming — blocked on ambiguous
  pending sessions, thesis §4).
* :class:`PrimarySpan` — one primary component's lifetime, from
  formation to dissolution (or survival to the end of the run).
* :class:`RunSpan` — one measured run, carrying the per-round **blame
  breakdown**: every non-primary round is assigned exactly one of the
  :data:`BLAME_CATEGORIES`.

Every span carries :class:`CausalLink` references — (stream index,
kind, round) of the trace events that opened, advanced, and closed it —
so a report can always answer "*which* change cost us *this* primary".
All fields are plain integers/strings/tuples and every ``to_dict`` is
canonically ordered, which is what makes the JSONL export byte-stable
and the live-vs-offline differential test meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: The four blame categories, in classification priority order: a
#: non-primary round is tested against each in turn and lands in the
#: first that applies (see ``repro.obs.causal.builder``).
BLAME_NO_QUORUM = "no_quorum_possible"
BLAME_IN_FLIGHT = "attempt_in_flight"
BLAME_AMBIGUOUS = "ambiguous_blocked"
BLAME_IDLE = "algorithm_idle"
BLAME_CATEGORIES: Tuple[str, ...] = (
    BLAME_NO_QUORUM,
    BLAME_IN_FLIGHT,
    BLAME_AMBIGUOUS,
    BLAME_IDLE,
)

#: Attempt outcomes.
OUTCOME_RESOLVED = "resolved"
OUTCOME_INTERRUPTED = "interrupted"
OUTCOME_NO_QUORUM = "no_quorum"
OUTCOME_AMBIGUOUS = "ambiguous"
ATTEMPT_OUTCOMES: Tuple[str, ...] = (
    OUTCOME_RESOLVED,
    OUTCOME_INTERRUPTED,
    OUTCOME_NO_QUORUM,
    OUTCOME_AMBIGUOUS,
)

#: Envelope stamp on every exported span line.
SPAN_KIND = "repro.obs/span"


@dataclass(frozen=True)
class CausalLink:
    """A reference to one trace event: (stream index, kind, round).

    The index is the event's position in the observed stream — the
    same position it has in ``TraceRecorder.events`` and in the trace
    JSONL — so a link can always be dereferenced back to the full
    event.
    """

    index: int
    kind: str
    round_index: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form (``index``/``kind``/``round``)."""
        return {"index": self.index, "kind": self.kind, "round": self.round_index}

    def describe(self) -> str:
        """Compact one-token rendering: ``kind@r<round>#<index>``."""
        return f"{self.kind}@r{self.round_index}#{self.index}"


@dataclass(frozen=True)
class AttemptSpan:
    """One agreement attempt of one component."""

    run_index: int
    members: Tuple[int, ...]
    open_round: int
    close_round: Optional[int]
    outcome: str
    opened_by: CausalLink
    advanced_by: Tuple[CausalLink, ...]
    closed_by: Optional[CausalLink]
    #: Rounds in which members of this attempt actually broadcast.
    message_rounds: int
    #: Change kind (``partition``/``merge``/``crash``/``recover``) when
    #: the outcome is ``interrupted``, else None.
    interrupted_by: Optional[str] = None

    @property
    def rounds(self) -> int:
        """Open-to-close extent in rounds (0 for same-round spans)."""
        if self.close_round is None:
            return 0
        return self.close_round - self.open_round

    def describe(self) -> str:
        """One line: members, round extent, outcome and cause."""
        inner = ",".join(map(str, self.members))
        closing = (
            f"r{self.close_round}" if self.close_round is not None else "open"
        )
        cause = f" by {self.interrupted_by}" if self.interrupted_by else ""
        return (
            f"attempt {{{inner}}} r{self.open_round}→{closing}: "
            f"{self.outcome}{cause}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form, tagged ``span: attempt``."""
        return {
            "kind": SPAN_KIND,
            "span": "attempt",
            "run": self.run_index,
            "members": list(self.members),
            "open_round": self.open_round,
            "close_round": self.close_round,
            "outcome": self.outcome,
            "opened_by": self.opened_by.to_dict(),
            "advanced_by": [link.to_dict() for link in self.advanced_by],
            "closed_by": (
                self.closed_by.to_dict() if self.closed_by is not None else None
            ),
            "message_rounds": self.message_rounds,
            "interrupted_by": self.interrupted_by,
        }


@dataclass(frozen=True)
class PrimarySpan:
    """One primary component's lifetime."""

    run_index: int
    members: Tuple[int, ...]
    formed_round: int
    lost_round: Optional[int]
    outcome: str  # "lost" | "survived"
    formed_by: CausalLink
    lost_by: Optional[CausalLink]

    @property
    def rounds(self) -> int:
        """Formation-to-loss extent in rounds (0 while/when surviving)."""
        if self.lost_round is None:
            return 0
        return self.lost_round - self.formed_round

    def describe(self) -> str:
        """One line: members, formation-to-loss extent and outcome."""
        inner = ",".join(map(str, self.members))
        closing = f"r{self.lost_round}" if self.lost_round is not None else "end"
        return (
            f"primary {{{inner}}} r{self.formed_round}→{closing}: {self.outcome}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form, tagged ``span: primary``."""
        return {
            "kind": SPAN_KIND,
            "span": "primary",
            "run": self.run_index,
            "members": list(self.members),
            "formed_round": self.formed_round,
            "lost_round": self.lost_round,
            "outcome": self.outcome,
            "formed_by": self.formed_by.to_dict(),
            "lost_by": (
                self.lost_by.to_dict() if self.lost_by is not None else None
            ),
        }


@dataclass(frozen=True)
class RunSpan:
    """One measured run with its per-round blame breakdown."""

    run_index: int
    start_round: int
    end_round: int
    available: Optional[bool]
    primary_rounds: int
    blame: Tuple[Tuple[str, int], ...]  # (category, rounds), fixed order
    fresh: bool

    @property
    def rounds(self) -> int:
        """Rounds executed by this run."""
        return self.end_round - self.start_round

    @property
    def nonprimary_rounds(self) -> int:
        """Rounds without a live primary — exactly the blamed rounds."""
        return self.rounds - self.primary_rounds

    def describe(self) -> str:
        """One line: round extent, verdict and nonzero blame."""
        verdict = (
            "available" if self.available
            else "?" if self.available is None
            else "NO primary"
        )
        blamed = ", ".join(
            f"{category}={count}" for category, count in self.blame if count
        )
        return (
            f"run {self.run_index} r{self.start_round}→r{self.end_round} "
            f"({verdict}): {self.primary_rounds} primary rounds"
            + (f"; lost to {blamed}" if blamed else "")
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form, tagged ``span: run``."""
        return {
            "kind": SPAN_KIND,
            "span": "run",
            "run": self.run_index,
            "start_round": self.start_round,
            "end_round": self.end_round,
            "available": self.available,
            "primary_rounds": self.primary_rounds,
            "blame": {category: count for category, count in self.blame},
            "fresh": self.fresh,
        }


@dataclass(frozen=True)
class SpanSet:
    """The complete reconstruction of one trace: all spans, all runs.

    The finalized output of :class:`repro.obs.causal.SpanBuilder`.
    Spans appear in completion (close) order, runs in execution order —
    both fully determined by the event stream, so equal traces yield
    byte-identical span sets.
    """

    attempts: Tuple[AttemptSpan, ...]
    primaries: Tuple[PrimarySpan, ...]
    runs: Tuple[RunSpan, ...]
    truncated: bool = False

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------

    def blame_totals(self) -> Dict[str, int]:
        """Rounds lost per category, summed over every run (fixed order)."""
        totals = {category: 0 for category in BLAME_CATEGORIES}
        for run in self.runs:
            for category, count in run.blame:
                totals[category] += count
        return totals

    def outcome_counts(self) -> Dict[str, int]:
        """Attempts per outcome (only outcomes that occurred)."""
        counts: Dict[str, int] = {}
        for span in self.attempts:
            counts[span.outcome] = counts.get(span.outcome, 0) + 1
        return counts

    def interruption_counts(self) -> Dict[str, int]:
        """Interrupted attempts per interrupting change kind."""
        counts: Dict[str, int] = {}
        for span in self.attempts:
            if span.interrupted_by is not None:
                counts[span.interrupted_by] = (
                    counts.get(span.interrupted_by, 0) + 1
                )
        return counts

    @property
    def total_rounds(self) -> int:
        return sum(run.rounds for run in self.runs)

    @property
    def primary_rounds(self) -> int:
        return sum(run.primary_rounds for run in self.runs)

    @property
    def nonprimary_rounds(self) -> int:
        return sum(run.nonprimary_rounds for run in self.runs)

    def to_dicts(self) -> list:
        """JSON-ready form: runs, then attempts, then primaries."""
        return (
            [run.to_dict() for run in self.runs]
            + [span.to_dict() for span in self.attempts]
            + [span.to_dict() for span in self.primaries]
        )
