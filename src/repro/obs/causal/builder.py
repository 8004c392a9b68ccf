"""Span reconstruction: one state machine, fed live or offline.

:class:`SpanBuilder` consumes trace events as they are — the dicts a
:class:`~repro.sim.trace.TraceRecorder` holds and a trace JSONL line
parses to — and reconstructs attempt/primary/run
spans plus the per-round blame breakdown.  Feeding it live (via
:class:`repro.obs.causal.CausalObserver`, which overrides the trace
recorder's append point) and feeding it a recorded trace offline run
the *same* code over the *same* dicts, which is why the two paths are
byte-identical by construction — and why the differential test in
``tests/test_causal.py`` pinning that identity is a real check on the
recording pipeline, not a tautology about this module.

Blame classification (thesis §3–§4, after the decomposition in Ingols
& Keidar's availability study): every round of a run without a live
primary is assigned the **first** matching category of

1. ``no_quorum_possible`` — no current component is a SUBQUORUM of the
   quorum base (the last formed primary's membership; the full process
   universe before any primary formed).  No algorithm could form a
   primary here; the blame lies with the partition itself.
2. ``attempt_in_flight`` — members broadcast this round: an agreement
   attempt is making progress and has simply not concluded yet.  These
   are the rounds the thesis' round-count analysis (§3.2) charges to
   protocol latency.
3. ``ambiguous_blocked`` — a quorum-capable component has an attempt
   open but silent: it quiesced without forming a primary, the
   signature of blocking on ambiguous pending sessions (§4).
4. ``algorithm_idle`` — everything else: no attempt in progress and
   none blocked (view-installation latency, or a settled non-primary
   component waiting for connectivity to improve).

The categories are exhaustive by construction — category 4 is the
complement of the first three — so the per-run counts always sum to
the run's non-primary rounds (asserted in the tier-1 tests).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.quorum import is_subquorum
from repro.obs.causal.spans import (
    BLAME_AMBIGUOUS,
    BLAME_CATEGORIES,
    BLAME_IDLE,
    BLAME_IN_FLIGHT,
    BLAME_NO_QUORUM,
    OUTCOME_AMBIGUOUS,
    OUTCOME_INTERRUPTED,
    OUTCOME_NO_QUORUM,
    OUTCOME_RESOLVED,
    AttemptSpan,
    CausalLink,
    PrimarySpan,
    RunSpan,
    SpanSet,
)
from repro.sim.trace import read_trace_jsonl


class _OpenAttempt:
    """Mutable record of one in-progress agreement attempt."""

    __slots__ = (
        "run_index",
        "members",
        "open_round",
        "opened_by",
        "advanced",
        "message_rounds",
        "last_message_round",
    )

    def __init__(
        self,
        run_index: int,
        members: FrozenSet[int],
        open_round: int,
        opened_by: CausalLink,
    ) -> None:
        self.run_index = run_index
        self.members = members
        self.open_round = open_round
        self.opened_by = opened_by
        self.advanced: List[CausalLink] = []
        self.message_rounds = 0
        self.last_message_round: Optional[int] = None

    def advance(self, link: CausalLink, is_message: bool) -> None:
        self.advanced.append(link)
        if is_message and link.round_index != self.last_message_round:
            self.message_rounds += 1
            self.last_message_round = link.round_index

    def close(
        self,
        close_round: Optional[int],
        outcome: str,
        closed_by: Optional[CausalLink],
        interrupted_by: Optional[str] = None,
    ) -> AttemptSpan:
        return AttemptSpan(
            run_index=self.run_index,
            members=tuple(sorted(self.members)),
            open_round=self.open_round,
            close_round=close_round,
            outcome=outcome,
            opened_by=self.opened_by,
            advanced_by=tuple(self.advanced),
            closed_by=closed_by,
            message_rounds=self.message_rounds,
            interrupted_by=interrupted_by,
        )


class _OpenPrimary:
    """Mutable record of one live primary component."""

    __slots__ = ("run_index", "members", "formed_round", "formed_by")

    def __init__(
        self,
        run_index: int,
        members: Tuple[int, ...],
        formed_round: int,
        formed_by: CausalLink,
    ) -> None:
        self.run_index = run_index
        self.members = members
        self.formed_round = formed_round
        self.formed_by = formed_by

    def close(
        self,
        lost_round: Optional[int],
        outcome: str,
        lost_by: Optional[CausalLink],
    ) -> PrimarySpan:
        return PrimarySpan(
            run_index=self.run_index,
            members=self.members,
            formed_round=self.formed_round,
            lost_round=lost_round,
            outcome=outcome,
            formed_by=self.formed_by,
            lost_by=lost_by,
        )


class SpanBuilder:
    """Reconstruct spans and blame from a stream of trace event dicts.

    Feed :meth:`ingest` every event dict in stream order (live hooks
    and offline replay both do exactly this), then call
    :meth:`finalize` for the completed :class:`SpanSet`.
    """

    def __init__(self) -> None:
        # Stream position.
        self._index = 0
        self.truncated = False
        # Completed spans.
        self._attempts: List[AttemptSpan] = []
        self._primaries: List[PrimarySpan] = []
        self._runs: List[RunSpan] = []
        # Persistent reconstruction state (survives cascading runs).
        self._universe: set = set()
        self._components: Optional[Tuple[FrozenSet[int], ...]] = None
        self._quorum_base: Optional[FrozenSet[int]] = None
        self._open_attempts: Dict[FrozenSet[int], _OpenAttempt] = {}
        self._primary: Optional[_OpenPrimary] = None
        # Current-run framing.
        self._run_active = False
        self._run_index = 0
        self._run_start_round = 0
        self._run_events: List[Tuple[int, Mapping[str, Any]]] = []
        self._last_round = 0
        self._last_end_link: Optional[CausalLink] = None
        self._finalized: Optional[SpanSet] = None

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------

    def ingest(self, data: Mapping[str, Any]) -> None:
        """Consume one trace event dict (in stream order)."""
        kind = data.get("kind")
        if kind == "truncation":
            self.truncated = True
            return
        index = self._index
        self._index += 1
        round_index = int(data["round"])
        self._last_round = max(self._last_round, round_index)
        if kind == "runboundary":
            if data["boundary"] == "start":
                self._begin_run(int(data["run_index"]), round_index, index)
            else:
                self._run_events.append((index, data))
                self._end_run(
                    round_index,
                    data.get("available"),
                    CausalLink(index, "runboundary", round_index),
                )
            return
        if not self._run_active:
            # Events outside explicit run boundaries (a bare driver
            # exercised round by round): frame them as an implicit run
            # starting just before the first event.
            self._run_active = True
            self._run_start_round = round_index - 1
            self._run_events = []
        self._run_events.append((index, data))

    def _begin_run(self, run_index: int, round_index: int, index: int) -> None:
        if self._run_active:
            # A start without a preceding end: close the dangling run.
            self._end_run(self._last_round, None, None)
        # A start at round 0 is a fresh driver (fresh-mode campaigns
        # build a new system per run): everything carried over belongs
        # to the previous system and is closed out here.
        if round_index == 0:
            self._reset_fresh(
                CausalLink(index, "runboundary", round_index), run_index
            )
        self._run_active = True
        self._run_index = run_index
        self._run_start_round = round_index
        self._run_events = []

    def _reset_fresh(
        self, start_link: CausalLink, run_index: int
    ) -> None:
        """Close carried state at a fresh-system boundary.

        Attempts belong to the system that opened them and close here.
        The live primary needs the trace recorder's exact semantics:
        the recorder carries its last-seen primary across runs and only
        emits formation/loss events on *change*, so a fresh run whose
        initial primary equals the previous run's final one produces no
        event at all.  Mirroring that, the carried primary's span
        closes (it survived its run) and a new span opens for the new
        system, caused by the run-start boundary.  Whenever the carry
        is wrong, the recorder emits the correcting lost/formed events
        in the run's first round and the state machine re-converges
        before any round is classified.
        """
        self._close_open_attempts(self._last_end_link)
        if self._primary is not None:
            members = self._primary.members
            self._primaries.append(self._primary.close(None, "survived", None))
            self._primary = _OpenPrimary(run_index, members, 0, start_link)
        # The universe persists (membership identity is global); the
        # connectivity and quorum base belong to the dead system.
        self._components = None
        self._quorum_base = None

    def _close_open_attempts(self, closed_by: Optional[CausalLink]) -> None:
        close_round = closed_by.round_index if closed_by is not None else (
            self._last_round or None
        )
        for members in list(self._open_attempts):
            record = self._open_attempts.pop(members)
            base = self._quorum_base or frozenset(self._universe)
            if base and is_subquorum(members, base):
                outcome = OUTCOME_AMBIGUOUS
            else:
                outcome = OUTCOME_NO_QUORUM
            self._attempts.append(record.close(close_round, outcome, closed_by))

    def _close_leftovers(self, closed_by: Optional[CausalLink]) -> None:
        self._close_open_attempts(closed_by)
        if self._primary is not None:
            self._primaries.append(self._primary.close(None, "survived", None))
            self._primary = None

    # ------------------------------------------------------------------
    # Per-run processing (runs are walked at their end boundary).
    # ------------------------------------------------------------------

    def _end_run(
        self,
        end_round: int,
        available: Optional[bool],
        end_link: Optional[CausalLink],
    ) -> None:
        by_round: Dict[int, List[Tuple[int, Mapping[str, Any]]]] = {}
        for index, data in self._run_events:
            by_round.setdefault(int(data["round"]), []).append((index, data))
        blame = dict.fromkeys(BLAME_CATEGORIES, 0)
        primary_rounds = 0
        run_had_broadcast = False
        fresh = self._run_start_round == 0 and self._components is None
        for current_round in range(self._run_start_round + 1, end_round + 1):
            had_broadcast = False
            for index, data in by_round.get(current_round, ()):
                kind = data["kind"]
                if kind == "broadcast":
                    had_broadcast = True
                    run_had_broadcast = True
                    self._on_broadcast(index, current_round, data)
                elif kind == "change":
                    self._on_change(index, current_round, data)
                elif kind == "view":
                    self._on_view(index, current_round, data)
                elif kind == "primaryformed":
                    self._on_formed(
                        index, current_round, data, run_had_broadcast
                    )
                elif kind == "primarylost":
                    self._on_lost(index, current_round, data)
                # runboundary entries carry no state.
            if self._primary is not None:
                primary_rounds += 1
            else:
                blame[self._classify(had_broadcast)] += 1
        self._runs.append(
            RunSpan(
                run_index=self._run_index,
                start_round=self._run_start_round,
                end_round=end_round,
                available=available,
                primary_rounds=primary_rounds,
                blame=tuple((c, blame[c]) for c in BLAME_CATEGORIES),
                fresh=fresh,
            )
        )
        self._run_active = False
        self._run_events = []
        self._last_end_link = end_link
        self._run_index += 1

    # Event handlers — all mutate the persistent reconstruction state.

    def _on_broadcast(
        self, index: int, round_index: int, data: Mapping[str, Any]
    ) -> None:
        sender = int(data["sender"])
        self._universe.add(sender)
        link = CausalLink(index, "broadcast", round_index)
        for members, record in self._open_attempts.items():
            if sender in members:
                record.advance(link, is_message=True)
                return
        # A broadcast with no covering attempt: open an implicit one
        # for the sender's current component, when we know it.
        if self._components is not None:
            for component in self._components:
                if sender in component:
                    record = _OpenAttempt(
                        self._run_index, component, round_index, link
                    )
                    record.advance(link, is_message=True)
                    self._open_attempts[component] = record
                    return

    def _on_change(
        self, index: int, round_index: int, data: Mapping[str, Any]
    ) -> None:
        link = CausalLink(index, "change", round_index)
        components = tuple(
            frozenset(int(p) for p in component)
            for component in data["components_after"]
        )
        for component in components:
            self._universe |= component
        surviving = set(components)
        change_kind = str(data["change"]).split("(", 1)[0]
        for members in list(self._open_attempts):
            if members not in surviving:
                record = self._open_attempts.pop(members)
                self._attempts.append(
                    record.close(
                        round_index,
                        OUTCOME_INTERRUPTED,
                        link,
                        interrupted_by=change_kind,
                    )
                )
        self._components = components

    def _on_view(
        self, index: int, round_index: int, data: Mapping[str, Any]
    ) -> None:
        members = frozenset(int(p) for p in data["members"])
        self._universe |= members
        link = CausalLink(index, "view", round_index)
        record = self._open_attempts.get(members)
        if record is not None:
            record.advance(link, is_message=False)
        else:
            self._open_attempts[members] = _OpenAttempt(
                self._run_index, members, round_index, link
            )

    def _on_formed(
        self,
        index: int,
        round_index: int,
        data: Mapping[str, Any],
        run_had_broadcast: bool,
    ) -> None:
        members = tuple(int(p) for p in data["members"])
        key = frozenset(members)
        self._universe |= key
        link = CausalLink(index, "primaryformed", round_index)
        record = self._open_attempts.pop(key, None)
        if record is not None:
            self._attempts.append(record.close(round_index, OUTCOME_RESOLVED, link))
        elif run_had_broadcast:
            # An attempt we never saw open (no prior view for this
            # exact set) still resolved — synthesize its span so every
            # formation has a cause.  The silent initial declaration of
            # a fresh run (no messages yet) is not an attempt.
            synthetic = _OpenAttempt(self._run_index, key, round_index, link)
            self._attempts.append(synthetic.close(round_index, OUTCOME_RESOLVED, link))
        if self._primary is not None:
            self._primaries.append(self._primary.close(round_index, "lost", link))
        self._primary = _OpenPrimary(self._run_index, members, round_index, link)
        self._quorum_base = key

    def _on_lost(
        self, index: int, round_index: int, data: Mapping[str, Any]
    ) -> None:
        if self._primary is None:
            return
        link = CausalLink(index, "primarylost", round_index)
        self._primaries.append(self._primary.close(round_index, "lost", link))
        self._primary = None

    # ------------------------------------------------------------------
    # Classification.
    # ------------------------------------------------------------------

    def _classify(self, had_broadcast: bool) -> str:
        """The blame category of one non-primary round (priority order)."""
        base = self._quorum_base or frozenset(self._universe)
        components = self._components
        if components is None and self._universe:
            components = (frozenset(self._universe),)
        if components and base:
            if not any(
                is_subquorum(component, base) for component in components
            ):
                return BLAME_NO_QUORUM
        if had_broadcast:
            return BLAME_IN_FLIGHT
        if base and any(
            is_subquorum(members, base) for members in self._open_attempts
        ):
            return BLAME_AMBIGUOUS
        return BLAME_IDLE

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------

    def finalize(self) -> SpanSet:
        """Close any dangling state and return the completed span set.

        Idempotent: the first call settles everything and later calls
        return the same object.
        """
        if self._finalized is not None:
            return self._finalized
        if self._run_active:
            self._end_run(self._last_round, None, None)
        self._close_leftovers(self._last_end_link)
        self._finalized = SpanSet(
            attempts=tuple(self._attempts),
            primaries=tuple(self._primaries),
            runs=tuple(self._runs),
            truncated=self.truncated,
        )
        return self._finalized


# ----------------------------------------------------------------------
# Offline reconstruction entry points.
# ----------------------------------------------------------------------


def spans_from_dicts(dicts: Iterable[Mapping[str, Any]]) -> SpanSet:
    """Reconstruct spans from trace event dicts (JSONL-parsed or live)."""
    builder = SpanBuilder()
    for data in dicts:
        builder.ingest(data)
    return builder.finalize()


def spans_from_recorder(recorder: Any) -> SpanSet:
    """Reconstruct spans from a whole :class:`~repro.sim.trace.TraceRecorder`.

    Consumes ``to_dicts()``, so a truncated recording propagates its
    explicit truncation marker into :attr:`SpanSet.truncated`.
    """
    return spans_from_dicts(recorder.to_dicts())


def spans_from_jsonl(text: str) -> SpanSet:
    """Reconstruct spans from canonical trace JSONL text.

    Every line is held to :func:`repro.sim.trace.check_event` first, so
    a damaged file is a ``ValueError`` naming the line.
    """
    return spans_from_dicts(read_trace_jsonl(text))
