"""Shared reasoning helpers about exchanged algorithm state.

The dynamic voting algorithms of the thesis all exchange the same kind
of information on a view change — each process's last formed primary,
its ``lastFormed`` table, and its pending ambiguous sessions — and then
draw conclusions of the form "process q did / did not form session S".
This module holds that reasoning in one place so YKD, its unoptimized
variant, DFLS and 1-pending share a single, tested implementation.

Soundness of the two core rules (thesis Fig. 3-3, LEARN):

* *formed*: a process that formed S keeps S visible in its state until
  every member of S has been overwritten by a later formed session, so
  finding S among a peer's ``lastPrimary``/``lastFormed`` values proves
  S was formed.
* *not formed*: once a process installs any view after S's, it can
  never retroactively form S; so a peer m whose ``lastFormed`` entry
  for some member of S is still numbered below S provably did not form
  S (had m formed S, every member's entry would have been raised to S
  or beyond).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.core.session import Session
from repro.types import ProcessId


class Outcome(enum.Enum):
    """What is known about whether a given process formed a session."""

    FORMED = "formed"
    NOT_FORMED = "not_formed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class StateItem:
    """The round-1 state exchange payload (thesis Fig. 3-2).

    One per process per view: "send state (sessionNumber,
    ambiguousSessions, lastPrimary, and lastFormed) to everyone in V".
    Shared by the whole YKD family; 1-pending sends the same item with
    at most one ambiguous session.
    """

    session_number: int
    ambiguous: Tuple[Session, ...]
    last_primary: Session
    last_formed: Tuple[Tuple[ProcessId, Session], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambiguous", tuple(self.ambiguous))
        object.__setattr__(self, "last_formed", tuple(sorted(self.last_formed)))

    @property
    def last_formed_map(self) -> Dict[ProcessId, Session]:
        try:
            return self._last_formed_map
        except AttributeError:
            cached = dict(self.last_formed)
            object.__setattr__(self, "_last_formed_map", cached)
            return cached

    def formed_evidence(self) -> Set[Session]:
        """Every session this state proves was successfully formed.

        The set is built once per (immutable) item and memoized; it is
        built exactly as the per-call version did — ``last_primary``
        first, then the ``last_formed`` sessions in tuple order — so
        even its iteration order is unchanged.  Callers must treat the
        returned set as read-only.
        """
        try:
            return self._formed_evidence
        except AttributeError:
            cached = {self.last_primary}
            cached.update(session for _, session in self.last_formed)
            object.__setattr__(self, "_formed_evidence", cached)
            return cached

    def best_formed_by_member(self) -> Dict[ProcessId, Session]:
        """For each process, the latest formed session here that includes it.

        "Latest" under the total session order, so for any pid the ACCEPT
        scan ``max(s for s in formed_evidence() if pid in s)`` equals
        ``best_formed_by_member().get(pid)`` exactly.  Computed once per
        item — every member of a view runs that scan against every
        peer's state, so sharing the single map removes the quadratic
        re-scans.  Read-only, like all memoized views of this item.
        """
        try:
            return self._best_formed_by_member
        except AttributeError:
            cached = {}
            for session in self.formed_evidence():
                for member in session.members:
                    current = cached.get(member)
                    if current is None or session > current:
                        cached[member] = session
            object.__setattr__(self, "_best_formed_by_member", cached)
            return cached


def make_state_item(
    session_number: int,
    ambiguous: Iterable[Session],
    last_primary: Session,
    last_formed: Mapping[ProcessId, Session],
) -> StateItem:
    """Convenience constructor taking a mapping for ``lastFormed``."""
    return StateItem(
        session_number=session_number,
        ambiguous=tuple(ambiguous),
        last_primary=last_primary,
        last_formed=tuple(last_formed.items()),
    )


def outcome_for(member_state: StateItem, session: Session) -> Outcome:
    """Did the process reporting ``member_state`` form ``session``?

    Evaluates the LEARN rules against one peer's exchanged state.  The
    peer is assumed to be a member of ``session``.

    Both arguments are immutable, so the answer is memoized on the
    state item (one dict per item, keyed by session): every process of
    a view evaluates the same (state, session) pairs, which made this
    the hottest function in campaign profiles.
    """
    try:
        memo = member_state._outcome_memo
    except AttributeError:
        memo = {}
        object.__setattr__(member_state, "_outcome_memo", memo)
    cached = memo.get(session)
    if cached is None:
        cached = _evaluate_outcome(member_state, session)
        memo[session] = cached
    return cached


def _evaluate_outcome(member_state: StateItem, session: Session) -> Outcome:
    if session in member_state.formed_evidence():
        return Outcome.FORMED
    last_formed = member_state.last_formed_map
    for member in session.members:
        entry = last_formed.get(member)
        if entry is not None and entry.number < session.number:
            # Had the peer formed `session`, this entry would have been
            # raised to `session` (or something later); it was not.
            return Outcome.NOT_FORMED
    return Outcome.UNKNOWN


def formed_anywhere(
    states: Mapping[ProcessId, StateItem], session: Session
) -> bool:
    """True when any exchanged state proves ``session`` was formed."""
    return any(session in state.formed_evidence() for state in states.values())


def provably_never_formed(
    states: Mapping[ProcessId, StateItem], session: Session
) -> bool:
    """True when the exchange proves no member ever formed ``session``.

    Requires *every* member of the session to be present in the
    exchange and to be provably innocent; with any member absent the
    session's fate stays unknown (this is exactly why 1-pending may
    need to hear from all members of its pending session).
    """
    for member in session.members:
        state = states.get(member)
        if state is None:
            return False
        if outcome_for(state, session) is not Outcome.NOT_FORMED:
            # FORMED means it certainly was formed; UNKNOWN means we
            # cannot prove innocence — both veto "never formed".
            return False
    return True


class KnowledgeBook:
    """Persistent per-process LEARN bookkeeping (thesis Fig. 3-3).

    YKD accumulates, across views, what it has learned about each of
    its own ambiguous sessions.  Two distinct kinds of fact exist, and
    conflating them is unsound (the ACCEPT rule propagates formation
    evidence through processes that never completed the session):

    * *the session was formed* — some member completed it; visible when
      the session appears among any peer's ``lastPrimary``/``lastFormed``
      values, whether the peer completed it or merely accepted it;
    * *member m never completed the session* — m's own ``lastFormed``
      row proves it, and the fact is stable (m left the session's view,
      so it can never complete it afterwards).

    The book survives view changes — a process may meet some members of
    a pending session now and the rest much later — and is consulted by
    the DELETE rule ("no member formed S").  It is private state; it is
    never transmitted.
    """

    __slots__ = ("_owner", "_not_formed", "_formed")

    def __init__(self, owner: ProcessId) -> None:
        self._owner = owner
        #: session -> members proven to have never completed it.
        self._not_formed: Dict[Session, Set[ProcessId]] = {}
        #: sessions proven formed by someone.
        self._formed: Set[Session] = set()

    def fork(self) -> "KnowledgeBook":
        """An independent copy carrying the same accumulated facts.

        Sessions are immutable and shared; the fact containers (and the
        per-session innocent sets, which grow in place as LEARN fires)
        are copied, so clone and original evolve independently.  Used
        by :meth:`PrimaryComponentAlgorithm.fork`.
        """
        clone = KnowledgeBook(self._owner)
        clone._not_formed = {
            session: set(members) for session, members in self._not_formed.items()
        }
        clone._formed = set(self._formed)
        return clone

    def open_session(self, session: Session) -> None:
        """Start tracking a session this process has just attempted.

        The owner knows it has not (yet) formed the session itself.
        """
        if self._owner not in session:
            raise ValueError(
                f"process {self._owner} cannot attempt session "
                f"{session.describe()} it is not a member of"
            )
        self._not_formed[session] = {self._owner}

    def close_session(self, session: Session) -> None:
        """Forget a session that is no longer pending."""
        self._not_formed.pop(session, None)
        self._formed.discard(session)

    def clear(self) -> None:
        """Forget everything (a new primary settles all pending sessions)."""
        self._not_formed.clear()
        self._formed.clear()

    def tracked_sessions(self) -> Tuple[Session, ...]:
        """The pending sessions currently under LEARN bookkeeping."""
        return tuple(self._not_formed)

    def learn(self, session: Session, member: ProcessId, outcome: Outcome) -> None:
        """Record one learned fact about a tracked session."""
        innocents = self._not_formed.get(session)
        if innocents is None or member not in session:
            return
        if outcome is Outcome.FORMED:
            self._formed.add(session)
        elif outcome is Outcome.NOT_FORMED:
            innocents.add(member)

    def learn_from_states(
        self, session: Session, states: Mapping[ProcessId, StateItem]
    ) -> None:
        """Apply the LEARN rules for one pending session to an exchange."""
        if session not in self._not_formed:
            return
        for member, state in states.items():
            if member == self._owner or member not in session:
                continue
            self.learn(session, member, outcome_for(state, session))

    def anyone_formed(self, session: Session) -> bool:
        """True when some member is known to have formed the session."""
        return session in self._formed

    def nobody_formed(self, session: Session) -> bool:
        """True when every member provably never completed the session.

        A session everyone failed to complete was never formed anywhere
        and imposes no constraint — the DELETE rule drops it.
        """
        innocents = self._not_formed.get(session)
        if innocents is None or session in self._formed:
            return False
        return session.members <= innocents

    def outcome(self, session: Session, member: ProcessId) -> Outcome:
        """Best current knowledge about one member of one session."""
        if session in self._formed:
            return Outcome.FORMED
        if member in self._not_formed.get(session, set()):
            return Outcome.NOT_FORMED
        return Outcome.UNKNOWN
