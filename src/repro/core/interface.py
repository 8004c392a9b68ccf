"""The algorithm-to-application interface (thesis Fig. 2-1).

A primary-component algorithm is an independent entity with no inherent
communication ability.  It needs exactly four operations:

* :meth:`PrimaryComponentAlgorithm.incoming_message` — pass every
  received message through the algorithm; it strips its piggybacked
  information and returns the application's message.
* :meth:`PrimaryComponentAlgorithm.outgoing_message_poll` — offer every
  outgoing message (or an empty one, after each receipt) so the
  algorithm can attach its own payload; returns the modified message,
  or None when the algorithm has nothing to add.
* :meth:`PrimaryComponentAlgorithm.view_changed` — report each
  connectivity change as a new view.
* :meth:`PrimaryComponentAlgorithm.in_primary` — ask, at leisure,
  whether this process is currently part of the primary component.

The implemented algorithms are event-driven: state changes only when a
message or view arrives, so the application never needs to poll beyond
the one ``outgoing_message_poll`` after each event.

Concrete algorithms subclass this ABC and implement three protocol
hooks (``_on_view``, ``_on_items``, initial state); the base class owns
the piggyback bookkeeping, the outgoing item queue, stale-message
discarding across view changes, and the initial-view membership checks
that the interface contract promises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, List, Optional, Sequence

from repro.core.knowledge import StateItem
from repro.core.message import Message, Piggyback
from repro.core.session import Session
from repro.core.view import View
from repro.errors import ProtocolError
from repro.types import Members, ProcessId


#: Types shared, never copied, by :meth:`PrimaryComponentAlgorithm.fork`:
#: scalars and the immutable values algorithm state is built from.
_SHARED = frozenset({
    type(None), bool, int, float, str, tuple, frozenset,
    Session, View, StateItem,
})


def _fork_value(value: Any) -> Any:
    """A behaviourally independent copy of one state attribute.

    Algorithm state in this package is built exclusively from plain
    containers (list/dict/set) of immutable values (frozen dataclasses
    like Session/View/StateItem, frozensets, tuples, scalars), plus the
    one stateful helper object that exposes its own ``fork()``
    (:class:`repro.core.knowledge.KnowledgeBook`).  Containers are
    copied (recursively for list/dict, whose values may themselves be
    containers — e.g. MR1p's ``Dict[View, Set[ProcessId]]`` vote
    tally); immutable values are shared, which also preserves their
    memoized caches.  The common immutable types are recognised by
    exact type before any ``isinstance`` test.
    """
    if type(value) in _SHARED:
        return value
    if isinstance(value, list):
        return [_fork_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _fork_value(item) for key, item in value.items()}
    if isinstance(value, set):
        return set(value)  # elements are immutable throughout the package
    fork = getattr(value, "fork", None)
    if fork is not None and callable(fork) and not isinstance(value, type):
        return fork()
    return value


class PrimaryComponentAlgorithm(ABC):
    """Base class for all primary-component selection algorithms.

    Subclasses must:

    * set the class attribute :attr:`name` (registry key);
    * implement :meth:`_on_view` — react to an installed view, queueing
      protocol items with :meth:`_queue`;
    * implement :meth:`_on_items` — react to protocol items received
      from a peer in the current view;
    * manage the :attr:`_in_primary` flag.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = "abstract"

    #: Number of message rounds the algorithm needs to form a primary
    #: in the common case (used by the §3.4 comparison experiment).
    rounds_to_form: ClassVar[int] = 0

    #: Whether the formed-primary chain invariant (each primary is a
    #: subquorum of its predecessor, ordered by the keys returned from
    #: :meth:`formed_primaries`) is a proven property of the algorithm.
    #: The simulator enforces it only when this is True; the weaker
    #: "at most one live primary" invariant is enforced for everyone.
    chain_checkable: ClassVar[bool] = False

    def __init__(self, pid: ProcessId, initial_view: View) -> None:
        if pid not in initial_view:
            raise ProtocolError(
                f"process {pid} is not a member of the initial view "
                f"{initial_view.describe()}"
            )
        self.pid: ProcessId = pid
        self.initial_view: View = initial_view
        self.universe: Members = initial_view.members
        self.current_view: View = initial_view
        self._in_primary: bool = True  # all processes start together
        self._outgoing: List[Any] = []

    # ------------------------------------------------------------------
    # The four interface operations of Fig. 2-1.
    # ------------------------------------------------------------------

    def incoming_message(self, message: Message, sender: ProcessId) -> Message:
        """Process a received message; return it with our data stripped.

        Messages whose piggyback was stamped in a different view than
        the one we currently hold are discarded unprocessed: they
        straddle a view change, and every algorithm restarts with a
        state exchange on each new view, so their content is stale by
        construction.
        """
        piggyback = message.piggyback
        if piggyback is not None:
            if piggyback.sender != sender:
                raise ProtocolError(
                    f"piggyback claims sender {piggyback.sender}, "
                    f"delivery says {sender}"
                )
            if sender not in self.universe:
                raise ProtocolError(
                    f"message from unknown process {sender}; every view must "
                    "contain only processes from the initial view"
                )
            view = self.current_view
            if piggyback.view_seq == view.seq and sender in view.members:
                self._on_items(sender, piggyback.items)
        return message.stripped()

    def outgoing_message_poll(self, message: Message) -> Optional[Message]:
        """Offer an outgoing message; attach queued protocol items.

        Returns None when nothing needs to be added (the application
        should then send its original message unmodified, per Fig. 2-2).
        """
        if not self._outgoing:
            return None
        items = tuple(self._outgoing)
        self._outgoing.clear()
        piggyback = Piggyback(
            sender=self.pid, view_seq=self.current_view.seq, items=items
        )
        return message.with_piggyback(piggyback)

    def view_changed(self, new_view: View) -> None:
        """Install a new view reported by the group communication layer."""
        if self.pid not in new_view:
            raise ProtocolError(
                f"process {self.pid} was given view {new_view.describe()} "
                "that does not include it"
            )
        extra = new_view.members - self.universe
        if extra:
            raise ProtocolError(
                f"view {new_view.describe()} contains processes {sorted(extra)} "
                "that were not in the initial view"
            )
        self._outgoing.clear()
        self.current_view = new_view
        self._on_view(new_view)

    def in_primary(self) -> bool:
        """Whether this process currently belongs to the primary component."""
        return self._in_primary

    # ------------------------------------------------------------------
    # Hooks for subclasses.
    # ------------------------------------------------------------------

    @abstractmethod
    def _on_view(self, view: View) -> None:
        """React to a newly installed view."""

    @abstractmethod
    def _on_items(self, sender: ProcessId, items: Sequence[Any]) -> None:
        """React to protocol items received from ``sender``."""

    def _queue(self, item: Any) -> None:
        """Queue a protocol item for the next outgoing broadcast."""
        self._outgoing.append(item)

    # ------------------------------------------------------------------
    # State forking (repro.sim.explore's prefix-sharing model checker).
    # ------------------------------------------------------------------

    def fork(self) -> "PrimaryComponentAlgorithm":
        """An independent deep-enough copy of this process's state.

        The clone behaves byte-identically to the original under any
        subsequent event sequence, and mutating either side never leaks
        into the other.  ``__init__`` is deliberately bypassed: the
        clone receives a copy of the live ``__dict__`` in which every
        value of a mutable type is replaced by its own copy (see
        :func:`_fork_value`), so mid-protocol state — half-filled
        exchanges, queued items, pending attempts — survives exactly.
        This is what lets the exhaustive explorer execute a shared
        scenario prefix once and branch from it, instead of replaying
        every prefix from the initial state.

        Subclasses whose state steps outside the plain-containers-of-
        immutables convention must override this (none currently do).
        """
        clone = object.__new__(type(self))
        state = self.__dict__.copy()
        for name, value in self.__dict__.items():
            if type(value) not in _SHARED:
                state[name] = _fork_value(value)
        clone.__dict__ = state
        return clone

    # ------------------------------------------------------------------
    # Introspection used by the statistics collectors (§4.2).
    # ------------------------------------------------------------------

    def ambiguous_session_count(self) -> int:
        """Number of pending ambiguous sessions currently retained.

        Algorithms without the concept (simple majority) report zero.
        """
        return 0

    def formed_primaries(self) -> Sequence[tuple]:
        """Evidence of formed primaries held in this process's state.

        Returns ``(order_key, members)`` pairs, where ``order_key``
        totally orders formations (session numbers for the YKD family,
        view sequence numbers for MR1p).  The simulator's invariant
        checker accumulates these across processes and rounds to verify
        the primary-component chain: every formed primary must be a
        subquorum of its predecessor, with no two distinct primaries
        sharing an order key.  Stateless algorithms return nothing.
        """
        return ()

    def debug_stats(self) -> Dict[str, Any]:
        """Free-form internal statistics for traces and experiments."""
        return {
            "pid": self.pid,
            "in_primary": self._in_primary,
            "view": self.current_view.describe(),
            "ambiguous_sessions": self.ambiguous_session_count(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} pid={self.pid} "
            f"view={self.current_view.describe()} primary={self._in_primary}>"
        )
