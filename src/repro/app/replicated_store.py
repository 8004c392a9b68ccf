"""A primary-partition replicated key-value store.

The thesis motivates primary components with replicated databases
(El Abbadi & Toueg) and group-based toolkits: "In many distributed
systems, at most one component is permitted to make progress in order
to avoid inconsistencies."  This module is that application, built on
the public :class:`PrimaryComponentAlgorithm` interface exactly as
Fig. 2-2 prescribes — every application message passes through the
algorithm, which piggybacks its own protocol transparently.

Semantics
---------
* A replica accepts a ``put`` only while its process is inside the
  primary component; elsewhere the write is refused (callers may retry
  after the next view change).
* Accepted writes are stamped with the store's *epoch* — the order key
  of the latest formed primary its algorithm knows — plus a per-epoch
  operation counter, and broadcast to the component.
* Concurrent writes inside the same primary may carry equal stamps
  (each replica counts its own ops); per-key ``(stamp, origin)`` write
  tags break the tie deterministically, so every replica converges on
  the same winner regardless of delivery order.
* On every view change each replica announces its ``(epoch, op_count)``
  stamp, full contents and write tags; a replica merges each
  announcement key by key, keeping the greater write tag, and adopts
  the greatest stamp.  Because writes happen only inside primary
  components and formed primaries form a subquorum chain, the greatest
  tag of a key is its latest write, so reconciliation after a merge
  converges every replica on one history — including a write a replica
  acknowledged before it noticed a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.message import Message
from repro.core.view import View
from repro.errors import ReproError
from repro.sim.driver import ProcessEndpoint
from repro.types import ProcessId


class NotPrimaryError(ReproError):
    """A write was attempted outside the primary component."""


#: (epoch, operations applied in that epoch); totally ordered.
Stamp = Tuple[int, int]


@dataclass(frozen=True)
class PutOp:
    """A replicated write, broadcast within the primary component."""

    key: str
    value: Any
    stamp: Stamp
    origin: ProcessId


#: Per-key write tag: who wrote the current value, under which stamp.
WriteTag = Tuple[Stamp, ProcessId]


@dataclass(frozen=True)
class SyncOffer:
    """A replica's announcement after a view change: stamp + contents."""

    stamp: Stamp
    contents: Tuple[Tuple[str, Any], ...]
    tags: Tuple[Tuple[str, WriteTag], ...] = ()


class ReplicatedStore(ProcessEndpoint):
    """One replica of the store, driven by the simulation driver loop."""

    def __init__(self, algorithm: PrimaryComponentAlgorithm) -> None:
        super().__init__(algorithm)
        self.data: Dict[str, Any] = {}
        self._tags: Dict[str, WriteTag] = {}
        #: (epoch of latest primary the data was written under, op count).
        self.stamp: Stamp = (self._current_epoch(), 0)
        self._outbox: List[Message] = []
        self.writes_accepted = 0
        self.writes_refused = 0
        self.syncs_adopted = 0

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def in_primary(self) -> bool:
        """Whether this replica currently accepts writes."""
        return self.algorithm.in_primary()

    def get(self, key: str, default: Any = None) -> Any:
        """Read a key locally.

        Reads are always served (possibly stale outside the primary);
        the primary-partition guarantee protects writes, not reads.
        """
        return self.data.get(key, default)

    def put(self, key: str, value: Any) -> PutOp:
        """Write a key; only legal inside the primary component.

        The write applies locally at once and is broadcast to the rest
        of the component on the next driver round.
        """
        if not self.in_primary():
            self.writes_refused += 1
            raise NotPrimaryError(
                f"replica {self.pid} is not in the primary component; "
                "writes would risk divergent histories"
            )
        epoch = self._current_epoch()
        if epoch != self.stamp[0]:
            self.stamp = (epoch, 0)
        self.stamp = (self.stamp[0], self.stamp[1] + 1)
        op = PutOp(key=key, value=value, stamp=self.stamp, origin=self.pid)
        self._apply_put(op)
        self._outbox.append(Message(payload=op))
        self.writes_accepted += 1
        return op

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the replica's current contents."""
        return dict(self.data)

    @property
    def outbox_size(self) -> int:
        """Broadcasts queued but not yet offered to the substrate.

        The GCS adapter's pump polls a loaded replica until this is
        zero, so its writes leave within the tick they were made.
        """
        return len(self._outbox)

    def stats(self) -> Dict[str, Any]:
        """Operational counters for health endpoints and ops views."""
        return {
            "keys": len(self.data),
            "stamp": list(self.stamp),
            "writes_accepted": self.writes_accepted,
            "writes_refused": self.writes_refused,
            "syncs_adopted": self.syncs_adopted,
        }

    # ------------------------------------------------------------------
    # Endpoint hooks (the Fig. 2-2 integration).
    # ------------------------------------------------------------------

    def next_application_message(self) -> Message:
        if self._outbox:
            return self._outbox.pop(0)
        return Message.empty()

    def on_payload(self, payload: object, sender: ProcessId) -> None:
        if isinstance(payload, PutOp):
            if sender != self.pid:
                self._apply_put(payload)
        elif isinstance(payload, SyncOffer):
            self._consider_sync(payload)
        else:
            raise ReproError(f"unknown payload {type(payload).__name__}")

    def on_view(self, view: View) -> None:
        # Announce our state so the new component converges on the
        # latest primary's history.
        self._outbox.append(Message(payload=self._sync_offer()))

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _current_epoch(self) -> int:
        primaries = self.algorithm.formed_primaries()
        if not primaries:
            return 0
        return max(order_key for order_key, _ in primaries)

    def _sync_offer(self) -> SyncOffer:
        return SyncOffer(
            stamp=self.stamp,
            contents=tuple(sorted(self.data.items())),
            tags=tuple(sorted(self._tags.items())),
        )

    def _apply_put(self, op: PutOp) -> None:
        # Concurrent puts inside one primary stamp independently, so
        # two writes to the same key may tie on stamp; the (stamp,
        # origin) tag makes the winner delivery-order independent.
        tag = (op.stamp, op.origin)
        existing = self._tags.get(op.key)
        if existing is not None and existing > tag:
            return
        self._tags[op.key] = tag
        self.data[op.key] = op.value
        if op.origin != self.pid and op.stamp > self.stamp:
            self.stamp = op.stamp

    def _consider_sync(self, offer: SyncOffer) -> None:
        # Key by key, the greater (stamp, origin) tag wins, exactly as
        # for a put, so replicas that merge the same offers converge
        # whatever order they arrive in.  An entry the offer carries
        # untagged ranks by the offer's stamp, below every origin.
        tags = dict(offer.tags)
        for key, value in offer.contents:
            tag = tags.get(key, (offer.stamp, -1))
            existing = self._tags.get(key)
            if existing is None or tag > existing:
                self._tags[key] = tag
                self.data[key] = value
        if offer.stamp > self.stamp:
            self.stamp = offer.stamp
            self.syncs_adopted += 1
