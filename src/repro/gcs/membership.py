"""Membership agreement: turning reachability into agreed views.

Group communication services (Transis, ISIS, Phoenix, xAMp — the
systems the thesis cites) report connectivity changes as *views* that
all surviving members agree on.  This module implements a small
coordinator-based membership protocol over the packet network:

1. each process owns a **failure detector** fed by the topology oracle
   with a one-tick delay — it learns its current reachable set, not
   anyone's protocol state;
2. when a process's reachable set disagrees with its installed view and
   it is the *coordinator* of that set (lowest id), it broadcasts a
   ``Propose(view_id, members)``, where ``view_id = (epoch, coord)``
   and epoch exceeds every epoch the coordinator has seen;
3. members whose reachable set matches the proposal answer ``Ack``;
4. on acks from every proposed member, the coordinator broadcasts
   ``Install``; receivers (and the coordinator) install the view.

Safety — processes that install the same ``view_id`` install the same
member set — holds trivially because the member list rides inside
``Install``.  Liveness — a stably connected component eventually
installs a common view — follows because its coordinator keeps
re-proposing with fresh epochs until a round of acks survives; the
tests exercise both, including proposals destroyed mid-flight by
further topology changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.types import Members, ProcessId

#: Totally ordered view identifier: (epoch, coordinator id).
ViewId = Tuple[int, ProcessId]


@dataclass(frozen=True)
class AgreedView:
    """A membership view agreed through the protocol."""

    view_id: ViewId
    members: Members

    @property
    def epoch(self) -> int:
        return self.view_id[0]


@dataclass(frozen=True)
class Propose:
    view_id: ViewId
    members: Members


@dataclass(frozen=True)
class Ack:
    view_id: ViewId


@dataclass(frozen=True)
class Install:
    view_id: ViewId
    members: Members


@dataclass(frozen=True)
class Nudge:
    """A member's request for a fresh agreement.

    Needed for liveness when the coordinator's installed view happens
    to match the (restored) topology while other members' views do not
    — e.g. their copy of an earlier ``Install`` was dropped during
    churn.  The coordinator sees no mismatch itself, so the out-of-sync
    members must ask.
    """

    current_view_id: ViewId


class MembershipAgent:
    """One process's membership state machine."""

    #: Ticks a proposal may wait for acks before being retried with a
    #: fresh epoch (failure detectors lag one tick, so peers may reject
    #: a proposal they would accept a moment later).  The default of
    #: ``proposal_timeout_ticks``, which ``GCSCluster`` derives per
    #: transport (:func:`repro.gcs.stack.proposal_timeout_ticks`).
    PROPOSAL_TIMEOUT_TICKS = 4


    def __init__(self, pid: ProcessId, universe: Members) -> None:
        self.pid = pid
        self.universe = universe
        initial = AgreedView(view_id=(0, min(universe)), members=universe)
        self.current_view: AgreedView = initial
        self.highest_epoch: int = 0
        self._reachable: Members = universe
        self._proposal: Optional[Propose] = None
        self._acks: Set[ProcessId] = set()
        self._proposal_age: int = 0
        self.proposal_timeout_ticks: int = self.PROPOSAL_TIMEOUT_TICKS
        self._out_of_sync_ticks: int = 0
        self._nudged: bool = False
        self.installed_views: List[AgreedView] = [initial]

    # ------------------------------------------------------------------
    # Inputs.
    # ------------------------------------------------------------------

    def observe_reachable(self, reachable: Members) -> List[Tuple[ProcessId, object]]:
        """Feed the failure detector; returns (dst, payload) sends."""
        reachable = frozenset(reachable) | {self.pid}
        if reachable != self._reachable:
            self._reachable = reachable
            # Any in-progress agreement is stale the moment the world
            # changes; abandon it and let a fresh epoch start.
            self._proposal = None
            self._acks = set()
        elif self._proposal is not None:
            self._proposal_age += 1
            if self._proposal_age > self.proposal_timeout_ticks:
                # Peers may have rejected the proposal while their
                # detectors lagged; retry under a fresh epoch.
                self._proposal = None
                self._acks = set()
        sends = self._maybe_propose()
        sends.extend(self._maybe_nudge())
        return sends

    def _maybe_nudge(self) -> List[Tuple[ProcessId, object]]:
        """Out-of-sync non-coordinators ask for agreement every tick.

        Nudging *every* tick (rather than periodically) matters for the
        simulation's stability detection: while any process's view
        disagrees with its reachable set, traffic keeps flowing, so one
        silent tick proves the whole system has converged.
        """
        if self._is_coordinator() or not self._needs_new_view():
            self._out_of_sync_ticks = 0
            return []
        self._out_of_sync_ticks += 1
        coordinator = min(self._reachable)
        return [(coordinator, Nudge(current_view_id=self.current_view.view_id))]

    def handle(self, sender: ProcessId, payload: object) -> List[Tuple[ProcessId, object]]:
        """Process a membership control message; returns sends."""
        if isinstance(payload, Propose):
            return self._handle_propose(sender, payload)
        if isinstance(payload, Ack):
            return self._handle_ack(sender, payload)
        if isinstance(payload, Install):
            return self._handle_install(payload)
        if isinstance(payload, Nudge):
            return self._handle_nudge(sender, payload)
        raise TypeError(f"not a membership payload: {type(payload).__name__}")

    def _handle_nudge(
        self, sender: ProcessId, nudge: Nudge
    ) -> List[Tuple[ProcessId, object]]:
        """A member disagrees with us about the current view: re-agree.

        Only meaningful at the coordinator; a fresh epoch resolves the
        divergence even when our own view already matches the world.
        """
        if not self._is_coordinator():
            return []
        if nudge.current_view_id == self.current_view.view_id:
            return []  # the nudger caught up in the meantime
        if self._proposal is not None:
            return []  # an agreement is already in flight
        self.highest_epoch += 1
        proposal = Propose(
            view_id=(self.highest_epoch, self.pid), members=self._reachable
        )
        self._proposal = proposal
        self._acks = {self.pid}
        self._proposal_age = 0
        if len(self._reachable) == 1:
            return self._complete_proposal()
        return [(dst, proposal) for dst in sorted(self._reachable - {self.pid})]

    # ------------------------------------------------------------------
    # Protocol steps.
    # ------------------------------------------------------------------

    def _is_coordinator(self) -> bool:
        return self.pid == min(self._reachable)

    def _needs_new_view(self) -> bool:
        return self._reachable != self.current_view.members

    def _maybe_propose(self) -> List[Tuple[ProcessId, object]]:
        if not (self._is_coordinator() and self._needs_new_view()):
            return []
        if self._proposal is not None:
            return []  # a proposal for this reachable set is in flight
        self.highest_epoch += 1
        proposal = Propose(
            view_id=(self.highest_epoch, self.pid), members=self._reachable
        )
        self._proposal = proposal
        self._acks = {self.pid}
        self._proposal_age = 0
        sends = [
            (dst, proposal) for dst in sorted(self._reachable - {self.pid})
        ]
        if len(self._reachable) == 1:
            # Alone: nothing to wait for.
            return self._complete_proposal()
        return sends

    def _handle_propose(
        self, sender: ProcessId, proposal: Propose
    ) -> List[Tuple[ProcessId, object]]:
        self.highest_epoch = max(self.highest_epoch, proposal.view_id[0])
        if proposal.members != self._reachable:
            return []  # we see a different world; the proposer retries
        return [(sender, Ack(view_id=proposal.view_id))]

    def _handle_ack(
        self, sender: ProcessId, ack: Ack
    ) -> List[Tuple[ProcessId, object]]:
        if self._proposal is None or ack.view_id != self._proposal.view_id:
            return []  # ack for an abandoned proposal
        self._acks.add(sender)
        if self._acks == self._proposal.members:
            return self._complete_proposal()
        return []

    def _complete_proposal(self) -> List[Tuple[ProcessId, object]]:
        assert self._proposal is not None
        install = Install(
            view_id=self._proposal.view_id, members=self._proposal.members
        )
        sends = [
            (dst, install)
            for dst in sorted(self._proposal.members - {self.pid})
        ]
        self._proposal = None
        self._acks = set()
        self._install(install)
        return sends

    def _handle_install(self, install: Install) -> List[Tuple[ProcessId, object]]:
        self._install(install)
        return []

    def _install(self, install: Install) -> None:
        self.highest_epoch = max(self.highest_epoch, install.view_id[0])
        if install.view_id <= self.current_view.view_id:
            return  # stale install (e.g. delayed duplicate)
        if self.pid not in install.members:
            return  # defensive: never install a view we are not in
        if install.members != self._reachable:
            # The world moved on while the install was in flight; a
            # fresh agreement will follow, but installing an already
            # wrong view would only thrash the layers above.
            return
        view = AgreedView(view_id=install.view_id, members=install.members)
        self.current_view = view
        self.installed_views.append(view)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def view_members(self) -> Members:
        return self.current_view.members

    def view_seq(self) -> int:
        """A single integer that orders views identically at every
        member (epochs are globally comparable; the coordinator id
        breaks epoch ties deterministically)."""
        epoch, coord = self.current_view.view_id
        return epoch * (max(self.universe) + 1) + coord
