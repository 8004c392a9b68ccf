"""Safety invariant checking (thesis §2.2).

The thesis subjected each algorithm to over 1,310,000 connectivity
changes and verified that "every process in a view agreed on whether or
not that view was a primary, and at all times there was at most one
primary component declared".  The simulator enforces the same
obligations after every round, plus a stronger chain obligation for the
algorithms that provably satisfy it:

1. **At most one live primary** — the set of processes reporting
   ``in_primary`` is either empty or exactly the member set of a single
   current view.
2. **View agreement** — follows from 1 within the primary view; for
   non-primary views, agreement is implied at quiescence by 1 as well
   (no member may claim primaryhood alone).
3. **Primary chain** (YKD family) — formed primaries, totally ordered
   by their session numbers, never share a number and each contains a
   subquorum of its predecessor.
"""

from __future__ import annotations

import bisect

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.quorum import is_subquorum
from repro.errors import InvariantViolation
from repro.obs import Subscriber
from repro.types import Members, ProcessId, sorted_members


class InvariantChecker(Subscriber):
    """Accumulating checker, one per simulated system.

    ``atomic_views=True`` (the driver's world) assumes every member of
    a reconfigured component installs its new view within the same
    round, so a non-empty claimant set must be exactly one view's
    active membership.  Over a negotiated group communication stack
    (``repro.gcs``) neither view installation nor message delivery is
    synchronized: a process that has not yet learned of a partition
    legitimately still considers the old primary alive, and a member
    whose copy of the final attempt was dropped at a partition boundary
    lags its view-mates until the membership protocol catches up.  With
    ``atomic_views=False`` the per-round claimant checks are therefore
    skipped (they would flag those benign detection windows); the
    formed-primary chain is still accumulated and checked every round,
    and callers assert the strict at-most-one-primary property at
    stable points via :meth:`check_stable_primary`.
    """

    #: The checker is an ordinary ``repro.obs`` subscriber: attach it
    #: through ``observers=[...]`` like any other.  The driver loop
    #: recognizes the first attached checker and runs its checks at the
    #: exact safety points (after state settles, before ordinary
    #: subscriber hooks); anywhere else the plain subscriber hooks
    #: below provide the same checks.

    def __init__(self, atomic_views: bool = True) -> None:
        self.atomic_views = atomic_views
        #: order_key -> members, for every formed primary ever observed.
        self._chain: Dict[int, Members] = {}
        #: sorted order keys, maintained incrementally so each new
        #: entry is checked against its chain neighbours in O(log n)
        #: (re-validating the whole chain per insertion is quadratic
        #: over the thesis-scale million-change endurance runs).
        self._chain_keys: List[int] = []
        self.rounds_checked = 0

    # ------------------------------------------------------------------
    # State snapshot/restore (driver forking, repro.sim.explore).
    # ------------------------------------------------------------------

    def snapshot_state(self) -> Tuple[Dict[int, Members], List[int], int]:
        """Capture the accumulated chain so a fork can rewind to it.

        The checker accumulates formed-primary evidence *across* rounds;
        a forked exploration branch must therefore resume from exactly
        the chain its prefix built (a fresh checker would weaken the
        chain check, a fully accumulated one would cross-contaminate
        sibling branches).  Members values are immutable and shared.
        """
        return (dict(self._chain), list(self._chain_keys), self.rounds_checked)

    def restore_state(
        self, state: Tuple[Dict[int, Members], List[int], int]
    ) -> None:
        """Rewind to a chain previously captured by :meth:`snapshot_state`."""
        chain, chain_keys, rounds_checked = state
        self._chain = dict(chain)
        self._chain_keys = list(chain_keys)
        self.rounds_checked = rounds_checked

    # ------------------------------------------------------------------
    # Subscriber hooks (repro.obs): the same checks, event-driven.
    # ------------------------------------------------------------------

    def on_round(self, driver) -> None:
        """Run the per-round checks against a driver's current state."""
        self.check_round(driver.algorithms, driver.topology.active_processes())

    def on_quiescence(self, driver) -> None:
        """Run the quiescent-agreement check when a run drains."""
        self.check_quiescent_agreement(
            driver.algorithms,
            driver.topology.components,
            driver.topology.active_processes(),
        )

    # ------------------------------------------------------------------
    # Round-level checks.
    # ------------------------------------------------------------------

    def check_round(
        self,
        algorithms: Mapping[ProcessId, PrimaryComponentAlgorithm],
        active: Iterable[ProcessId],
    ) -> None:
        """Run all invariant checks against the post-round system state."""
        self.rounds_checked += 1
        active = list(active)
        self._check_single_live_primary(algorithms, active)
        self._accumulate_chain(algorithms, active)

    def _check_single_live_primary(
        self,
        algorithms: Mapping[ProcessId, PrimaryComponentAlgorithm],
        active: List[ProcessId],
    ) -> None:
        claimants = [pid for pid in active if algorithms[pid].in_primary()]
        if not claimants:
            return
        if not self.atomic_views:
            return  # asynchronous installs: see the class docstring
        view = algorithms[claimants[0]].current_view
        for pid in claimants:
            other = algorithms[pid].current_view
            if other.seq != view.seq or other.members != view.members:
                raise InvariantViolation(
                    "two concurrent primary components: processes "
                    f"{claimants} claim primaryhood from views "
                    f"{view.describe()} and {other.describe()}",
                    kind="dual_primary",
                )
        claimant_set = frozenset(claimants)
        expected = view.members & frozenset(active)
        if claimant_set != expected:
            raise InvariantViolation(
                "view disagreement on primaryhood: members "
                f"{sorted_members(expected - claimant_set)} of "
                f"{view.describe()} do not consider themselves primary "
                f"while {sorted(claimant_set)} do",
                kind="view_disagreement",
            )

    def check_stable_primary(
        self,
        algorithms: Mapping[ProcessId, PrimaryComponentAlgorithm],
        components: Iterable[Members],
        active: Iterable[ProcessId],
    ) -> None:
        """Strict form for stable points of an asynchronous system:
        once all traffic has drained, the claimants (if any) must be
        exactly the membership of one network component, and every
        component's members must agree."""
        active_set = frozenset(active)
        claimants = frozenset(
            pid for pid in active_set if algorithms[pid].in_primary()
        )
        components = [frozenset(c) for c in components]
        if claimants and claimants not in components:
            raise InvariantViolation(
                f"at stability, claimants {sorted_members(claimants)} are "
                "not exactly one network component "
                f"({' '.join(str(sorted_members(c)) for c in components)})",
                kind="stability_mismatch",
            )
        self.check_quiescent_agreement(algorithms, components, active_set)

    # ------------------------------------------------------------------
    # Chain accumulation and checking (YKD family).
    # ------------------------------------------------------------------

    def _accumulate_chain(
        self,
        algorithms: Mapping[ProcessId, PrimaryComponentAlgorithm],
        active: List[ProcessId],
    ) -> None:
        for pid in active:
            algorithm = algorithms[pid]
            if not algorithm.chain_checkable:
                continue
            for order_key, members in algorithm.formed_primaries():
                known = self._chain.get(order_key)
                if known is None:
                    self._chain[order_key] = members
                    self._insert_chain_key(order_key)
                elif known != members:
                    raise InvariantViolation(
                        f"two distinct primaries share order key {order_key}: "
                        f"{sorted_members(known)} vs {sorted_members(members)}",
                        kind="chain_order_conflict",
                    )

    def _insert_chain_key(self, order_key: int) -> None:
        """Insert a newly observed formation and check its chain links.

        Checking only the predecessor and successor links is exactly
        equivalent to re-validating the whole sorted chain, because all
        other consecutive pairs were checked when they became adjacent.
        """
        position = bisect.bisect_left(self._chain_keys, order_key)
        if position > 0:
            self._check_chain_pair(self._chain_keys[position - 1], order_key)
        if position < len(self._chain_keys):
            self._check_chain_pair(order_key, self._chain_keys[position])
        self._chain_keys.insert(position, order_key)

    def _check_chain_pair(self, previous: int, current: int) -> None:
        if not is_subquorum(self._chain[current], self._chain[previous]):
            raise InvariantViolation(
                "broken primary chain: "
                f"primary #{current} {sorted_members(self._chain[current])} "
                "does not contain a subquorum of "
                f"primary #{previous} {sorted_members(self._chain[previous])}",
                kind="chain_broken",
            )

    # ------------------------------------------------------------------
    # Quiescence-level checks.
    # ------------------------------------------------------------------

    def check_quiescent_agreement(
        self,
        algorithms: Mapping[ProcessId, PrimaryComponentAlgorithm],
        components: Iterable[Members],
        active: Iterable[ProcessId],
    ) -> None:
        """At quiescence, members of each component must agree."""
        active_set = set(active)
        for component in components:
            verdicts = {
                algorithms[pid].in_primary()
                for pid in component
                if pid in active_set
            }
            if len(verdicts) > 1:
                raise InvariantViolation(
                    f"members of component {sorted_members(component)} "
                    "disagree on primaryhood at quiescence",
                    kind="quiescent_disagreement",
                )

    @property
    def formed_chain(self) -> List[Tuple[int, Members]]:
        """The accumulated formation chain, oldest first (for traces)."""
        return sorted(self._chain.items())
