"""Statistics collection for simulations (thesis §4.1, §4.2, §3.4).

Observers hang off the driver loop and record what the thesis measured:

* :class:`AvailabilityCollector` — did each run end with a primary
  component (the availability percentage of Figs. 4-1..4-6);
* :class:`AmbiguousSessionCollector` — how many ambiguous sessions one
  monitored process retains, sampled at every connectivity change
  ("in progress", Fig. 4-8) and at the stable end of each run
  ("stable", Fig. 4-7);
* :class:`MessageSizeCollector` — estimated wire size of the piggyback
  broadcasts (the §3.4/"two kilobytes" accounting);
* :class:`BlockingCollector` — per installed view, the rounds from its
  installation to its formation as a primary, or how long it stayed
  blocked (the §3.4 rounds table and the blocking-period table).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.message import Message, estimate_piggyback_size_bits
from repro.obs import Subscriber

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.driver import DriverLoop


class AvailabilityCollector(Subscriber):
    """Fraction of runs that end with a live primary component."""

    def __init__(self) -> None:
        self.outcomes: List[bool] = []

    def on_run_end(self, driver: "DriverLoop") -> None:
        self.outcomes.append(driver.primary_exists())

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def available_runs(self) -> int:
        return sum(self.outcomes)

    @property
    def availability_percent(self) -> float:
        if not self.outcomes:
            raise ValueError("no runs recorded")
        return 100.0 * self.available_runs / self.runs


class AmbiguousSessionCollector(Subscriber):
    """Ambiguous-session counts of one monitored process (§4.2).

    "For each run, the process reported both the number of ambiguous
    sessions stored when the network situation stabilized at the end of
    the run and the number of ambiguous sessions present each time a
    connectivity change occurred."
    """

    def __init__(self, monitored_pid: int = 0) -> None:
        self.monitored_pid = monitored_pid
        #: Histogram of counts sampled at each connectivity change.
        self.in_progress: Counter = Counter()
        #: Histogram of counts sampled at the stable end of each run.
        self.stable: Counter = Counter()
        #: As ``stable``, but only for runs the monitored process ends
        #: inside the primary component — the thesis' "at the conclusion
        #: of a successful run, none of the algorithms retains any
        #: ambiguous sessions at all" is about exactly these samples.
        self.stable_in_primary: Counter = Counter()
        self.max_observed: int = 0

    def _sample(self, driver: "DriverLoop") -> Optional[int]:
        if driver.topology.is_crashed(self.monitored_pid):
            return None
        count = driver.algorithms[self.monitored_pid].ambiguous_session_count()
        self.max_observed = max(self.max_observed, count)
        return count

    def on_change(self, driver: "DriverLoop", change: Any) -> None:
        count = self._sample(driver)
        if count is not None:
            self.in_progress[count] += 1

    def on_run_end(self, driver: "DriverLoop") -> None:
        count = self._sample(driver)
        if count is not None:
            self.stable[count] += 1
            if driver.algorithms[self.monitored_pid].in_primary():
                self.stable_in_primary[count] += 1


class MessageSizeCollector(Subscriber):
    """Estimated sizes of the algorithm's piggyback broadcasts (§3.4)."""

    def __init__(self) -> None:
        self.broadcasts: int = 0
        self.total_bits: int = 0
        self.max_bits: int = 0

    def on_broadcast(self, driver: "DriverLoop", sender: int, message: Message) -> None:
        if message.piggyback is None:
            return
        bits = estimate_piggyback_size_bits(
            message.piggyback, universe_size=driver.n_processes
        )
        self.broadcasts += 1
        self.total_bits += bits
        self.max_bits = max(self.max_bits, bits)

    @property
    def max_bytes(self) -> float:
        return self.max_bits / 8.0

    @property
    def mean_bytes(self) -> float:
        if not self.broadcasts:
            return 0.0
        return self.total_bits / 8.0 / self.broadcasts


class BlockingCollector(Subscriber):
    """Per-view blocking accounting (thesis Ch. 1/§3.4 concept).

    "When interrupted, dynamic voting algorithms differ in the length
    of their blocking period."  This collector measures it directly:
    for every installed view it records how long the view lived and
    whether it ever became a primary.

    * a view that forms contributes its rounds-to-form to
      :attr:`formed_durations`;
    * a view replaced before forming contributes its full lifetime to
      :attr:`blocked_lifetimes` (the component was blocked throughout);
    * a view still unformed when its run quiesces is *terminally
      blocked* — the component sits without a primary until the next
      connectivity change, however far away that is.
    """

    def __init__(self) -> None:
        self._birth: Dict[int, int] = {}  # view seq -> round installed
        self._members: Dict[int, frozenset] = {}
        self._member_view: Dict[int, int] = {}  # pid -> its current seq
        self._formed: set = set()
        self.views_observed = 0
        self.formed_durations: List[int] = []
        self.blocked_lifetimes: List[int] = []
        self.terminally_blocked = 0

    def on_round(self, driver: "DriverLoop") -> None:
        # New views retire their members' previous views.
        for view in driver.views_installed_this_round:
            for pid in view.members:
                old_seq = self._member_view.get(pid)
                if old_seq is not None and old_seq in self._birth:
                    self._retire(old_seq, driver.round_index)
                self._member_view[pid] = view.seq
            self.views_observed += 1
            self._birth[view.seq] = driver.round_index
            self._members[view.seq] = view.members
        # Detect formations among the views still alive.
        for seq in list(self._birth):
            if seq in self._formed:
                continue
            members = self._members[seq]
            claimant = next(iter(members))
            algorithm = driver.algorithms[claimant]
            if algorithm.in_primary() and algorithm.current_view.seq == seq:
                self._formed.add(seq)
                self.formed_durations.append(
                    driver.round_index - self._birth[seq]
                )

    def _retire(self, seq: int, round_index: int) -> None:
        birth = self._birth.pop(seq)
        self._members.pop(seq, None)
        if seq in self._formed:
            self._formed.discard(seq)
        else:
            self.blocked_lifetimes.append(round_index - birth)

    def on_run_end(self, driver: "DriverLoop") -> None:
        # Views alive and unformed at quiescence are terminally blocked:
        # quiescence means no message will ever arrive, so they cannot
        # form until a connectivity change replaces them.  No view alive
        # at the end of a run has anything left to count, so tracking
        # starts afresh with the next run: a cascading campaign does not
        # count a view twice, and a fresh run, which numbers its views
        # from the start again, is not mistaken for the previous one.
        self.terminally_blocked += len(self._birth.keys() - self._formed)
        self._birth.clear()
        self._members.clear()
        self._member_view.clear()
        self._formed.clear()

    @property
    def formation_rate(self) -> float:
        """Fraction of observed views that became primaries."""
        if not self.views_observed:
            return float("nan")
        return len(self.formed_durations) / self.views_observed

    @property
    def mean_rounds_to_form(self) -> float:
        if not self.formed_durations:
            return float("nan")
        return sum(self.formed_durations) / len(self.formed_durations)

    @property
    def mean_blocked_lifetime(self) -> float:
        if not self.blocked_lifetimes:
            return float("nan")
        return sum(self.blocked_lifetimes) / len(self.blocked_lifetimes)
