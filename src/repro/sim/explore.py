"""Exhaustive scenario exploration: a bounded model checker.

Random campaigns (the thesis' method, and ours) sample the fault space;
for *small* systems the space can be enumerated instead.  The explorer
drives an algorithm through **every** fault schedule up to a bound:

* every feasible connectivity change at each step (every way to split
  every component — deduplicated up to moved/remaining symmetry — and
  every pair of components to merge);
* every mid-round cut: every subset of the affected processes may be
  the "late" set that loses the round's messages;
* every gap choice: each configured number of quiet rounds before the
  change lands, so every protocol round of every algorithm gets
  interrupted somewhere in the enumeration.

Each complete scenario runs to quiescence under the full invariant
checker, so a single call proves (for that bound) that no reachable
interleaving violates safety — the exhaustive complement to the thesis'
1.3-million-random-changes trial.  The first violating scenario, in
enumeration order, ends the exploration and is the one reported.

Two engines implement the same enumeration:

* :func:`explore` — **prefix-sharing DFS with driver state forking**.
  A shared scenario prefix executes once; each branch restores a
  :class:`~repro.sim.driver.DriverSnapshot` instead of replaying from
  the initial state.  Canonical state hashing
  (:mod:`repro.sim.statehash`) deduplicates converged states; late-sets
  that silence the same processes, and gaps past the first silent quiet
  round, run once for all of them.  The result
  (scenarios, availability, violations) is **identical** to the replay
  engine's on the same bound — the differential test suite enforces
  this.
* :func:`explore_replay` — the original replay-per-scenario engine,
  kept verbatim as the reference implementation the fork engine is
  verified against.

Scenario counts grow as roughly ``(changes × cuts × gaps)^depth``;
prefix sharing plus deduplication is what makes ``n_processes=4,
depth=2`` (hundreds of thousands of replayed rounds) routine.  See
``docs/model-checking.md`` for the soundness argument.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import InvariantViolation
from repro.net.changes import (
    ConnectivityChange,
    MergeChange,
    PartitionChange,
    affected_processes,
    apply_change,
)
from repro.net.topology import Topology
from repro.obs import Subscriber
from repro.sim.driver import DriverLoop, DriverSnapshot
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.sim.statehash import state_fingerprint
from repro.types import Members


def enumerate_changes(topology: Topology) -> Iterator[ConnectivityChange]:
    """Every feasible partition and merge of a topology, deterministically.

    Partitions are deduplicated up to the moved/remaining symmetry (the
    split {a}|{b,c} equals {b,c}|{a}); the canonical representative
    moves the set *not* containing the component's smallest member.
    """
    for component in topology.components:
        if len(component) < 2:
            continue
        ordered = sorted(component)
        anchor = ordered[0]
        rest = ordered[1:]
        # Every non-empty subset of `rest` is a valid moved-set that
        # does not contain the anchor: exactly one per split.
        for size in range(1, len(rest) + 1):
            for moved in itertools.combinations(rest, size):
                yield PartitionChange(
                    component=component, moved=frozenset(moved)
                )
    live = topology.live_components()
    for first, second in itertools.combinations(live, 2):
        yield MergeChange(first=first, second=second)


def enumerate_cuts(affected: Members) -> Iterator[FrozenSet[int]]:
    """Every possible late-set of a mid-round cut."""
    ordered = sorted(affected)
    for size in range(len(ordered) + 1):
        for subset in itertools.combinations(ordered, size):
            yield frozenset(subset)


@dataclass
class ExploreStats:
    """How the fork-based explorer spent its work (all counts exact).

    ``nodes`` counts distinct subtree evaluations (states visited),
    ``leaves`` complete scenarios actually settled;
    ``dedup_hits`` subtrees answered from the canonical-state memo and
    ``cut_collapsed`` late-sets not simulated because an earlier one of
    the same change agrees with it on the affected processes the round's
    broadcasts reach, so both reach one state (every late-set, when the
    round is silent).  Gaps that share a settled state add their delta
    without entering the cut loop, so they count in neither.
    ``memo_parts`` is the number of distinct state parts (topologies,
    chains and per-process algorithm encodings) the memo keys refer
    to.  ``rounds`` is the total driver
    rounds executed — the direct measure of work the replay engine
    would have multiplied.
    """

    nodes: int = 0
    leaves: int = 0
    dedup_hits: int = 0
    memo_parts: int = 0
    cut_collapsed: int = 0
    snapshots: int = 0
    restores: int = 0
    rounds: int = 0
    max_fork_depth: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-compatible form (the CLI's ``--stats-out`` artifact)."""
        return asdict(self)


@dataclass(frozen=True)
class Counterexample:
    """One violating schedule, captured live with its causal explanation.

    ``plan_steps`` is the realized (gap, change, late) schedule from the
    pristine initial state up to and including the violating step —
    directly replayable through :meth:`DriverLoop.execute_schedule` or
    convertible to a ``repro.check`` plan via ``plan_from_recorded``.
    ``blame`` is the non-primary-round breakdown of that replay as
    reconstructed by :mod:`repro.obs.causal` (nonzero categories only,
    sorted), so every counterexample answers not just *that* the bound
    was violated but what the availability picture looked like on the
    way there.
    """

    algorithm: str
    n_processes: int
    steps: Tuple[str, ...]
    violation: str
    plan_steps: Tuple[Tuple[int, ConnectivityChange, FrozenSet[int]], ...]
    blame: Tuple[Tuple[str, int], ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (the CLI's ``--stats-out`` artifact)."""
        return {
            "algorithm": self.algorithm,
            "n_processes": self.n_processes,
            "steps": list(self.steps),
            "violation": self.violation,
            "blame": {category: count for category, count in self.blame},
        }


@dataclass
class ExplorationResult:
    """What the exhaustive exploration covered and found."""

    algorithm: str
    n_processes: int
    depth: int
    gap_options: Tuple[int, ...]
    scenarios: int = 0
    available: int = 0
    #: The first violating scenario, rendered; empty when the bound held.
    violations: List[str] = field(default_factory=list)
    #: Work accounting of the fork-based engine (None for the replay
    #: reference engine, which has nothing interesting to report).
    stats: Optional[ExploreStats] = None
    #: The violation's structured counterexample with causal blame
    #: (the replay engine does not fill this).
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def availability_percent(self) -> float:
        if not self.scenarios:
            return float("nan")
        return 100.0 * self.available / self.scenarios

    @property
    def passed(self) -> bool:
        return not self.violations and self.scenarios > 0


def _describe_step(
    gap: int, change: ConnectivityChange, late: FrozenSet[int]
) -> str:
    """One step exactly as violation reports have always rendered it."""
    return f"gap={gap} {change.describe()} late={sorted(late)}"


def _check_bound(depth: int, gap_options: Sequence[int]) -> Tuple[int, ...]:
    """Refuse a bound neither engine can enumerate; returns the gaps."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gaps = tuple(gap_options)
    if not gaps or min(gaps) < 0:
        raise ValueError(
            f"gap_options must be one or more gaps >= 0, not {list(gaps)}"
        )
    return gaps


def explore_replay(
    algorithm: str,
    n_processes: int = 3,
    depth: int = 2,
    gap_options: Sequence[int] = (0, 1, 2),
) -> ExplorationResult:
    """The reference engine: replay every complete scenario from scratch.

    Runs depth-first: a scenario is a sequence of ``depth`` steps, each
    a (quiet gap, connectivity change, late-set) triple, followed by
    quiescence; the first violating scenario ends the run.  Each
    complete scenario replays from the initial state through a fresh
    driver — wasteful (the same prefix re-executes once per extension)
    but straightforwardly correct, which is exactly why it is kept: the
    fork-based :func:`explore` is differentially tested against it on
    every registered algorithm.
    """
    gap_options = _check_bound(depth, gap_options)
    result = ExplorationResult(
        algorithm=algorithm,
        n_processes=n_processes,
        depth=depth,
        gap_options=gap_options,
    )

    def run_scenario(steps: List[Tuple[int, ConnectivityChange, FrozenSet[int]]]) -> bool:
        """Replay one complete scenario; returns its availability."""
        driver = DriverLoop(
            algorithm=algorithm,
            n_processes=n_processes,
            # Never consumed: every cut is injected explicitly, but the
            # stream is labelled so any future sampled decision stays
            # inside the reproducibility discipline.
            fault_rng=derive_rng(0, "explore", algorithm),
            observers=[InvariantChecker()],
        )
        driver.execute_schedule(steps)
        return driver.primary_exists()

    def scenario_prefixes(
        steps: List[Tuple[int, ConnectivityChange, FrozenSet[int]]],
        topology: Topology,
        remaining: int,
    ) -> Iterator[List[Tuple[int, ConnectivityChange, FrozenSet[int]]]]:
        """Yield every complete scenario extending ``steps``."""
        if remaining == 0:
            yield list(steps)
            return
        for gap in gap_options:
            for change in enumerate_changes(topology):
                affected = affected_processes(change, topology)
                next_topology = apply_change(topology, change)
                for late in enumerate_cuts(affected):
                    steps.append((gap, change, late))
                    yield from scenario_prefixes(
                        steps, next_topology, remaining - 1
                    )
                    steps.pop()

    initial = Topology.fully_connected(n_processes)
    for scenario in scenario_prefixes([], initial, depth):
        result.scenarios += 1
        try:
            if run_scenario(scenario):
                result.available += 1
        except InvariantViolation as violation:
            description = "; ".join(
                _describe_step(gap, change, late)
                for gap, change, late in scenario
            )
            result.violations.append(f"{description}: {violation}")
            break
    return result


class _RoundCounter(Subscriber):
    """Counts driver rounds for :class:`ExploreStats` and the bench."""

    def __init__(self) -> None:
        self.rounds = 0

    def on_round(self, driver) -> None:
        self.rounds += 1


class _Abort(Exception):
    """Internal: unwind the DFS at the first violation."""


class _Explorer:
    """One fork-based exploration: a DFS over driver snapshots.

    Owns a single driver whose state is snapshotted at every branch
    point and restored per branch; complete scenarios settle at the
    leaves.  Mirrors the replay engine's enumeration order exactly —
    ``for gap → for change → for late``, depth-first — so scenario
    counts, availability and the first violation coincide with
    :func:`explore_replay` on every bound.
    """

    def __init__(
        self,
        algorithm: str,
        n_processes: int,
        depth: int,
        gap_options: Tuple[int, ...],
    ) -> None:
        self.algorithm = algorithm
        self.n_processes = n_processes
        self.depth = depth
        self.gap_options = gap_options
        self.result = ExplorationResult(
            algorithm=algorithm,
            n_processes=n_processes,
            depth=depth,
            gap_options=gap_options,
            stats=ExploreStats(),
        )
        self.stats = self.result.stats
        self._steps_desc: List[str] = []
        #: Every distinct part of a fingerprint met so far -> its id.
        #: One table per exploration, so nothing outlives the run.
        self._part_ids: Dict[tuple, int] = {}
        #: Exact-state memo: :meth:`_memo_key` -> the subtree's
        #: (scenarios, available).  A subtree that violates aborts the
        #: whole exploration before its entry is stored, so every entry
        #: is a violation-free count.
        self._memo: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        self._counter = _RoundCounter()
        self.driver = DriverLoop(
            algorithm=algorithm,
            n_processes=n_processes,
            # Never consumed — all cuts are explicit (see explore_replay).
            fault_rng=derive_rng(0, "explore", algorithm),
            observers=[InvariantChecker(), self._counter],
        )

    def run(self) -> None:
        """Explore the whole bound from the initial state."""
        try:
            self._subtree(self.depth)
        except _Abort:
            pass
        self.stats.rounds = self._counter.rounds
        self.stats.memo_parts = len(self._part_ids)

    # ------------------------------------------------------------------
    # The DFS.
    # ------------------------------------------------------------------

    def _subtree(self, remaining: int) -> None:
        """Explore every scenario suffix from the driver's current state."""
        depth_now = len(self._steps_desc)
        if depth_now > self.stats.max_fork_depth:
            self.stats.max_fork_depth = depth_now
        # The memo merges only *identical* states.  Counting one
        # representative per class of states equal up to process
        # relabeling is unsound: the exact-half tie-break of dynamic
        # linear voting (repro.core.quorum) makes process ids
        # behaviourally meaningful (docs/model-checking.md).
        key = self._memo_key(remaining, state_fingerprint(self.driver))
        entry = self._memo.get(key)
        if entry is not None:
            self.stats.dedup_hits += 1
            self.result.scenarios += entry[0]
            self.result.available += entry[1]
            return
        self.stats.nodes += 1
        mark_s = self.result.scenarios
        mark_a = self.result.available
        if remaining == 0:
            self._leaf()
        else:
            self._enumerate(remaining)
        self._memo[key] = (
            self.result.scenarios - mark_s,
            self.result.available - mark_a,
        )

    def _memo_key(self, remaining: int, fingerprint: tuple) -> Tuple[int, ...]:
        """The fingerprint as a flat tuple of ints, for the memo.

        The topology, the chain and each ``(pid, algorithm encoding)``
        pair is replaced by its index in :attr:`_part_ids`.  The table
        maps by equality, so two keys are equal iff the fingerprints
        are: merging stays exact.  A repeated part is stored once, and
        a lookup hashes a few ints instead of the whole nested state.
        """
        _, topology, view_seq, algorithms, chain = fingerprint
        ids = self._part_ids
        return (
            remaining,
            view_seq,
            ids.setdefault(topology, len(ids)),
            ids.setdefault(chain, len(ids)),
            *[ids.setdefault(part, len(ids)) for part in algorithms],
        )

    def _leaf(self) -> None:
        """A complete scenario: settle to quiescence and classify it."""
        self.result.scenarios += 1
        self.stats.leaves += 1
        try:
            self.driver.run_until_quiescent()
            self.driver._publish_quiescence()
            if self.driver.primary_exists():
                self.result.available += 1
        except InvariantViolation as violation:
            self._stop((), self._capture_counterexample(str(violation)))

    def _enumerate(self, remaining: int) -> None:
        """One DFS level: for gap → for change → for late, forking.

        Two kinds of branch reach the state of an earlier sibling and
        add its ``(scenarios, available)`` delta instead of simulating:

        * **Settled gaps.**  Every gap from the first silent quiet round
          on has the same state (:meth:`_gap_states`); the first of them
          met is explored.
        * **Cut classes.**  A late-set acts only through ``cut``, which
          drops the delivery ``s → r`` for ``r`` late, ``r ≠ s`` and
          ``r`` in ``s``'s pre-change component.  Only the affected
          processes that another process broadcasts to (``heard``) can
          lose anything, so late-sets equal on ``late & heard`` reach
          one state.  The poll decides who broadcasts before the cut,
          so ``heard`` is known after the first simulated late-set.

        Both kinds are keyed in enumeration order, so the simulated
        member of each class is the one the reference engine meets
        first, and so is the first violation.
        """
        driver = self.driver
        base = driver.snapshot()
        self.stats.snapshots += 1
        gap_snaps, settled_at, gap_violation = self._gap_states(base)
        #: Delta per gap class: a gap below ``settled_at`` is its own
        #: class, every gap from it on is in class ``settled_at``.
        gap_deltas: Dict[int, Tuple[int, int]] = {}
        for gap in self.gap_options:
            if gap_violation is not None and gap >= gap_violation[0]:
                self._stop_extending(
                    base.topology, gap, remaining, gap_violation[1]
                )
            share = gap if settled_at is None else min(gap, settled_at)
            delta = gap_deltas.get(share)
            if delta is not None:
                self.result.scenarios += delta[0]
                self.result.available += delta[1]
                continue
            gap_s = self.result.scenarios
            gap_a = self.result.available
            snap = gap_snaps[gap]
            topology = snap.topology
            for change in enumerate_changes(topology):
                affected = affected_processes(change, topology)
                next_topology = apply_change(topology, change)
                heard: Optional[FrozenSet[int]] = None
                cut_deltas: Dict[FrozenSet[int], Tuple[int, int]] = {}
                for late in enumerate_cuts(affected):
                    if heard is not None:
                        delta = cut_deltas.get(late & heard)
                        if delta is not None:
                            self.result.scenarios += delta[0]
                            self.result.available += delta[1]
                            self.stats.cut_collapsed += 1
                            continue
                    self._steps_desc.append(_describe_step(gap, change, late))
                    try:
                        driver.restore(snap)
                        self.stats.restores += 1
                        mark_s = self.result.scenarios
                        mark_a = self.result.available
                        try:
                            driver.run_round(change, late)
                        except InvariantViolation as violation:
                            self._stop_extending(
                                next_topology,
                                self.gap_options[0],
                                remaining - 1,
                                self._capture_counterexample(str(violation)),
                            )
                        if heard is None:
                            heard = affected & frozenset().union(*[
                                topology.component_of(sender) - {sender}
                                for sender in driver.senders_this_round
                            ])
                        self._subtree(remaining - 1)
                        cut_deltas[late & heard] = (
                            self.result.scenarios - mark_s,
                            self.result.available - mark_a,
                        )
                    finally:
                        self._steps_desc.pop()
            gap_deltas[share] = (
                self.result.scenarios - gap_s,
                self.result.available - gap_a,
            )

    def _gap_states(
        self, base: DriverSnapshot
    ) -> Tuple[
        Dict[int, DriverSnapshot],
        Optional[int],
        Optional[Tuple[int, Counterexample]],
    ]:
        """Snapshot the state after each configured quiet gap.

        Quiet rounds run once, incrementally in ascending gap order —
        this is the prefix sharing at the gap level.  A quiet round
        that sends nothing is a fixed point: every algorithm is
        event-driven, so further quiet rounds change only the round
        counters.  Rounds stop at the first such round ``q`` (the second
        return value), and every gap ``>= q`` gets its state without
        running more, with the counters advanced as if it had.  If
        quiet round ``q`` raises an invariant violation, every gap
        ``>= q`` deterministically replays into the same violation; the
        third return value carries ``(q, counterexample)`` and those
        gaps get no snapshot.
        """
        snaps: Dict[int, DriverSnapshot] = {}
        settled: Optional[DriverSnapshot] = None
        violation: Optional[Tuple[int, Counterexample]] = None
        executed = 0
        for gap in sorted(set(self.gap_options)):
            while settled is None and violation is None and executed < gap:
                try:
                    sent = self.driver.run_round(None)
                except InvariantViolation as raised:
                    violation = (
                        executed + 1,
                        self._capture_counterexample(str(raised)),
                    )
                    break
                executed += 1
                if not sent:
                    settled = self.driver.snapshot()
                    self.stats.snapshots += 1
            if violation is not None and gap >= violation[0]:
                continue
            if gap == 0:
                snaps[gap] = base
            elif settled is not None:
                idle = gap - executed
                snaps[gap] = replace(
                    settled,
                    round_index=settled.round_index + idle,
                    rounds_since_change=settled.rounds_since_change + idle,
                )
            else:
                snaps[gap] = self.driver.snapshot()
                self.stats.snapshots += 1
        return snaps, (executed if settled is not None else None), violation

    # ------------------------------------------------------------------
    # The first violation ends the exploration.
    # ------------------------------------------------------------------

    def _stop_extending(
        self,
        topology: Topology,
        gap: int,
        remaining: int,
        example: Counterexample,
    ) -> NoReturn:
        """Report the first scenario extending an already-violated prefix.

        The prefix rounds are deterministic, so that scenario's replay
        (which is what the reference engine runs) raises the identical
        violation before its remaining steps ever execute; the steps are
        therefore named without simulating — first change, empty cut,
        and ``gap_options[0]`` after the first step — in exactly the
        reference enumeration order.
        """
        suffix: List[str] = []
        for _ in range(remaining):
            change = next(enumerate_changes(topology))
            suffix.append(_describe_step(gap, change, frozenset()))
            topology = apply_change(topology, change)
            gap = self.gap_options[0]
        self.result.scenarios += 1
        self._stop(suffix, example)

    def _stop(
        self, suffix: Sequence[str], example: Counterexample
    ) -> NoReturn:
        """Record the violating scenario and unwind the whole DFS."""
        steps = "; ".join([*self._steps_desc, *suffix])
        self.result.violations.append(f"{steps}: {example.violation}")
        self.result.counterexamples.append(example)
        raise _Abort

    def _capture_counterexample(self, text: str) -> Counterexample:
        """Snapshot the live violating schedule and attribute its blame.

        Called at the moment a violation is raised by the *live* driver
        (leaf settling, a scripted change round, or a quiet gap round),
        while ``recorded_steps`` still holds the realized schedule from
        the pristine initial state.  Every scenario extending that
        prefix fails identically, so this explains whichever of them
        is reported.
        """
        from repro.check.differential import replay_blame
        from repro.check.plan import plan_from_recorded

        plan_steps = tuple(
            (gap, change, frozenset(late))
            for gap, change, late in self.driver.recorded_steps()
        )
        return Counterexample(
            algorithm=self.algorithm,
            n_processes=self.n_processes,
            steps=tuple(self._steps_desc),
            violation=text,
            plan_steps=plan_steps,
            blame=replay_blame(
                plan_from_recorded(self.n_processes, plan_steps),
                self.algorithm,
            ),
        )


def explore(
    algorithm: str,
    n_processes: int = 3,
    depth: int = 2,
    gap_options: Sequence[int] = (0, 1, 2),
) -> ExplorationResult:
    """Exhaustively check one algorithm over all bounded fault schedules.

    The fork-based engine: shared scenario prefixes execute once (via
    :meth:`DriverLoop.snapshot` / :meth:`~DriverLoop.restore`),
    converged states are deduplicated by canonical hashing, and branches
    that provably reach an earlier sibling's state — late-sets that
    silence the same processes, gaps past the first silent quiet round —
    add its counts instead of running.  The first
    violation ends the exploration.  Scenario counts, availability and
    that violation are identical to :func:`explore_replay` on the same
    bound, and both raise :class:`ValueError` on ``depth < 1`` or on an
    empty or negative ``gap_options``.
    """
    explorer = _Explorer(
        algorithm=algorithm,
        n_processes=n_processes,
        depth=depth,
        gap_options=_check_bound(depth, gap_options),
    )
    explorer.run()
    return explorer.result
