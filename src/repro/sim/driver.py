"""The driver loop (thesis §2.2).

"The driver loop routes all messages among the multiple instances of
the algorithm without using the network or any communication system.
It does this by polling individual processes for messages to send, and
then immediately delivering those messages to the other processes.  The
driver loop also supports fault injection and statistics gathering
during the simulation."

One *round* is one poll-and-deliver cycle over all live processes; it
is the unit in which the thesis counts change frequency.  A round runs:

1. **Poll** every non-crashed process with an empty application message
   (Fig. 2-2's behaviour), collecting piggybacked broadcasts.
2. **Inject** the round's connectivity change, if one fires.  The
   change lands *mid-round*: every process of the reconfigured
   components independently either still receives this round's messages
   ("early") or loses them ("late") — this is what makes interrupted
   attempts ambiguous (Fig. 3-1's process c is a late receiver).
   Processes of untouched components always receive everything.  A
   caller that names the late set (``run_round(change, late)``, as
   schedule replay and the explorer do) gets exactly that cut.
3. **Deliver** each broadcast to the members of the sender's pre-change
   component (a sender always receives its own broadcast).
4. **Install** new views on every member of the reconfigured
   components, then run the invariant checks and observers.

Quiescence is a round in which no process had anything to send; because
every algorithm here is event-driven, a silent round proves the system
is stable until the next connectivity change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.message import Message
from repro.core.registry import create_algorithm
from repro.core.view import View, initial_view
from repro.errors import ProtocolError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel
from repro.net.changes import (
    ConnectivityChange,
    CrashChange,
    MergeChange,
    PartitionChange,
    RecoverChange,
    UniformChangeGenerator,
    affected_processes,
    apply_change,
)
from repro.net.topology import Topology
from repro.obs import EventBus, PhaseProfiler, Subscriber
from repro.sim.invariants import InvariantChecker
from repro.types import Members, ProcessId, sorted_members


class ProcessEndpoint:
    """One simulated process: an application wrapped around an algorithm.

    The default endpoint is the idle application of Fig. 2-2 — it
    offers the algorithm an empty message on every poll and discards
    stripped incoming payloads.  Real applications (see
    ``repro.app.replicated_store``) subclass this, produce their own
    payloads in :meth:`poll` and consume them in :meth:`on_payload`,
    while the algorithm piggybacks transparently on top.
    """

    #: Application messages queued, not yet offered (the idle app: none).
    outbox_size = 0

    def __init__(self, algorithm: PrimaryComponentAlgorithm) -> None:
        self.algorithm = algorithm

    @property
    def pid(self) -> ProcessId:
        return self.algorithm.pid

    def poll(self) -> Optional[Message]:
        """Produce this round's broadcast, or None to stay silent."""
        outgoing = self.next_application_message()
        modified = self.algorithm.outgoing_message_poll(outgoing)
        if modified is not None:
            return modified
        return None if outgoing.is_empty() else outgoing

    def deliver(self, message: Message, sender: ProcessId) -> None:
        """Route an incoming broadcast through the algorithm (Fig. 2-2)."""
        stripped = self.algorithm.incoming_message(message, sender)
        if stripped.payload is not None:
            self.on_payload(stripped.payload, sender)

    def install_view(self, view: View) -> None:
        """Report a connectivity change to algorithm and application."""
        self.algorithm.view_changed(view)
        self.on_view(view)

    # Application hooks.

    def next_application_message(self) -> Message:
        """The application message to offer this round (default: empty).

        The default returns a shared empty message: the algorithm only
        reads it (``with_piggyback`` copies), and an empty message is
        never itself sent, so the instance cannot escape a poll.  Real
        applications override this and return fresh messages.
        """
        return _IDLE_MESSAGE

    def on_payload(self, payload: object, sender: ProcessId) -> None:
        """An application payload arrived (default: ignore)."""

    def on_view(self, view: View) -> None:
        """The application learned of a view change (default: ignore)."""


#: The one empty message the idle application offers on every poll.
_IDLE_MESSAGE = Message.empty()


@dataclass(frozen=True)
class DriverSnapshot:
    """A point-in-time capture of one :class:`DriverLoop`'s state.

    Holds everything that determines future behaviour — topology, view
    sequence, per-process algorithm clones, the checker's accumulated
    chain, the fault RNG state — plus the bookkeeping counters needed
    to resume reporting (round index, recorded schedule).  The stored
    algorithm clones are never handed out directly: :meth:`DriverLoop.restore`
    re-forks them, so one snapshot supports any number of restores (the
    exhaustive explorer restores each snapshot once per branch).
    """

    topology: Topology
    view_seq: int
    round_index: int
    changes_injected: int
    views_installed_this_round: Tuple[View, ...]
    recorded_steps: Tuple[Tuple[int, ConnectivityChange, frozenset], ...]
    rounds_since_change: int
    fault_rng_state: object
    algorithms: Dict[ProcessId, PrimaryComponentAlgorithm]
    checker_state: tuple
    #: Pending-delivery queue of the fault injector; empty for runs
    #: without an active fault model (the historical snapshot shape).
    fault_state: tuple = ()


class DriverLoop:
    """In-memory simulation of one system of processes."""

    def __init__(
        self,
        algorithm: str,
        n_processes: int,
        fault_rng: random.Random,
        change_generator: Optional[UniformChangeGenerator] = None,
        observers: Sequence[Subscriber] = (),
        max_quiescence_rounds: int = 400,
        endpoint_factory=ProcessEndpoint,
        cut_probability: float = 0.5,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        if n_processes < 2:
            raise SimulationError(
                "the study needs at least two processes (a single process "
                "admits no connectivity changes)"
            )
        if not 0.0 <= cut_probability <= 1.0:
            raise SimulationError("cut_probability must be in [0, 1]")
        self.algorithm_name = algorithm
        self.n_processes = n_processes
        self.fault_rng = fault_rng
        self.change_generator = change_generator or UniformChangeGenerator()
        # ``observers=[...]`` is the single attachment point for every
        # repro.obs subscriber.  Two subscriber kinds get special
        # wiring: the first InvariantChecker becomes ``self.checker``
        # (its checks run at the exact safety points, before ordinary
        # hooks), and the first PhaseProfiler receives the per-phase
        # timing brackets of run_round.
        subscribers = list(observers)
        self.checker = next(
            (s for s in subscribers if isinstance(s, InvariantChecker)), None
        )
        if self.checker is None:
            self.checker = InvariantChecker()
        else:
            subscribers.remove(self.checker)
        self._profiler: Optional[PhaseProfiler] = next(
            (s for s in subscribers if isinstance(s, PhaseProfiler)), None
        )
        #: Dispatch is snapshotted at construction: per hook, the bus
        #: holds the bound methods of exactly the subscribers that
        #: override it, so unwatched events cost an empty iteration.
        self.bus = EventBus(subscribers)
        self._run_start_hooks = self.bus.hooks("on_run_start")
        self._round_hooks = self.bus.hooks("on_round")
        self._change_hooks = self.bus.hooks("on_change")
        self._broadcast_hooks = self.bus.hooks("on_broadcast")
        self._quiescence_hooks = self.bus.hooks("on_quiescence")
        self._run_end_hooks = self.bus.hooks("on_run_end")
        self.max_quiescence_rounds = max_quiescence_rounds
        #: Probability that an affected process *loses* the current
        #: round's messages when a change lands mid-round.  0 means the
        #: change never destroys in-flight deliveries (everyone is
        #: "early"); 1 means it always does.  The thesis does not pin
        #: this down; 0.5 is the symmetric default, and the
        #: ``abl_cut_model`` experiment shows the study's conclusions
        #: are insensitive to it.
        self.cut_probability = cut_probability
        #: Adversarial fault model (repro.faults).  A clean model (all
        #: engine-affecting knobs off) leaves every delivery path
        #: untouched — the byte-identity tests pin this — so the
        #: injector only exists when link or Byzantine faults are live.
        self.fault_model: Optional[FaultModel] = fault_model
        self._injector: Optional[FaultInjector] = None
        self._amnesiac = False
        self._tolerate_protocol_errors = False
        if fault_model is not None:
            fault_model.validate_for(n_processes)
            self._amnesiac = fault_model.crashrec.amnesiac
            if fault_model.needs_injection():
                self._injector = FaultInjector(fault_model)
            # Under active Byzantine mutation, honest members can
            # detect tampering (e.g. an attempt that contradicts their
            # own deterministic decision) and raise ProtocolError; the
            # delivery loop treats that as "tamper detected, message
            # rejected" instead of crashing the simulation.
            self._tolerate_protocol_errors = fault_model.byzantine.is_active()

        self.initial_view: View = initial_view(n_processes)
        self.endpoints: Dict[ProcessId, ProcessEndpoint] = {
            pid: endpoint_factory(create_algorithm(algorithm, pid, self.initial_view))
            for pid in range(n_processes)
        }
        self.algorithms: Dict[ProcessId, PrimaryComponentAlgorithm] = {
            pid: endpoint.algorithm for pid, endpoint in self.endpoints.items()
        }
        self.topology = Topology.fully_connected(n_processes)
        self.view_seq: int = 0
        self.round_index: int = 0
        self.changes_injected: int = 0
        self.views_installed_this_round: Tuple[View, ...] = ()
        #: Who broadcast in the last round, ascending.  Like the views
        #: above, it describes one round only: neither snapshotted nor
        #: part of the canonical state.
        self.senders_this_round: Tuple[ProcessId, ...] = ()
        #: Realized fault schedule of the current run, as (gap, change,
        #: late-set) triples — exactly what :meth:`execute_schedule`
        #: replays.  Recording is always on (one append per change);
        #: :meth:`execute_run` resets it at each run start so a
        #: violating run can be turned into an explicit repro plan.
        self._recorded_steps: List[Tuple[int, ConnectivityChange, frozenset]] = []
        self._rounds_since_change: int = 0

    @property
    def observers(self) -> List[Subscriber]:
        """The attached subscribers (excluding the extracted checker)."""
        return list(self.bus.subscribers)

    # ------------------------------------------------------------------
    # One round.
    # ------------------------------------------------------------------

    def run_round(
        self,
        change: Optional[ConnectivityChange] = None,
        late: Optional[Iterable[ProcessId]] = None,
    ) -> bool:
        """Execute one round; returns True when any message was sent.

        ``late`` forces the mid-round cut of ``change`` to exactly
        ``late ∩ affected`` instead of sampling it from the fault RNG,
        which then draws nothing: the round is fully deterministic —
        the building block of exhaustive exploration and of schedule
        replay.  ``None`` samples the cut as a random run does.

        With a :class:`~repro.obs.PhaseProfiler` attached, each phase
        below is bracketed with wall/CPU timestamps; without one the
        instrumentation collapses to an ``is None`` test per phase.
        """
        self.round_index += 1
        profiler = self._profiler
        if profiler is not None:
            wall_mark, cpu_mark = profiler.open_round()

        # 1. Poll every endpoint (Fig. 2-2's application behaviour),
        #    in ascending pid order.
        bundles: Dict[ProcessId, Message] = {}
        endpoints = self.endpoints
        for pid in sorted(self.topology.active_processes()):
            message = endpoints[pid].poll()
            if message is not None:
                bundles[pid] = message
        self.senders_this_round = tuple(bundles)
        if profiler is not None:
            wall_mark, cpu_mark = profiler.lap("poll", wall_mark, cpu_mark)

        # 2. Decide who the change cuts off mid-round.
        cut: frozenset = frozenset()
        dead: frozenset = frozenset()
        new_topology: Optional[Topology] = None
        if change is not None:
            affected = affected_processes(change, self.topology)
            new_topology = apply_change(self.topology, change)
            if late is not None:
                cut = frozenset(late) & affected
            else:
                cut = frozenset(
                    pid
                    for pid in sorted(affected)
                    if self.fault_rng.random() < self.cut_probability
                )
            if isinstance(change, CrashChange):
                dead = frozenset({change.pid})
            self._recorded_steps.append(
                (self._rounds_since_change, change, cut)
            )
            self._rounds_since_change = 0
        else:
            self._rounds_since_change += 1
        if profiler is not None:
            wall_mark, cpu_mark = profiler.lap("cut", wall_mark, cpu_mark)

        # 3. Deliver within the pre-change components, sender id order
        #    (bundles was filled in ascending pid order).
        broadcast_hooks = self._broadcast_hooks
        had_matured = False
        if self._injector is not None:
            had_matured = self._deliver_faulted(bundles, cut, dead)
        else:
            topology = self.topology
            for sender, message in bundles.items():
                for hook in broadcast_hooks:
                    hook(self, sender, message)
                for recipient in sorted(topology.component_of(sender)):
                    if recipient in dead:
                        continue
                    if recipient != sender and recipient in cut:
                        continue
                    endpoints[recipient].deliver(message, sender)
        if profiler is not None:
            wall_mark, cpu_mark = profiler.lap("deliver", wall_mark, cpu_mark)

        # 4. Apply the change and install the new views.
        installed: List[View] = []
        if change is not None:
            assert new_topology is not None
            old_topology = self.topology
            self.topology = new_topology
            self.changes_injected += 1
            if self._amnesiac and isinstance(change, RecoverChange):
                # Amnesiac crash-recovery (repro.faults): the process
                # comes back with its algorithm freshly initialized —
                # every session it ever formed is forgotten — before
                # the recovery view is installed.  The endpoint object
                # persists: a real application's replicated state lives
                # on it and survives the algorithm's amnesia.
                endpoint = self.endpoints[change.pid]
                endpoint.algorithm = create_algorithm(
                    self.algorithm_name, change.pid, self.initial_view
                )
                self.algorithms[change.pid] = endpoint.algorithm
            for component in self._views_needed(change, old_topology):
                self.view_seq += 1
                view = View(members=component, seq=self.view_seq)
                installed.append(view)
                for pid in sorted(component):
                    if not self.topology.is_crashed(pid):
                        self.endpoints[pid].install_view(view)
        self.views_installed_this_round = tuple(installed)
        if profiler is not None:
            wall_mark, cpu_mark = profiler.lap("views", wall_mark, cpu_mark)

        if change is not None:
            for hook in self._change_hooks:
                hook(self, change)
        self.checker.check_round(self.algorithms, self.topology.active_processes())
        for hook in self._round_hooks:
            hook(self)
        if profiler is not None:
            profiler.lap("observe", wall_mark, cpu_mark)
        if self._injector is not None:
            # A round is only quiet when nothing was sent, nothing
            # matured, and nothing is still held in flight — otherwise
            # delayed deliveries could be mistaken for quiescence.
            return bool(bundles) or had_matured or self._injector.has_pending()
        return bool(bundles)

    def _deliver_faulted(
        self,
        bundles: Dict[ProcessId, Message],
        late: frozenset,
        dead: frozenset,
    ) -> bool:
        """Delivery phase with an active fault injector.

        Matured (previously delayed) deliveries land first — they are
        the older traffic — then the round's broadcasts, each routed
        through the injector per recipient.  Self-deliveries bypass the
        injector: a process's loop-back is not a network link, and a
        Byzantine member always processes its own *honest* broadcast.
        Late processes lose matured deliveries along with the round's
        (the mid-round cut destroys everything in flight); a crashing
        process's whole queue is discarded.  Returns whether any held
        delivery matured (for the quiescence accounting).
        """
        injector = self._injector
        assert injector is not None
        round_index = self.round_index
        broadcast_hooks = self._broadcast_hooks
        topology = self.topology
        had_matured = False
        for pid in dead:
            injector.drop_for(pid)
        if injector.has_pending():
            for recipient in sorted(topology.active_processes()):
                if recipient in dead:
                    continue
                matured = injector.matured(round_index, recipient)
                if not matured or recipient in late:
                    continue
                had_matured = True
                for sender, message in matured:
                    self._deliver_one(recipient, message, sender)
        for sender, message in bundles.items():
            for hook in broadcast_hooks:
                hook(self, sender, message)
            component = sorted(topology.component_of(sender))
            attacked = injector.attacked(round_index, sender)
            for recipient in component:
                if recipient in dead:
                    continue
                if recipient == sender:
                    self._deliver_one(recipient, message, sender)
                    continue
                if recipient in late:
                    continue
                faulted = injector.transform(
                    round_index, sender, recipient, message, component, attacked
                )
                if faulted is not None:
                    self._deliver_one(recipient, faulted, sender)
        return had_matured

    def _deliver_one(
        self, recipient: ProcessId, message: Message, sender: ProcessId
    ) -> None:
        """One faulted-path delivery, with tamper detection if Byzantine."""
        if self._tolerate_protocol_errors:
            try:
                self.endpoints[recipient].deliver(message, sender)
            except ProtocolError:
                # The recipient detected protocol-inconsistent content
                # (forged evidence contradicting its own deterministic
                # decision); under an active Byzantine model that is
                # the *correct* honest reaction — reject the message.
                pass
        else:
            self.endpoints[recipient].deliver(message, sender)

    @staticmethod
    def _views_needed(
        change: ConnectivityChange, old_topology: Topology
    ) -> List[Members]:
        """The components that must install a new view after a change."""
        if isinstance(change, PartitionChange):
            remaining = frozenset(change.component) - frozenset(change.moved)
            components = [remaining, frozenset(change.moved)]
        elif isinstance(change, MergeChange):
            components = [frozenset(change.first) | frozenset(change.second)]
        elif isinstance(change, CrashChange):
            survivors = old_topology.component_of(change.pid) - {change.pid}
            components = [survivors] if survivors else []
        elif isinstance(change, RecoverChange):
            components = [frozenset({change.pid})]
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown change type {type(change).__name__}")
        return sorted(components, key=sorted_members)

    # ------------------------------------------------------------------
    # Run orchestration.
    # ------------------------------------------------------------------

    def run_until_quiescent(self) -> int:
        """Run change-free rounds until a silent round; returns how many."""
        for elapsed in range(self.max_quiescence_rounds):
            if not self.run_round(None):
                return elapsed + 1
        raise SimulationError(
            f"{self.algorithm_name} did not quiesce within "
            f"{self.max_quiescence_rounds} rounds — livelock?"
        )

    def execute_run(self, gaps: Iterable[int]) -> None:
        """One measured run: inject a change after each gap, then settle.

        ``gaps`` are the change-free round counts drawn from the fault
        schedule; the change itself is drawn from the change generator
        at fire time, so the realized fault sequence depends only on
        the fault RNG and never on the algorithm under test.
        """
        self.reset_schedule_recording()
        for hook in self._run_start_hooks:
            hook(self)
        for gap in gaps:
            for _ in range(gap):
                self.run_round(None)
            change = self.change_generator.propose(self.topology, self.fault_rng)
            self.run_round(change)
        self.run_until_quiescent()
        self._publish_quiescence()
        for hook in self._run_end_hooks:
            hook(self)

    def _publish_quiescence(self) -> None:
        """Safety-check the quiescent state, then notify subscribers.

        The checker's quiescent-agreement check runs first — exactly as
        it always did — so a violation propagates before any ordinary
        subscriber observes the (broken) stable state.
        """
        self.checker.check_quiescent_agreement(
            self.algorithms,
            self.topology.components,
            self.topology.active_processes(),
        )
        for hook in self._quiescence_hooks:
            hook(self)

    # ------------------------------------------------------------------
    # Scripted replay (repro.check and repro.sim.explore).
    # ------------------------------------------------------------------

    def execute_schedule(
        self,
        steps: Iterable[Tuple[int, ConnectivityChange, Optional[frozenset]]],
        settle: bool = True,
    ) -> None:
        """Replay an explicit fault schedule against this system.

        ``steps`` are (gap, change, late) triples: run ``gap`` quiet
        rounds, then inject ``change`` with the given late-set (``None``
        samples the cut from the fault RNG as a random run would).
        With ``settle`` the run afterwards drains to quiescence under
        the quiescent-agreement check, mirroring :meth:`execute_run`.

        Replaying the same steps against the same initial state is
        bit-for-bit deterministic whenever every late-set is explicit,
        whatever the fault RNG — this is the driver-side hook that
        ``repro.check`` (fuzzing, shrinking, repro files) and
        ``repro.sim.explore`` build on.
        """
        self.reset_schedule_recording()
        for hook in self._run_start_hooks:
            hook(self)
        for gap, change, late in steps:
            for _ in range(gap):
                self.run_round(None)
            self.run_round(change, late)
        if settle:
            self.run_until_quiescent()
            self._publish_quiescence()
        for hook in self._run_end_hooks:
            hook(self)

    def recorded_steps(
        self,
    ) -> List[Tuple[int, ConnectivityChange, frozenset]]:
        """The realized fault schedule of the current run.

        Each entry is a (gap, change, late) triple exactly as
        :meth:`execute_schedule` consumes them, so any random run —
        including one that just raised an :class:`InvariantViolation` —
        can be replayed deterministically from a fresh system.  Valid
        as a standalone plan only for runs started from the pristine
        initial state (fresh-start campaigns; cascading runs replay
        their tail against accumulated state).
        """
        return list(self._recorded_steps)

    def reset_schedule_recording(self) -> None:
        """Start a new recorded schedule (called at each run start)."""
        self._recorded_steps.clear()
        self._rounds_since_change = 0

    # ------------------------------------------------------------------
    # State forking (repro.sim.explore's prefix-sharing model checker).
    # ------------------------------------------------------------------

    def snapshot(self) -> DriverSnapshot:
        """Capture the complete behavioural state of this system.

        Restoring the snapshot (any number of times) resumes execution
        byte-identically: every subsequent round produces the same
        messages, views, primaries and invariant verdicts the original
        execution would have.  Algorithm state is captured by
        :meth:`~repro.core.interface.PrimaryComponentAlgorithm.fork`,
        the checker's accumulated chain by
        :meth:`~repro.sim.invariants.InvariantChecker.snapshot_state`.
        Observer-side state (traces, metrics) is deliberately *not*
        captured — observers watch one linear execution; forking
        explorers emit their own progress events instead.
        """
        return DriverSnapshot(
            topology=self.topology,
            view_seq=self.view_seq,
            round_index=self.round_index,
            changes_injected=self.changes_injected,
            views_installed_this_round=self.views_installed_this_round,
            recorded_steps=tuple(self._recorded_steps),
            rounds_since_change=self._rounds_since_change,
            fault_rng_state=self.fault_rng.getstate(),
            algorithms={
                pid: endpoint.algorithm.fork()
                for pid, endpoint in self.endpoints.items()
            },
            checker_state=self.checker.snapshot_state(),
            fault_state=(
                self._injector.snapshot_state()
                if self._injector is not None
                else ()
            ),
        )

    def restore(self, snapshot: DriverSnapshot) -> None:
        """Rewind this system to a previously captured snapshot.

        The endpoint objects persist (application state and subclass
        identity live on them, outside the snapshot); each one receives
        a fresh fork of the stored algorithm clone, so the snapshot
        itself stays pristine and can be restored again later.
        """
        for pid, stored in snapshot.algorithms.items():
            self.endpoints[pid].algorithm = stored.fork()
        self.algorithms = {
            pid: endpoint.algorithm for pid, endpoint in self.endpoints.items()
        }
        self.topology = snapshot.topology
        self.view_seq = snapshot.view_seq
        self.round_index = snapshot.round_index
        self.changes_injected = snapshot.changes_injected
        self.views_installed_this_round = snapshot.views_installed_this_round
        self._recorded_steps = list(snapshot.recorded_steps)
        self._rounds_since_change = snapshot.rounds_since_change
        self.fault_rng.setstate(snapshot.fault_rng_state)
        self.checker.restore_state(snapshot.checker_state)
        if self._injector is not None:
            self._injector.restore_state(snapshot.fault_state)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def primary_exists(self) -> bool:
        """Is any live process currently inside a primary component?"""
        return any(
            self.algorithms[pid].in_primary()
            for pid in self.topology.active_processes()
        )

    def primary_members(self) -> Optional[Tuple[ProcessId, ...]]:
        """The member tuple of the live primary, or None."""
        claimants = [
            pid
            for pid in self.topology.active_processes()
            if self.algorithms[pid].in_primary()
        ]
        return tuple(sorted(claimants)) if claimants else None

    def describe(self) -> str:  # pragma: no cover - debugging aid
        """One-line snapshot of round, topology and primary."""
        return (
            f"round={self.round_index} changes={self.changes_injected} "
            f"topology={self.topology.describe()} "
            f"primary={self.primary_members()}"
        )
