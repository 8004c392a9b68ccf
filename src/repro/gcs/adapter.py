"""Running a primary-component algorithm over the GCS stack.

The thesis §2.1 claims the algorithm interface is free of dependencies
on any specific communication service: "any group communication service
which has reliable multicast and can report connectivity changes will
work".  This adapter is the proof by construction — the very same
algorithm objects the simulation driver runs plug into the negotiated
views and view-synchronous multicasts of `repro.gcs`, Fig. 2-2 style.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.message import Message
from repro.core.registry import create_algorithm
from repro.core.view import View, initial_view
from repro.gcs.stack import Delivered, GCSCluster, GCStack, ViewInstalled
from repro.sim.driver import ProcessEndpoint
from repro.sim.invariants import InvariantChecker
from repro.types import ProcessId


class AlgorithmOnGCS:
    """One process: an application endpoint on a GCS stack.

    Accepts any :class:`~repro.sim.driver.ProcessEndpoint` — the bare
    default (an idle Fig. 2-2 application around the algorithm) or a
    real application such as the replicated store — so the very same
    endpoint classes run unmodified on either substrate.
    """

    def __init__(self, endpoint: ProcessEndpoint, stack: GCStack) -> None:
        self.endpoint = endpoint
        self.algorithm = endpoint.algorithm
        self.stack = stack

    def pump(self) -> None:
        """Drain GCS events into the endpoint and send its output.

        This is exactly the application loop of Fig. 2-2: each incoming
        event passes through the algorithm, and after every event (plus
        once per tick, for application-initiated sends) the endpoint is
        polled for an outgoing message to multicast.  An application
        holding a backlog (a loaded replica's writes) is then polled
        until it is drained; the idle application never holds one.
        """
        for event in self.stack.poll_events():
            if isinstance(event, ViewInstalled):
                self.endpoint.install_view(
                    View(members=event.members, seq=event.seq)
                )
            elif isinstance(event, Delivered):
                if isinstance(event.payload, Message):
                    self.endpoint.deliver(event.payload, event.sender)
            self._offer_outgoing()
        while self._offer_outgoing() and self.endpoint.outbox_size:
            pass

    def _offer_outgoing(self) -> bool:
        """Poll the endpoint once; True when it had something to send."""
        outgoing = self.endpoint.poll()
        if outgoing is None:
            return False
        self.stack.multicast(outgoing)
        return True

    def in_primary(self) -> bool:
        """Whether this process is currently inside the primary."""
        return self.algorithm.in_primary()


class PrimaryComponentService:
    """A whole system: GCS cluster + one algorithm instance per process.

    The closest thing in this repository to the thesis' original
    deployment (YKD over Transis): views are negotiated, multicasts are
    view-synchronous, and the primary-component algorithm rides on top
    untouched.
    """

    def __init__(
        self,
        algorithm: str,
        n_processes: int,
        endpoint_factory=ProcessEndpoint,
        observers=(),
        *,
        transport=None,
    ) -> None:
        self.cluster = GCSCluster(
            n_processes, observers=observers, transport=transport
        )
        first_view = initial_view(n_processes)
        self.processes: Dict[ProcessId, AlgorithmOnGCS] = {
            pid: AlgorithmOnGCS(
                endpoint_factory(create_algorithm(algorithm, pid, first_view)),
                self.cluster.stacks[pid],
            )
            for pid in range(n_processes)
        }
        self.endpoints: Dict[ProcessId, ProcessEndpoint] = {
            pid: proc.endpoint for pid, proc in self.processes.items()
        }
        # Staggered view installation is inherent to a negotiated GCS:
        # use the co-viewer-agreement form of the primary invariant per
        # tick; strict at-most-one-primary is asserted at stable points.
        self.checker = InvariantChecker(atomic_views=False)

    @property
    def algorithms(self) -> Dict[ProcessId, PrimaryComponentAlgorithm]:
        return {pid: proc.algorithm for pid, proc in self.processes.items()}

    def tick(self) -> bool:
        """One lock-step tick of GCS plus applications; True if traffic moved."""
        moved = self.cluster.tick(self._pump)
        self.checker.check_round(
            self.algorithms, self.cluster.topology.active_processes()
        )
        return moved

    def _pump(self) -> None:
        for pid in sorted(self.processes):
            if not self.cluster.topology.is_crashed(pid):
                self.processes[pid].pump()

    def run_until_stable(self, max_ticks: int = 300) -> int:
        """Tick until neither the GCS nor the algorithms move traffic
        (:meth:`GCSCluster.run_until_stable` over :meth:`tick`), then
        run the strict stable-point safety checks."""
        elapsed = self.cluster.run_until_stable(max_ticks, tick=self.tick)
        self.checker.check_stable_primary(
            self.algorithms,
            self.cluster.topology.components,
            self.cluster.topology.active_processes(),
        )
        return elapsed

    def set_topology(self, topology) -> None:
        """Reshape the network; membership renegotiates from here."""
        self.cluster.set_topology(topology)

    def close(self) -> None:
        """Release the cluster's transport (network backends only)."""
        self.cluster.close()

    def primary_members(self) -> Optional[Tuple[ProcessId, ...]]:
        """The member tuple of the live primary, or None."""
        claimants = [
            pid
            for pid in sorted(self.processes)
            if not self.cluster.topology.is_crashed(pid)
            and self.processes[pid].in_primary()
        ]
        return tuple(claimants) if claimants else None
