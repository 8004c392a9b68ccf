"""The parent-side controller of a multi-process GCS cluster.

:class:`ProcCluster` spawns one OS process per group member (spawn
context — every child is a fresh interpreter), performs the two-phase
port rendezvous (children bind port 0 and report; the controller
broadcasts the full map), then drives recorded partition schedules by
pushing per-node reachability filters and polling status until the
cluster goes *quiet*: views, primary claims and traffic counters all
unchanged across several consecutive polls with nothing pending.

:func:`run_differential` is the convergence battery of the transports
work: the same :class:`~repro.gcs.proc.schedule.RecordedSchedule` runs
on the deterministic in-memory substrate and on the real cluster, and
the per-stage stable views and primary claimant sets must agree.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.faults.model import LinkFaults
from repro.gcs.proc.node import node_main
from repro.gcs.proc.schedule import (
    RecordedSchedule,
    StageOutcome,
    simulate_reference,
)
from repro.types import ProcessId

#: Consecutive identical quiet status polls that count as stable, and
#: the seconds between polls.
SETTLE_POLLS = 3
POLL_INTERVAL = 0.05


class ProcCluster:
    """N real OS processes, each hosting one GCS stack on a UDP socket.

    Use as a context manager — the children are daemonic but holding
    sockets; :meth:`close` stops them deterministically::

        with ProcCluster(5, algorithm="ykd") as cluster:
            outcomes = cluster.run_schedule(STOCK_SCHEDULES["cascade"])
    """

    def __init__(
        self,
        n_processes: int,
        algorithm: str = "ykd",
        link: Optional[LinkFaults] = None,
        endpoint_kind: str = "bare",
        tick_interval: float = 0.005,
        start_timeout: float = 30.0,
        telemetry_dir: Optional[str] = None,
        flight_capacity: int = 2048,
    ) -> None:
        self.n_processes = n_processes
        self.algorithm = algorithm
        self.tick_interval = tick_interval
        self.telemetry_dir = (
            str(telemetry_dir) if telemetry_dir is not None else None
        )
        self._closed = False
        ctx = multiprocessing.get_context("spawn")
        self._conns: Dict[ProcessId, Any] = {}
        self._procs: Dict[ProcessId, Any] = {}
        for pid in range(n_processes):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=node_main,
                args=(
                    pid,
                    n_processes,
                    algorithm,
                    link,
                    child_conn,
                    endpoint_kind,
                    tick_interval,
                    self.telemetry_dir,
                    flight_capacity,
                ),
                daemon=True,
                name=f"gcs-node-{pid}",
            )
            proc.start()
            child_conn.close()
            self._conns[pid] = parent_conn
            self._procs[pid] = proc
        # Phase two of port allocation: collect, then broadcast.
        ports: Dict[ProcessId, int] = {}
        deadline = time.monotonic() + start_timeout
        for pid, conn in self._conns.items():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                self.close()
                raise SimulationError(
                    f"node {pid} did not report its port within "
                    f"{start_timeout}s"
                )
            try:
                message = conn.recv()
            except EOFError:
                self.close()
                raise SimulationError(
                    f"node {pid} died before reporting its port"
                ) from None
            self._require_ok(pid, message, "port")
            ports[message[1]] = message[2]
        for conn in self._conns.values():
            conn.send(("ports", ports))
        self.ports = ports

    # ------------------------------------------------------------------
    # Schedule driving.
    # ------------------------------------------------------------------

    def apply_stage(self, stage: Tuple[Tuple[int, ...], ...]) -> None:
        """Install one schedule stage as per-node reachability filters."""
        for component in stage:
            members = tuple(sorted(component))
            for pid in component:
                self._conns[pid].send(("reachable", members))

    def statuses(self) -> Dict[ProcessId, Dict[str, Any]]:
        """One status round-trip to every node."""
        for pid, conn in self._conns.items():
            try:
                conn.send(("status",))
            except (OSError, BrokenPipeError):
                raise SimulationError(f"node {pid} died") from None
        out: Dict[ProcessId, Dict[str, Any]] = {}
        for pid, conn in self._conns.items():
            if not conn.poll(10.0):
                raise SimulationError(f"node {pid} stopped answering status")
            try:
                message = conn.recv()
            except EOFError:
                raise SimulationError(f"node {pid} died") from None
            self._require_ok(pid, message, "status")
            out[pid] = message[2]
        return out

    def await_stable(self, timeout: float = 30.0) -> StageOutcome:
        """Poll until views, primaries and traffic counters all freeze.

        Stability needs ``SETTLE_POLLS`` *consecutive* identical
        snapshots with nothing pending in any transport — the realtime
        analogue of the tick-loop's quiet-tick rule.
        """
        deadline = time.monotonic() + timeout
        previous: Optional[Tuple] = None
        settled = 0
        while time.monotonic() < deadline:
            snapshot = self.statuses()
            key = tuple(
                (pid, status["view"], status["in_primary"], status["traffic"])
                for pid, status in sorted(snapshot.items())
            )
            quiet = all(
                status["pending"] == 0 for status in snapshot.values()
            )
            if quiet and key == previous:
                settled += 1
                if settled >= SETTLE_POLLS:
                    return StageOutcome.build(
                        views={
                            pid: tuple(status["view"])
                            for pid, status in snapshot.items()
                        },
                        primaries=[
                            pid
                            for pid, status in sorted(snapshot.items())
                            if status["in_primary"]
                        ],
                    )
            else:
                settled = 0
                previous = key
            time.sleep(POLL_INTERVAL)
        raise SimulationError(
            f"multi-process cluster did not stabilize within {timeout}s"
        )

    def run_schedule(
        self, schedule: RecordedSchedule, stage_timeout: float = 30.0
    ) -> List[StageOutcome]:
        """Apply every stage in order, harvesting each stable outcome."""
        if schedule.n_processes != self.n_processes:
            raise SimulationError(
                f"schedule {schedule.name!r} wants "
                f"{schedule.n_processes} processes, cluster has "
                f"{self.n_processes}"
            )
        outcomes: List[StageOutcome] = []
        for stage in schedule.stages:
            self.apply_stage(stage)
            outcomes.append(self.await_stable(timeout=stage_timeout))
        return outcomes

    # ------------------------------------------------------------------
    # Replicated-store operations (endpoint_kind="store" clusters).
    # ------------------------------------------------------------------

    def put(
        self,
        pid: ProcessId,
        key: str,
        value: Any,
        trace: Optional[str] = None,
    ) -> Tuple[bool, Any]:
        """Write through one replica → (accepted, stamp-or-reason)."""
        self._conns[pid].send(("put", key, value, trace))
        message = self._recv(pid)
        if message[0] == "put_ok":
            return True, message[2]
        if message[0] == "put_refused":
            return False, message[2]
        raise SimulationError(f"node {pid} answered {message[0]!r} to put")

    def get(
        self, pid: ProcessId, key: str, trace: Optional[str] = None
    ) -> Any:
        """Read a key from one replica (possibly stale outside primary)."""
        self._conns[pid].send(("get", key, trace))
        message = self._recv(pid)
        self._require_ok(pid, message, "get_ok")
        return message[2]

    def snapshot(self, pid: ProcessId) -> Dict[str, Any]:
        """One replica's full store contents and stamp."""
        self._conns[pid].send(("snapshot",))
        message = self._recv(pid)
        self._require_ok(pid, message, "snapshot")
        return message[2]

    # ------------------------------------------------------------------
    # Telemetry (the scrape plane's pipe pull).
    # ------------------------------------------------------------------

    def node_telemetry(self, pid: ProcessId) -> Dict[str, Any]:
        """One node's flight-recorder snapshot (events, drop counts)."""
        self._conns[pid].send(("telemetry",))
        message = self._recv(pid)
        self._require_ok(pid, message, "telemetry")
        return message[2]

    def collect_telemetry(self) -> Dict[ProcessId, Dict[str, Any]]:
        """Every live node's flight snapshot, keyed by pid."""
        return {
            pid: self.node_telemetry(pid) for pid in sorted(self._conns)
        }

    def crash_dumps(self) -> List[Path]:
        """Post-mortem flight dumps written so far (telemetry_dir only)."""
        if self.telemetry_dir is None:
            return []
        from repro.obs.telemetry.recorder import crash_dump_path

        return [
            path
            for pid in range(self.n_processes)
            for path in [crash_dump_path(self.telemetry_dir, pid)]
            if path.exists()
        ]

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every node; terminate stragglers after a grace period."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _recv(self, pid: ProcessId, timeout: float = 10.0):
        if not self._conns[pid].poll(timeout):
            raise SimulationError(f"node {pid} did not answer")
        try:
            return self._conns[pid].recv()
        except EOFError:
            raise SimulationError(f"node {pid} died") from None

    def _require_ok(self, pid: ProcessId, message, expected: str) -> None:
        if message[0] == "error":
            raise SimulationError(f"node {pid} failed:\n{message[2]}")
        if message[0] != expected:
            raise SimulationError(
                f"node {pid} answered {message[0]!r}, expected {expected!r}"
            )


@dataclass(frozen=True)
class DifferentialResult:
    """The verdict of one schedule × algorithm differential run."""

    schedule: str
    algorithm: str
    reference: Tuple[StageOutcome, ...]
    observed: Tuple[StageOutcome, ...]

    @property
    def matches(self) -> bool:
        return self.reference == self.observed

    def divergences(self) -> List[str]:
        """Human-readable per-stage mismatches (empty when matching)."""
        out: List[str] = []
        for index, (ref, obs) in enumerate(
            zip(self.reference, self.observed)
        ):
            if ref.views != obs.views:
                out.append(
                    f"stage {index}: views differ — reference "
                    f"{ref.views}, observed {obs.views}"
                )
            if ref.primaries != obs.primaries:
                out.append(
                    f"stage {index}: primaries differ — reference "
                    f"{ref.primaries}, observed {obs.primaries}"
                )
        return out


def run_differential(
    schedule: RecordedSchedule,
    algorithm: str = "ykd",
    link: Optional[LinkFaults] = None,
    stage_timeout: float = 30.0,
    tick_interval: float = 0.005,
) -> DifferentialResult:
    """The convergence battery for one (schedule, algorithm) pair.

    Runs the deterministic in-memory reference first, then the real
    multi-process cluster over UDP, and packages both outcome sequences
    for comparison.
    """
    reference = simulate_reference(schedule, algorithm)
    with ProcCluster(
        schedule.n_processes,
        algorithm=algorithm,
        link=link,
        tick_interval=tick_interval,
    ) as cluster:
        observed = cluster.run_schedule(schedule, stage_timeout=stage_timeout)
    return DifferentialResult(
        schedule=schedule.name,
        algorithm=algorithm,
        reference=tuple(reference),
        observed=tuple(observed),
    )
