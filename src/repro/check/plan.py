"""Explicit, replayable fault schedules — the repro-file format.

A :class:`SchedulePlan` is a fault schedule with nothing left to
chance: the process count, and for every injected change its quiet-gap
prefix, the concrete :class:`~repro.net.changes.ConnectivityChange`,
and the exact late-set of the mid-round cut.  Replaying a plan through
:meth:`repro.sim.driver.DriverLoop.execute_schedule` is bit-for-bit
deterministic, whatever RNG the driver holds — which is what makes
plans shrinkable (``repro.check.shrink``), diffable across algorithms
(``repro.check.differential``) and committable as regression seeds
(``repro.check.corpus``).

Plans serialize to JSON with sorted keys, so the same plan always
produces the same bytes; the canonical JSON doubles as a dedup key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError, TopologyError
from repro.faults.model import (
    FaultModel,
    FaultModelError,
    faults_from_dict,
    faults_to_dict,
)
from repro.net.changes import (
    ConnectivityChange,
    CrashChange,
    MergeChange,
    PartitionChange,
    RecoverChange,
    affected_processes,
    apply_change,
)
from repro.net.topology import Topology
from repro.types import Members

#: Version stamp of the plan/repro JSON layout.
PLAN_FORMAT_VERSION = 1


class PlanError(ReproError):
    """A schedule plan is malformed or infeasible."""


@dataclass(frozen=True)
class PlanStep:
    """One scripted change: quiet gap, the change, the mid-round cut."""

    gap: int
    change: ConnectivityChange
    late: Members

    def describe(self) -> str:
        """Short label, e.g. ``gap=1 partition(moved={2,3}) late=[2]``."""
        return f"gap={self.gap} {self.change.describe()} late={sorted(self.late)}"


@dataclass(frozen=True)
class SchedulePlan:
    """A complete explicit fault schedule for one system.

    ``faults`` is the optional adversarial fault model the plan runs
    under (:class:`repro.faults.FaultModel`).  A default-constructed
    model is normalized to ``None`` so a clean plan has exactly one
    representation — and therefore exactly one canonical JSON, byte-
    identical to the pre-fault format.
    """

    n_processes: int
    steps: Tuple[PlanStep, ...]
    faults: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults.is_default():
            object.__setattr__(self, "faults", None)

    def cost(self) -> Tuple[int, int, int]:
        """Shrink ordering: fewer steps < fewer processes < less detail.

        Every transformation the minimizer accepts strictly decreases
        this triple, which is what guarantees termination and gives
        "smaller" a concrete meaning in the acceptance criteria.  Fault
        knobs count as detail, so relaxing a knob (lower loss, milder
        Byzantine behaviour, persistent instead of amnesiac) is a
        strict shrink too.
        """
        detail = sum(
            step.gap + len(step.late) + _change_weight(step.change)
            for step in self.steps
        )
        if self.faults is not None:
            detail += self.faults.cost_detail()
        return (len(self.steps), self.n_processes, detail)

    def describe(self) -> str:
        """One line per step, for failure reports and traces."""
        header = f"{self.n_processes} processes, {len(self.steps)} changes"
        body = "; ".join(step.describe() for step in self.steps)
        return f"{header}: {body}" if body else header


def _change_weight(change: ConnectivityChange) -> int:
    """Set-size contribution of a change to the shrink cost."""
    if isinstance(change, PartitionChange):
        return len(change.component) + len(change.moved)
    if isinstance(change, MergeChange):
        return len(change.first) + len(change.second)
    return 1  # crash / recover


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------


def validate_plan(plan: SchedulePlan) -> Topology:
    """Replay a plan's topology evolution; returns the final topology.

    Raises :class:`PlanError` when any step is infeasible — a partition
    of a non-component, a gap below zero, a late process outside the
    step's affected set.  Topology evolution is algorithm-independent,
    so the returned topology is also an oracle: every algorithm
    replaying the plan must end on exactly these components.
    """
    if plan.n_processes < 2:
        raise PlanError("a plan needs at least two processes")
    topology = Topology.fully_connected(plan.n_processes)
    for index, step in enumerate(plan.steps):
        if step.gap < 0:
            raise PlanError(f"step {index}: negative gap {step.gap}")
        try:
            affected = affected_processes(step.change, topology)
            next_topology = apply_change(topology, step.change)
        except TopologyError as error:
            raise PlanError(
                f"step {index} ({step.change.describe()}) infeasible: {error}"
            ) from error
        stray = frozenset(step.late) - frozenset(affected)
        if stray:
            raise PlanError(
                f"step {index}: late processes {sorted(stray)} are not "
                "affected by the change"
            )
        topology = next_topology
    if plan.faults is not None:
        try:
            plan.faults.validate_for(plan.n_processes)
        except FaultModelError as error:
            raise PlanError(f"fault model infeasible: {error}") from error
    return topology


# ----------------------------------------------------------------------
# JSON codec.
# ----------------------------------------------------------------------


def change_to_dict(change: ConnectivityChange) -> Dict[str, Any]:
    """JSON-compatible form of a connectivity change."""
    if isinstance(change, PartitionChange):
        return {
            "kind": "partition",
            "component": sorted(change.component),
            "moved": sorted(change.moved),
        }
    if isinstance(change, MergeChange):
        return {
            "kind": "merge",
            "first": sorted(change.first),
            "second": sorted(change.second),
        }
    if isinstance(change, CrashChange):
        return {"kind": "crash", "pid": change.pid}
    if isinstance(change, RecoverChange):
        return {"kind": "recover", "pid": change.pid}
    raise TypeError(f"unknown change type {type(change).__name__}")


def change_from_dict(data: Mapping[str, Any]) -> ConnectivityChange:
    """Inverse of :func:`change_to_dict`."""
    kind = data.get("kind")
    if kind == "partition":
        return PartitionChange(
            component=frozenset(int(p) for p in data["component"]),
            moved=frozenset(int(p) for p in data["moved"]),
        )
    if kind == "merge":
        return MergeChange(
            first=frozenset(int(p) for p in data["first"]),
            second=frozenset(int(p) for p in data["second"]),
        )
    if kind == "crash":
        return CrashChange(pid=int(data["pid"]))
    if kind == "recover":
        return RecoverChange(pid=int(data["pid"]))
    raise PlanError(f"unknown change kind {kind!r}")


def plan_to_dict(plan: SchedulePlan) -> Dict[str, Any]:
    """JSON-compatible form of a whole plan.

    The ``faults`` key is emitted only when a fault model is present
    (and within it, only non-default fields — see
    :func:`repro.faults.model.faults_to_dict`), so clean plans keep the
    exact pre-fault byte layout.
    """
    out: Dict[str, Any] = {
        "format": PLAN_FORMAT_VERSION,
        "n_processes": plan.n_processes,
        "steps": [
            {
                "gap": step.gap,
                "change": change_to_dict(step.change),
                "late": sorted(step.late),
            }
            for step in plan.steps
        ],
    }
    if plan.faults is not None:
        out["faults"] = faults_to_dict(plan.faults)
    return out


def plan_from_dict(data: Mapping[str, Any]) -> SchedulePlan:
    """Inverse of :func:`plan_to_dict`."""
    if data.get("format") != PLAN_FORMAT_VERSION:
        raise PlanError(f"unsupported plan format {data.get('format')!r}")
    steps: List[PlanStep] = []
    for raw in data["steps"]:
        steps.append(
            PlanStep(
                gap=int(raw["gap"]),
                change=change_from_dict(raw["change"]),
                late=frozenset(int(p) for p in raw["late"]),
            )
        )
    faults: Optional[FaultModel] = None
    if "faults" in data:
        try:
            faults = faults_from_dict(data["faults"])
        except FaultModelError as error:
            raise PlanError(f"bad fault model: {error}") from error
    return SchedulePlan(
        n_processes=int(data["n_processes"]), steps=tuple(steps), faults=faults
    )


def plan_to_json(plan: SchedulePlan) -> str:
    """Canonical JSON text of a plan (sorted keys — stable bytes)."""
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2) + "\n"


def plan_from_json(text: str) -> SchedulePlan:
    """Parse a plan from its JSON text."""
    return plan_from_dict(json.loads(text))


def driver_steps(
    plan: SchedulePlan,
) -> List[Tuple[int, ConnectivityChange, Members]]:
    """The plan as the (gap, change, late) triples the driver replays."""
    return [(step.gap, step.change, frozenset(step.late)) for step in plan.steps]


def plan_from_recorded(
    n_processes: int,
    steps: Any,
    faults: Optional[FaultModel] = None,
) -> SchedulePlan:
    """A plan from driver-recorded (gap, change, late) triples.

    This is the bridge from a random campaign to the repro workflow:
    ``DriverLoop.recorded_steps()`` — or the ``repro_steps`` attribute
    a campaign attaches to an :class:`~repro.errors.InvariantViolation`
    — goes in, a shrinkable, serializable plan comes out.  Runs under
    an adversarial fault model pass it as ``faults`` so the repro
    replays the same fault environment.
    """
    return SchedulePlan(
        n_processes=n_processes,
        steps=tuple(
            PlanStep(gap=gap, change=change, late=frozenset(late))
            for gap, change, late in steps
        ),
        faults=faults,
    )
