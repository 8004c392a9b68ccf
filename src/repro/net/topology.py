"""Network component topology (thesis §2.2).

The simulated "network" is nothing but a partition of the process set
into disjoint *components*: processes in the same component deliver
each other's broadcasts, processes in different components are mutually
unreachable.  A connectivity change either splits one component in two
(a network partition) or unifies two components (a merge).

The extension fault model (thesis §5.1) adds crashed processes: a
crashed process sits in a singleton component and does not participate
until it recovers.

``Topology`` is immutable; every change produces a new value.  This
keeps fault plans replayable and lets tests snapshot histories cheaply.
Construction validates the partition invariants, and every
transformation (:meth:`partition`, :meth:`merge`, :meth:`crash`,
:meth:`recover`) returns through that same validating constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from repro.errors import TopologyError
from repro.types import Members, ProcessId, sorted_members

Component = Members


def _normalize_components(components: Iterable[Iterable[ProcessId]]) -> Tuple[Component, ...]:
    normalized = tuple(
        sorted((frozenset(c) for c in components), key=sorted_members)
    )
    return normalized


@dataclass(frozen=True)
class Topology:
    """A partition of the process universe into connected components."""

    components: Tuple[Component, ...]
    crashed: FrozenSet[ProcessId] = frozenset()

    def __post_init__(self) -> None:
        components = _normalize_components(self.components)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "crashed", frozenset(self.crashed))
        seen: set = set()
        for component in components:
            if not component:
                raise TopologyError("components must be non-empty")
            overlap = seen & component
            if overlap:
                raise TopologyError(
                    f"processes {sorted(overlap)} appear in multiple components"
                )
            seen |= component
        for pid in self.crashed:
            if pid not in seen:
                raise TopologyError(f"crashed process {pid} is not in the topology")
            if self.component_of(pid) != frozenset({pid}):
                raise TopologyError(
                    f"crashed process {pid} must sit in a singleton component"
                )

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def fully_connected(cls, n_processes: int) -> "Topology":
        """All processes in one component — how every simulation begins."""
        if n_processes < 1:
            raise TopologyError("need at least one process")
        return cls(components=(frozenset(range(n_processes)),))

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def universe(self) -> Members:
        return frozenset().union(*self.components)

    def component_of(self, pid: ProcessId) -> Component:
        """The component containing ``pid``."""
        for component in self.components:
            if pid in component:
                return component
        raise TopologyError(f"process {pid} is not in the topology")

    def active_processes(self) -> Members:
        """Processes that participate in rounds (i.e. are not crashed)."""
        return self.universe - self.crashed

    def is_crashed(self, pid: ProcessId) -> bool:
        """Whether the process is currently down."""
        return pid in self.crashed

    def splittable_components(self) -> List[Component]:
        """Components a partition change can act on (≥ 2 live members)."""
        return [
            component
            for component in self.components
            if len(component) >= 2
        ]

    def mergeable_pairs_exist(self) -> bool:
        """A merge needs two components of non-crashed processes."""
        return len(self.live_components()) >= 2

    def live_components(self) -> List[Component]:
        """Components containing no crashed process."""
        return [c for c in self.components if not (c & self.crashed)]

    def crashable_processes(self) -> List[ProcessId]:
        """Processes a crash change can act on (alive right now)."""
        return sorted(self.universe - self.crashed)

    def recoverable_processes(self) -> List[ProcessId]:
        """Processes a recovery change can act on (currently down)."""
        return sorted(self.crashed)

    # ------------------------------------------------------------------
    # Transformations — each returns a new Topology.
    # ------------------------------------------------------------------

    def partition(self, component: Component, moved: Members) -> "Topology":
        """Split ``component`` by moving ``moved`` into a new component."""
        component = frozenset(component)
        moved = frozenset(moved)
        if component not in self.components:
            raise TopologyError(f"{sorted(component)} is not a current component")
        if not moved or moved == component:
            raise TopologyError("a partition must move a proper non-empty subset")
        if not moved <= component:
            raise TopologyError(
                f"moved processes {sorted(moved - component)} are not in the component"
            )
        remaining = component - moved
        new_components = [c for c in self.components if c != component]
        new_components.extend([remaining, moved])
        return Topology(tuple(new_components), self.crashed)

    def merge(self, first: Component, second: Component) -> "Topology":
        """Unify two distinct components into one."""
        first = frozenset(first)
        second = frozenset(second)
        if first == second:
            raise TopologyError("cannot merge a component with itself")
        for component in (first, second):
            if component not in self.components:
                raise TopologyError(f"{sorted(component)} is not a current component")
            if component & self.crashed:
                raise TopologyError(
                    f"component {sorted(component)} contains crashed processes"
                )
        new_components = [c for c in self.components if c not in (first, second)]
        new_components.append(first | second)
        return Topology(tuple(new_components), self.crashed)

    def crash(self, pid: ProcessId) -> "Topology":
        """Crash a process: isolate it and mark it non-participating."""
        if pid in self.crashed:
            raise TopologyError(f"process {pid} is already crashed")
        component = self.component_of(pid)
        topology = self
        if len(component) > 1:
            topology = topology.partition(component, frozenset({pid}))
        return Topology(topology.components, self.crashed | {pid})

    def recover(self, pid: ProcessId) -> "Topology":
        """Recover a crashed process; it stays isolated until a merge."""
        if pid not in self.crashed:
            raise TopologyError(f"process {pid} is not crashed")
        return Topology(self.components, self.crashed - {pid})

    def describe(self) -> str:
        """Compact rendering, e.g. ``{0,1} {2,3,4}``."""
        parts = []
        for component in self.components:
            inner = ",".join(str(p) for p in sorted_members(component))
            flag = "✗" if component & self.crashed else ""
            parts.append(f"{{{inner}}}{flag}")
        return " ".join(parts)
