"""Recorded partition schedules and the simulated reference runner.

A :class:`RecordedSchedule` is a replayable script of connectivity
stages: each stage partitions the process universe into components, the
system runs until stable, and the stable outcome (who is in which view,
who claims the primary) is harvested before the next stage applies.
The same schedule drives both substrates — the deterministic in-memory
cluster (:func:`simulate_reference`) and the real multi-process cluster
(:meth:`~repro.gcs.proc.controller.ProcCluster.run_schedule`) — which
is what makes the differential convergence battery possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import SimulationError
from repro.sim.rng import derive_seed

Stage = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class RecordedSchedule:
    """A named script of connectivity stages over a fixed universe.

    Every stage must partition ``range(n_processes)`` exactly; the
    constructor refuses anything else, so a schedule that loads is a
    schedule that runs.
    """

    name: str
    n_processes: int
    stages: Tuple[Stage, ...]

    def __post_init__(self) -> None:
        if self.n_processes < 2:
            raise SimulationError("a schedule needs at least two processes")
        if not self.stages:
            raise SimulationError("a schedule needs at least one stage")
        universe = set(range(self.n_processes))
        normalized: List[Stage] = []
        for index, stage in enumerate(self.stages):
            seen: set = set()
            for component in stage:
                if not component:
                    raise SimulationError(
                        f"stage {index} of {self.name!r} has an empty component"
                    )
                if seen & set(component):
                    raise SimulationError(
                        f"stage {index} of {self.name!r} reuses processes"
                    )
                seen |= set(component)
            if seen != universe:
                raise SimulationError(
                    f"stage {index} of {self.name!r} does not partition "
                    f"the universe: covers {sorted(seen)}"
                )
            normalized.append(
                tuple(
                    tuple(sorted(component))
                    for component in sorted(stage, key=lambda c: sorted(c))
                )
            )
        object.__setattr__(self, "stages", tuple(normalized))


@dataclass(frozen=True)
class StageOutcome:
    """The stable state harvested at the end of one schedule stage.

    Only *convergence-relevant* facts appear here — the installed view
    membership per process and the set of primary claimants.  View-id
    epochs and sequence numbers are deliberately excluded: the real
    cluster may burn extra agreement epochs on retransmissions without
    that being a divergence.
    """

    views: Tuple[Tuple[int, Tuple[int, ...]], ...]
    primaries: Tuple[int, ...]

    @classmethod
    def build(
        cls, views: Dict[int, Tuple[int, ...]], primaries: Iterable[int]
    ) -> "StageOutcome":
        return cls(
            views=tuple(sorted(views.items())),
            primaries=tuple(sorted(primaries)),
        )


def _full(n: int) -> Stage:
    return (tuple(range(n)),)


#: The recorded schedules the differential battery pins (≥ 3, varied:
#: a clean split/restore, a cascading fragmentation, and alternating
#: cross-cutting splits that force quorum hand-offs).
STOCK_SCHEDULES: Dict[str, RecordedSchedule] = {
    schedule.name: schedule
    for schedule in (
        RecordedSchedule(
            name="split_restore",
            n_processes=5,
            stages=(
                _full(5),
                ((0, 1), (2, 3, 4)),
                _full(5),
            ),
        ),
        RecordedSchedule(
            name="cascade",
            n_processes=5,
            stages=(
                _full(5),
                ((0, 1, 2, 3), (4,)),
                ((0, 1), (2, 3), (4,)),
                _full(5),
            ),
        ),
        RecordedSchedule(
            name="flip_flop",
            n_processes=4,
            stages=(
                _full(4),
                ((0, 1), (2, 3)),
                ((0, 2), (1, 3)),
                _full(4),
            ),
        ),
    )
}


#: Universe and stage count of every generated schedule.
GENERATED_PROCESSES = 5
GENERATED_STAGES = 4


def generated_schedule(seed: int) -> RecordedSchedule:
    """A pure-hash random schedule: same seed, same stages, forever.

    Stage 0 is always fully connected (the system must first form its
    initial primary) and the final stage always restores full
    connectivity (so every run ends comparable).  Interior stages
    partition the universe by a deterministic hash of the seed.
    """
    n_processes = GENERATED_PROCESSES
    stages: List[Stage] = [_full(n_processes)]
    for stage_index in range(1, GENERATED_STAGES - 1):
        n_components = 2 + derive_seed(
            seed, "gcs.proc.schedule", stage_index, "count"
        ) % min(3, n_processes - 1)
        buckets: List[List[int]] = [[] for _ in range(n_components)]
        for pid in range(n_processes):
            bucket = derive_seed(
                seed, "gcs.proc.schedule", stage_index, "assign", pid
            ) % n_components
            buckets[bucket].append(pid)
        stage = tuple(
            tuple(bucket) for bucket in buckets if bucket
        )
        stages.append(stage if len(stage) > 1 else _full(n_processes))
    stages.append(_full(n_processes))
    return RecordedSchedule(
        name=f"generated-{seed}",
        n_processes=n_processes,
        stages=tuple(stages),
    )


def resolve_schedule(spec: str) -> RecordedSchedule:
    """The schedule a command line names: stock, or ``generated:<seed>``."""
    if spec in STOCK_SCHEDULES:
        return STOCK_SCHEDULES[spec]
    kind, _, seed = spec.partition(":")
    if kind == "generated" and seed.isdigit():
        return generated_schedule(int(seed))
    raise SimulationError(
        f"unknown schedule {spec!r}: pick one of "
        f"{', '.join(sorted(STOCK_SCHEDULES))}, generated:<seed>"
    )


def simulate_reference(
    schedule: RecordedSchedule,
    algorithm: str,
    max_ticks: int = 500,
) -> List[StageOutcome]:
    """Run the schedule on the deterministic in-memory substrate.

    This is the oracle side of the differential battery: a
    :class:`~repro.service.cluster.StoreCluster`, the replicas and GCS
    of a proc node, ticked in lock step over the memory transport.
    """
    # repro.service imports this package, so it loads here.
    from repro.service.cluster import StoreCluster

    cluster = StoreCluster(schedule.n_processes, algorithm)
    outcomes: List[StageOutcome] = []
    for stage in schedule.stages:
        cluster.apply_stage(stage)
        cluster.warm_up(max_ticks)
        outcomes.append(
            StageOutcome.build(cluster.views(), cluster.primary_claimants())
        )
    return outcomes
