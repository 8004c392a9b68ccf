"""Single-run convenience wrappers around the driver loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.net.changes import UniformChangeGenerator
from repro.net.schedule import ChangeSchedule, GeometricSchedule
from repro.obs import Subscriber
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.types import ProcessId


@dataclass
class RunConfig:
    """Parameters of one simulated run (one point-sample of a case)."""

    algorithm: str
    n_processes: int = 64
    n_changes: int = 6
    mean_rounds_between_changes: float = 4.0
    seed: int = 0
    check_invariants: bool = True
    max_quiescence_rounds: int = 400
    schedule: Optional[ChangeSchedule] = None
    change_generator: Optional[UniformChangeGenerator] = None

    def make_schedule(self) -> ChangeSchedule:
        """The configured schedule, defaulting to the thesis' geometric."""
        if self.schedule is not None:
            return self.schedule
        return GeometricSchedule(self.mean_rounds_between_changes)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run, recorded at quiescence."""

    available: bool
    rounds: int
    changes_injected: int
    n_components: int
    primary_members: Optional[Tuple[ProcessId, ...]]


def build_driver(
    config: RunConfig, observers: Sequence[Subscriber] = ()
) -> DriverLoop:
    """A fresh driver for the given configuration.

    The fault RNG's label path deliberately excludes the algorithm
    name: every algorithm tested under the same seed experiences the
    identical fault sequence (thesis §4.1).
    """
    fault_rng = derive_rng(
        config.seed,
        "faults",
        config.n_processes,
        config.n_changes,
        config.mean_rounds_between_changes,
    )
    return DriverLoop(
        algorithm=config.algorithm,
        n_processes=config.n_processes,
        fault_rng=fault_rng,
        change_generator=config.change_generator,
        observers=[InvariantChecker(enabled=config.check_invariants), *observers],
        max_quiescence_rounds=config.max_quiescence_rounds,
    )


def run_single(
    config: RunConfig, observers: Sequence[Subscriber] = ()
) -> RunResult:
    """Execute one fresh-start run and summarize its outcome."""
    driver = build_driver(config, observers)
    schedule = config.make_schedule()
    gaps = schedule.draw_gaps(driver.fault_rng, config.n_changes)
    driver.execute_run(gaps)
    return RunResult(
        available=driver.primary_exists(),
        rounds=driver.round_index,
        changes_injected=driver.changes_injected,
        n_components=len(driver.topology.components),
        primary_members=driver.primary_members(),
    )
