"""Availability campaigns on the group communication substrate.

The simulation study measures availability on the driver loop, whose
interruption model (the mid-round cut) is a modelling choice.  The GCS
substrate interrupts *naturally*: a connectivity change simply drops
the in-flight datagrams that cross the new boundary, and membership
agreement itself takes rounds that changes can land inside.  Running
the same availability campaign here is therefore a strong
cross-validation: if the paper's orderings survive a substrate with a
completely different failure microstructure, they are properties of the
algorithms, not of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.gcs.adapter import PrimaryComponentService
from repro.net.changes import UniformChangeGenerator, apply_change
from repro.sim.rng import derive_rng


@dataclass
class GCSCaseConfig:
    """One availability case on the GCS substrate.

    ``mean_ticks_between_changes`` plays the role of the driver's mean
    rounds between changes, but in GCS ticks — a view renegotiation
    costs several ticks here, so the comparable stress points sit at
    larger numbers than the driver's rates.
    """

    algorithm: str
    n_processes: int = 6
    n_changes: int = 8
    mean_ticks_between_changes: float = 4.0
    runs: int = 50
    master_seed: int = 0
    max_stable_ticks: int = 600


@dataclass
class GCSCaseResult:
    config: GCSCaseConfig
    outcomes: List[bool] = field(default_factory=list)

    @property
    def availability_percent(self) -> float:
        if not self.outcomes:
            raise ValueError("no runs recorded")
        return 100.0 * sum(self.outcomes) / len(self.outcomes)


def run_gcs_case(config: GCSCaseConfig) -> GCSCaseResult:
    """Fresh-start availability over the GCS, one service per run.

    The fault RNG label excludes the algorithm name, so — like the
    driver campaigns — every algorithm faces identical fault sequences.
    """
    result = GCSCaseResult(config=config)
    generator = UniformChangeGenerator()
    probability = 1.0 / (1.0 + config.mean_ticks_between_changes)
    for run_index in range(config.runs):
        fault_rng = derive_rng(
            config.master_seed,
            "gcs",
            config.n_processes,
            config.n_changes,
            config.mean_ticks_between_changes,
            run_index,
        )
        service = PrimaryComponentService(config.algorithm, config.n_processes)
        injected = 0
        guard = 0
        while injected < config.n_changes:
            guard += 1
            if guard > 100_000:  # pragma: no cover - impossible backstop
                raise SimulationError("fault injection failed to progress")
            if fault_rng.random() < probability:
                change = generator.propose(service.cluster.topology, fault_rng)
                if change is not None:
                    service.set_topology(
                        apply_change(service.cluster.topology, change)
                    )
                    injected += 1
            service.tick()
        service.run_until_stable(max_ticks=config.max_stable_ticks)
        result.outcomes.append(service.primary_members() is not None)
    return result


def compare_on_gcs(
    algorithms: List[str],
    n_processes: int = 6,
    n_changes: int = 8,
    mean_ticks_between_changes: float = 4.0,
    runs: int = 50,
    master_seed: int = 0,
) -> Dict[str, GCSCaseResult]:
    """Run the same GCS case for several algorithms."""
    return {
        algorithm: run_gcs_case(
            GCSCaseConfig(
                algorithm=algorithm,
                n_processes=n_processes,
                n_changes=n_changes,
                mean_ticks_between_changes=mean_ticks_between_changes,
                runs=runs,
                master_seed=master_seed,
            )
        )
        for algorithm in algorithms
    }
