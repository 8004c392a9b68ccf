"""Campaigns: the 1000-run cases of the thesis (§4.1).

"Each case (specified by the algorithm, the number of connectivity
changes and the rate) was simulated in 1000 runs. ... The same random
sequence was used to test each of the algorithms."

Two run protocols exist:

* **fresh start** — every run begins from the pristine initial state
  (fresh algorithm instances, fully connected network);
* **cascading** — each run starts in the algorithm *and network* state
  at which the previous run ended, so state (pending ambiguous
  sessions, stale knowledge, a partitioned topology) accumulates across
  thousands of connectivity changes.

Identical-fault-sequence guarantee: for fresh-start cases the fault RNG
is labelled by (seed, case, run index); for cascading cases by (seed,
case) with draws consumed in run order.  Neither label mentions the
algorithm, and topology evolution never depends on algorithm behaviour,
so every algorithm faces the same faults run for run.
"""

from __future__ import annotations


from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation
from repro.net.changes import UniformChangeGenerator
from repro.net.schedule import ChangeSchedule, GeometricSchedule
from repro.obs import CampaignMetrics, MetricsRegistry, Subscriber
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.sim.stats import (
    AmbiguousSessionCollector,
    AvailabilityCollector,
    MessageSizeCollector,
)

MODE_FRESH = "fresh"
MODE_CASCADING = "cascading"


@dataclass
class CaseConfig:
    """One case: algorithm × change count × rate × protocol."""

    algorithm: str
    n_processes: int = 64
    n_changes: int = 6
    mean_rounds_between_changes: float = 4.0
    runs: int = 1000
    mode: str = MODE_FRESH
    master_seed: int = 0
    max_quiescence_rounds: int = 400
    collect_ambiguous: bool = False
    collect_message_sizes: bool = False
    #: Attach a :class:`repro.obs.CampaignMetrics` subscriber and return
    #: its registry on :attr:`CaseResult.metrics`.
    collect_metrics: bool = False
    change_generator: Optional[UniformChangeGenerator] = None
    schedule: Optional[ChangeSchedule] = None
    cut_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in (MODE_FRESH, MODE_CASCADING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.runs < 1:
            raise ValueError("a case needs at least one run")

    def case_label(self) -> Tuple:
        """The RNG label shared by all algorithms under this case."""
        return (
            "case",
            self.mode,
            self.n_processes,
            self.n_changes,
            self.mean_rounds_between_changes,
        )

    def make_schedule(self) -> ChangeSchedule:
        """The configured schedule, defaulting to the thesis' geometric."""
        if self.schedule is not None:
            return self.schedule
        return GeometricSchedule(self.mean_rounds_between_changes)


@dataclass
class CaseResult:
    """Aggregate outcome of one case."""

    config: CaseConfig
    availability_percent: float
    outcomes: List[bool]
    rounds_total: int
    changes_total: int
    ambiguous_stable: Dict[int, int] = field(default_factory=dict)
    ambiguous_stable_in_primary: Dict[int, int] = field(default_factory=dict)
    ambiguous_in_progress: Dict[int, int] = field(default_factory=dict)
    ambiguous_max: int = 0
    message_max_bytes: float = 0.0
    message_mean_bytes: float = 0.0
    #: Metrics registry filled during the case, when
    #: :attr:`CaseConfig.collect_metrics` was set (else ``None``).
    metrics: Optional[MetricsRegistry] = None

    @property
    def runs(self) -> int:
        return len(self.outcomes)


def run_case(
    config: CaseConfig,
    observers: Sequence[Subscriber] = (),
    *,
    kernel: str = "scalar",
) -> CaseResult:
    """Execute every run of a case and aggregate the statistics.

    ``observers`` takes any :class:`repro.obs.Subscriber` instances;
    they see the case-level hooks (``on_case_start``/``on_case_end``)
    here and every driver-level event of every run.

    ``kernel`` selects the execution backend: ``"scalar"`` (default)
    runs the object-graph :class:`DriverLoop` per run; ``"batched"``
    routes the case through the bitmask kernel of
    :mod:`repro.sim.batch`, which reproduces the scalar per-run
    outcomes exactly but supports only part of the configuration
    surface — anything it cannot prove equivalent (observers attached,
    statistics collectors, cascading mode, exotic generators) falls
    back to the scalar engine silently.  Use
    :func:`repro.sim.batch.run_case_batched` directly to get a loud
    :class:`~repro.errors.UnsupportedBatchConfig` instead of the
    fallback.
    """
    if kernel not in ("scalar", "batched"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "batched" and not observers:
        from repro.errors import UnsupportedBatchConfig
        from repro.sim.batch import run_case_batched

        try:
            return run_case_batched(config)
        except UnsupportedBatchConfig:
            pass  # outside the batched surface: scalar fallback
    availability = AvailabilityCollector()
    subscribers: List[Subscriber] = [availability]
    ambiguous: Optional[AmbiguousSessionCollector] = None
    sizes: Optional[MessageSizeCollector] = None
    metrics: Optional[CampaignMetrics] = None
    if config.collect_ambiguous:
        ambiguous = AmbiguousSessionCollector(monitored_pid=0)
        subscribers.append(ambiguous)
    if config.collect_message_sizes:
        sizes = MessageSizeCollector()
        subscribers.append(sizes)
    if config.collect_metrics:
        metrics = CampaignMetrics()
        subscribers.append(metrics)
    subscribers.extend(observers)

    for subscriber in subscribers:
        subscriber.on_case_start(config)

    schedule = config.make_schedule()
    rounds_total = 0
    changes_total = 0

    if config.mode == MODE_FRESH:
        for run_index in range(config.runs):
            fault_rng = derive_rng(
                config.master_seed, *config.case_label(), run_index
            )
            driver = _build_driver(config, fault_rng, subscribers)
            gaps = schedule.draw_gaps(fault_rng, config.n_changes)
            _execute_with_repro(driver, gaps, config, run_index)
            rounds_total += driver.round_index
            changes_total += driver.changes_injected
    else:
        fault_rng = derive_rng(config.master_seed, *config.case_label())
        driver = _build_driver(config, fault_rng, subscribers)
        for run_index in range(config.runs):
            gaps = schedule.draw_gaps(fault_rng, config.n_changes)
            _execute_with_repro(driver, gaps, config, run_index)
        rounds_total = driver.round_index
        changes_total = driver.changes_injected

    result = CaseResult(
        config=config,
        availability_percent=availability.availability_percent,
        outcomes=list(availability.outcomes),
        rounds_total=rounds_total,
        changes_total=changes_total,
    )
    if ambiguous is not None:
        result.ambiguous_stable = dict(ambiguous.stable)
        result.ambiguous_stable_in_primary = dict(ambiguous.stable_in_primary)
        result.ambiguous_in_progress = dict(ambiguous.in_progress)
        result.ambiguous_max = ambiguous.max_observed
    if sizes is not None:
        result.message_max_bytes = sizes.max_bytes
        result.message_mean_bytes = sizes.mean_bytes
    if metrics is not None:
        result.metrics = metrics.registry
    for subscriber in subscribers:
        subscriber.on_case_end(result)
    return result


def _execute_with_repro(
    driver: DriverLoop, gaps: Sequence[int], config: CaseConfig, run_index: int
) -> None:
    """Run one measured run; a violation carries its repro out with it.

    The driver records the realized (gap, change, late) schedule of
    every run, so when an invariant breaks mid-campaign the exception
    is annotated with everything ``repro.check`` needs to replay,
    shrink and archive the failure — no re-running the campaign to
    catch the bug a second time.  For fresh-start runs the attached
    steps replay the whole failure from the pristine state; for
    cascading runs they are the failing tail only (the run started from
    accumulated state).
    """
    try:
        driver.execute_run(gaps)
    except InvariantViolation as violation:
        violation.repro_algorithm = config.algorithm
        violation.repro_run_index = run_index
        violation.repro_mode = config.mode
        violation.repro_n_processes = driver.n_processes
        violation.repro_steps = driver.recorded_steps()
        raise


def _build_driver(
    config: CaseConfig, fault_rng, observers: Sequence[Subscriber]
) -> DriverLoop:
    return DriverLoop(
        algorithm=config.algorithm,
        n_processes=config.n_processes,
        fault_rng=fault_rng,
        change_generator=config.change_generator,
        observers=[InvariantChecker(), *observers],
        max_quiescence_rounds=config.max_quiescence_rounds,
        cut_probability=config.cut_probability,
    )


def compare_algorithms(
    base_config: CaseConfig,
    algorithms: Sequence[str],
    kernel: str = "scalar",
) -> Dict[str, CaseResult]:
    """Run the same case for several algorithms over identical faults."""
    return {
        algorithm: run_case(
            replace(base_config, algorithm=algorithm), kernel=kernel
        )
        for algorithm in algorithms
    }
