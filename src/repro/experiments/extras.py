"""Table experiments: §3.4 rounds, §4.1 scaling, §3.4/§5 message sizes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.registry import algorithm_class
from repro.net.changes import UniformChangeGenerator
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.sim.stats import BlockingCollector
from repro.experiments.spec import ExperimentSpec, Scale


# ----------------------------------------------------------------------
# tab_rounds: message rounds to form a primary (§3.4).
# ----------------------------------------------------------------------


@dataclass
class RoundsRow:
    algorithm: str
    declared_rounds: int
    measured_mean_rounds: float
    measured_quiescence_rounds: float
    declared_rounds_with_pending: Optional[int] = None


@dataclass
class RoundsTable:
    spec: ExperimentSpec
    scale: Scale
    rows: List[RoundsRow] = field(default_factory=list)


def run_rounds_table(
    spec: ExperimentSpec, scale: Scale, master_seed: int = 0
) -> RoundsTable:
    """Measure rounds-to-form under calm conditions per algorithm.

    The driver injects widely separated partition/merge changes (no
    interruptions) and the :class:`BlockingCollector` measures how many
    rounds pass between each view's installation and its formation as a
    primary; quiescence rounds show protocol tails such as DFLS's
    confirm round.
    """
    table = RoundsTable(spec=spec, scale=scale)
    cycles = max(scale.runs // 10, 10)
    for algorithm in spec.algorithms:
        collector = BlockingCollector()
        fault_rng = derive_rng(master_seed, "rounds", algorithm)
        driver = DriverLoop(
            algorithm=algorithm,
            n_processes=scale.n_processes,
            fault_rng=fault_rng,
            change_generator=UniformChangeGenerator(),
            observers=[InvariantChecker(), collector],
        )
        quiescence_rounds: List[int] = []
        for _ in range(cycles):
            change = driver.change_generator.propose(driver.topology, fault_rng)
            driver.run_round(change)
            quiescence_rounds.append(driver.run_until_quiescent())
        cls = algorithm_class(algorithm)
        measured = collector.mean_rounds_to_form
        table.rows.append(
            RoundsRow(
                algorithm=algorithm,
                declared_rounds=cls.rounds_to_form,
                measured_mean_rounds=measured,
                measured_quiescence_rounds=sum(quiescence_rounds)
                / len(quiescence_rounds),
                declared_rounds_with_pending=getattr(
                    cls, "rounds_to_form_pending", None
                ),
            )
        )
    return table


# ----------------------------------------------------------------------
# tab_scaling: availability vs process count (§4.1).
# ----------------------------------------------------------------------


@dataclass
class ScalingTable:
    spec: ExperimentSpec
    scale: Scale
    rate: float = 4.0
    #: algorithm -> [(n_processes, availability %)].
    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def spread(self, algorithm: str) -> float:
        """Max-min availability across process counts."""
        values = [percent for _, percent in self.series[algorithm]]
        return max(values) - min(values)


def run_scaling_table(
    spec: ExperimentSpec, scale: Scale, master_seed: int = 0
) -> ScalingTable:
    """§4.1: "The results obtained with 32 and 48 processes were almost
    identical to those obtained with 64."
    """
    table = ScalingTable(spec=spec, scale=scale)
    for algorithm in spec.algorithms:
        points: List[Tuple[int, float]] = []
        for n_processes in scale.scaling_process_counts:
            case = CaseConfig(
                algorithm=algorithm,
                n_processes=n_processes,
                n_changes=spec.n_changes,
                mean_rounds_between_changes=table.rate,
                runs=scale.runs,
                mode="fresh",
                master_seed=master_seed,
            )
            points.append((n_processes, run_case(case).availability_percent))
        table.series[algorithm] = points
    return table


# ----------------------------------------------------------------------
# tab_msgsize: piggyback sizes (§3.4, Chapter 5).
# ----------------------------------------------------------------------


@dataclass
class MessageSizeRow:
    algorithm: str
    max_bytes: float
    mean_bytes: float


@dataclass
class MessageSizeTable:
    spec: ExperimentSpec
    scale: Scale
    rows: List[MessageSizeRow] = field(default_factory=list)


def run_msgsize_table(
    spec: ExperimentSpec, scale: Scale, master_seed: int = 0
) -> MessageSizeTable:
    """§3.4: "The total amount of information which must be transmitted
    does not exceed two kilobytes during these 64-process trials."
    """
    table = MessageSizeTable(spec=spec, scale=scale)
    unstable_rate = 1.0  # sizes peak when interruptions pile sessions up
    for algorithm in spec.algorithms:
        case = CaseConfig(
            algorithm=algorithm,
            n_processes=scale.n_processes,
            n_changes=spec.n_changes,
            mean_rounds_between_changes=unstable_rate,
            runs=scale.runs,
            mode="fresh",
            master_seed=master_seed,
            collect_message_sizes=True,
        )
        result = run_case(case)
        table.rows.append(
            MessageSizeRow(
                algorithm=algorithm,
                max_bytes=result.message_max_bytes,
                mean_bytes=result.message_mean_bytes,
            )
        )
    return table


# ----------------------------------------------------------------------
# tab_blocking: the blocking period, measured directly (Ch. 1, §3.4).
# ----------------------------------------------------------------------


@dataclass
class BlockingRow:
    algorithm: str
    rate: float
    views_observed: int
    formation_rate_percent: float
    mean_rounds_to_form: float
    mean_blocked_lifetime: float
    terminally_blocked: int


@dataclass
class BlockingTable:
    spec: ExperimentSpec
    scale: Scale
    rows: List[BlockingRow] = field(default_factory=list)


def run_blocking_table(
    spec: ExperimentSpec, scale: Scale, master_seed: int = 0
) -> BlockingTable:
    """Measure how long views sit blocked, per algorithm and rate.

    "When interrupted, dynamic voting algorithms differ in the length
    of their blocking period" (thesis Ch. 1) — this experiment turns
    that qualitative statement into numbers: the fraction of installed
    views that ever become primaries, how long formation takes, and how
    long blocked views linger.
    """
    table = BlockingTable(spec=spec, scale=scale)
    for algorithm in spec.algorithms:
        for rate in (1.0, 4.0):
            collector = BlockingCollector()
            case = CaseConfig(
                algorithm=algorithm,
                n_processes=scale.n_processes,
                n_changes=spec.n_changes,
                mean_rounds_between_changes=rate,
                runs=scale.runs,
                mode="fresh",
                master_seed=master_seed,
            )
            run_case(case, observers=[collector])
            table.rows.append(
                BlockingRow(
                    algorithm=algorithm,
                    rate=rate,
                    views_observed=collector.views_observed,
                    formation_rate_percent=100.0 * collector.formation_rate,
                    mean_rounds_to_form=collector.mean_rounds_to_form,
                    mean_blocked_lifetime=collector.mean_blocked_lifetime,
                    terminally_blocked=collector.terminally_blocked,
                )
            )
    return table
