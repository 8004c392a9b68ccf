"""The schedule fuzzer: random fault plans, differentially checked.

Between the thesis' 1.3-million-random-changes endurance trial and the
exhaustive-but-tiny bounded model checker (``repro.sim.explore``) sits
this workhorse: generate random explicit fault plans — partitions,
merges, crashes, recoveries, mid-round cuts, gap choices — and run
*every* registered algorithm against each plan under the full
differential harness (``repro.check.differential``).

Every random draw comes from ``repro.sim.rng`` labelled streams keyed
by ``(master_seed, "check", "fuzz", index)``, so one integer reproduces
the entire campaign: the same seed yields identical plans, identical
verdicts and byte-identical repro files.  Plan generation never
consults an algorithm, so all algorithms face the same faults —
schedule ``index`` under seed ``s`` is one immutable test case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.check.differential import (
    OUTCOME_LIVELOCK,
    OUTCOME_VIOLATION,
    DifferentialReport,
    check_plan,
)
from repro.check.plan import PlanStep, SchedulePlan
from repro.core.registry import algorithm_names
from repro.faults.churn import churn_steps
from repro.faults.model import (
    AMNESIAC,
    BYZANTINE_BEHAVIORS,
    FAULT_CLASSES,
    PERSISTENT,
    ByzantineFaults,
    ChurnFaults,
    CrashRecoveryFaults,
    FaultModel,
    LinkFaults,
)
from repro.faults.oracle import livelock_expected, violation_expected
from repro.net.changes import (
    CrashRecoveryChangeGenerator,
    UniformChangeGenerator,
    affected_processes,
    apply_change,
)
from repro.net.topology import Topology
from repro.sim.rng import derive_rng


#: Fewest changes in a drawn clean plan.
MIN_CHANGES = 1
#: Per-process probability of landing in a step's late-set.
CUT_BIAS = 0.5
#: Ceilings of the drawn fault-model knobs.
MAX_LOSS_PERMILLE = 300
MAX_DELAY_ROUNDS = 2
MAX_CHURN_CELLS = 3
MAX_CHURN_EPOCHS = 4


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing campaign (all defaults CI-sized)."""

    master_seed: int = 0
    schedules: int = 200
    #: Algorithms to cross-check; None means every registered one.
    algorithms: Optional[Tuple[str, ...]] = None
    min_processes: int = 3
    max_processes: int = 6
    max_changes: int = 6
    max_gap: int = 3
    #: Probability that a change is drawn from the crash/recovery
    #: family (0 keeps the thesis' pure partition/merge model).
    crash_weight: float = 0.2
    max_quiescence_rounds: int = 400
    #: Adversarial fault classes to draw per schedule (subset of
    #: ``repro.faults.FAULT_CLASSES``).  Empty keeps the clean-fault
    #: campaign — and, crucially, the exact historical draw sequence,
    #: since fault draws are appended strictly after the clean ones.
    fault_classes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.schedules < 0:
            raise ValueError("schedules must be >= 0")
        if not 2 <= self.min_processes <= self.max_processes:
            raise ValueError("need 2 <= min_processes <= max_processes")
        if self.max_changes < MIN_CHANGES:
            raise ValueError(f"max_changes must be >= {MIN_CHANGES}")
        if self.max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        if not 0.0 <= self.crash_weight <= 1.0:  # nan fails it too
            raise ValueError("crash_weight must be a number in [0, 1]")
        object.__setattr__(
            self, "fault_classes", tuple(self.fault_classes)
        )
        for fault_class in self.fault_classes:
            if fault_class not in FAULT_CLASSES:
                raise ValueError(
                    f"unknown fault class {fault_class!r}; "
                    f"known: {FAULT_CLASSES}"
                )


@dataclass(frozen=True)
class FuzzFailure:
    """One plan that produced a finding.

    ``expected`` marks findings the per-class fault oracle
    (:mod:`repro.faults.oracle`) sanctions — e.g. an equivocation
    breaking the primary chain.  Expected findings are still findings
    (they prove the oracle detects the breakage, and they seed the
    corpus), but they are not bugs in the algorithms under test.
    """

    index: int
    plan: SchedulePlan
    report: DifferentialReport
    expected: bool = False

    def describe(self) -> str:
        """Human-readable failure summary, with the full report."""
        tag = " (expected under fault model)" if self.expected else ""
        return f"schedule #{self.index}{tag}:\n{self.report.describe()}"


def classify_report(report: DifferentialReport) -> bool:
    """Whether *every* finding of a report is oracle-sanctioned.

    Divergences are never expected (the topology oracle and family
    agreement hold under any fault model they are checked against);
    violations are judged by their structured kind, livelocks by
    :func:`repro.faults.oracle.livelock_expected`.  A clean report
    classifies as expected vacuously but is never wrapped in a
    :class:`FuzzFailure` to begin with.
    """
    model = report.plan.faults
    if model is None:
        return False
    if report.divergences:
        return False
    for verdict in report.failures:
        if verdict.outcome == OUTCOME_VIOLATION:
            if not violation_expected(model, verdict.violation_kind):
                return False
        elif verdict.outcome == OUTCOME_LIVELOCK:
            if not livelock_expected(model):
                return False
        else:  # pragma: no cover - no other failure outcomes exist
            return False
    return True


@dataclass
class FuzzResult:
    """Outcome of a whole fuzzing campaign."""

    config: FuzzConfig
    algorithms: Tuple[str, ...]
    schedules_run: int = 0
    changes_injected: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def unexpected_failures(self) -> List[FuzzFailure]:
        """Findings the fault oracle does *not* sanction — real bugs."""
        return [failure for failure in self.failures if not failure.expected]

    @property
    def expected_failures(self) -> List[FuzzFailure]:
        """Oracle-sanctioned breakage (detected, attributed, non-bug)."""
        return [failure for failure in self.failures if failure.expected]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures

    def describe(self) -> str:
        """Human-readable campaign summary."""
        expected = len(self.expected_failures)
        breakdown = f"{len(self.unexpected_failures)} failing"
        if expected:
            breakdown += f", {expected} expected under the fault oracle"
        lines = [
            f"fuzzed {self.schedules_run} schedules "
            f"({self.changes_injected} changes) under seed "
            f"{self.config.master_seed} across "
            f"{len(self.algorithms)} algorithms: {breakdown}"
        ]
        lines.extend(failure.describe() for failure in self.failures)
        return "\n".join(lines)


def generate_plan(config: FuzzConfig, index: int) -> SchedulePlan:
    """Deterministically generate fuzz schedule ``index``.

    The labelled stream covers every draw — system size, change count,
    each change, each cut, each gap, and (when fault classes are
    enabled) every fault-model knob — and never mentions an algorithm,
    so the plan is the same for every algorithm under test.  Changes
    are drawn against the evolving topology, so every generated plan is
    feasible by construction.

    Fault draws happen strictly *after* the clean-schedule draws, so a
    config without fault classes consumes exactly the historical
    stream — schedule ``index`` under seed ``s`` is byte-identical to
    what the pre-fault fuzzer generated.
    """
    rng = derive_rng(config.master_seed, "check", "fuzz", index)
    n_processes = rng.randint(config.min_processes, config.max_processes)
    n_changes = rng.randint(MIN_CHANGES, config.max_changes)
    generator = (
        CrashRecoveryChangeGenerator(crash_weight=config.crash_weight)
        if config.crash_weight > 0
        else UniformChangeGenerator()
    )
    topology = Topology.fully_connected(n_processes)
    steps: List[PlanStep] = []
    for _ in range(n_changes):
        change = generator.propose(topology, rng)
        if change is None:  # pragma: no cover - needs a frozen topology
            break
        affected = affected_processes(change, topology)
        late = frozenset(
            pid for pid in sorted(affected) if rng.random() < CUT_BIAS
        )
        gap = rng.randint(0, config.max_gap)
        steps.append(PlanStep(gap=gap, change=change, late=late))
        topology = apply_change(topology, change)
    if not config.fault_classes:
        return SchedulePlan(n_processes=n_processes, steps=tuple(steps))
    faults = _draw_fault_model(config, rng, n_processes)
    if faults.churn.is_active():
        steps = _churn_plan_steps(config, rng, faults.churn, n_processes)
    return SchedulePlan(
        n_processes=n_processes, steps=tuple(steps), faults=faults
    )


def _draw_fault_model(config: FuzzConfig, rng, n_processes: int) -> FaultModel:
    """Draw one fault model from the enabled classes' knob ranges."""
    classes = config.fault_classes
    link = LinkFaults()
    crashrec = CrashRecoveryFaults()
    byzantine = ByzantineFaults()
    churn = ChurnFaults()
    if "loss" in classes:
        delay_max = rng.randint(0, MAX_DELAY_ROUNDS)
        link = LinkFaults(
            loss_permille=rng.randint(1, MAX_LOSS_PERMILLE),
            delay_permille=(
                rng.randint(1, MAX_LOSS_PERMILLE) if delay_max else 0
            ),
            delay_max=delay_max,
            reorder=bool(delay_max) and rng.random() < 0.5,
            seed=rng.randint(0, 2 ** 32 - 1),
        )
    if "crashrec" in classes:
        crashrec = CrashRecoveryFaults(
            persistence=AMNESIAC if rng.random() < 0.5 else PERSISTENT
        )
    if "byzantine" in classes:
        byzantine = ByzantineFaults(
            members=(rng.randrange(n_processes),),
            behavior=rng.choice(BYZANTINE_BEHAVIORS),
            activity_permille=rng.choice((250, 500, 1000)),
            seed=rng.randint(0, 2 ** 32 - 1),
        )
    if "churn" in classes:
        churn = ChurnFaults(
            cells=rng.randint(2, MAX_CHURN_CELLS),
            epochs=rng.randint(1, MAX_CHURN_EPOCHS),
            seed=rng.randint(0, 2 ** 32 - 1),
        )
    return FaultModel(
        link=link, crashrec=crashrec, byzantine=byzantine, churn=churn
    )


def _churn_plan_steps(
    config: FuzzConfig, rng, churn: ChurnFaults, n_processes: int
) -> List[PlanStep]:
    """Trace-derived steps with explicitly drawn late-sets.

    The churn class replaces the generator-drawn changes with the
    mobility trace's compiled partition/merge sequence; the mid-round
    cuts are still drawn here so the plan stays fully explicit.
    """
    dwell = rng.randint(0, config.max_gap)
    steps: List[PlanStep] = []
    topology = Topology.fully_connected(n_processes)
    for gap, change, _ in churn_steps(churn, n_processes, dwell=dwell):
        affected = affected_processes(change, topology)
        late = frozenset(
            pid for pid in sorted(affected) if rng.random() < CUT_BIAS
        )
        steps.append(PlanStep(gap=gap, change=change, late=late))
        topology = apply_change(topology, change)
    return steps


def fuzz(
    config: FuzzConfig,
    on_schedule: Optional[Callable[[int, DifferentialReport], None]] = None,
) -> FuzzResult:
    """Run one fuzzing campaign; deterministic from the master seed.

    ``on_schedule`` (if given) observes every (index, report) pair —
    the ``check_fuzz`` benchmark workload uses it to time each
    schedule; it must not mutate the report.
    """
    algorithms = tuple(config.algorithms or algorithm_names())
    result = FuzzResult(config=config, algorithms=algorithms)
    for index in range(config.schedules):
        plan = generate_plan(config, index)
        report = check_plan(
            plan,
            algorithms,
            max_quiescence_rounds=config.max_quiescence_rounds,
        )
        result.schedules_run += 1
        result.changes_injected += len(plan.steps)
        if not report.ok:
            result.failures.append(
                FuzzFailure(
                    index=index,
                    plan=plan,
                    report=report,
                    expected=classify_report(report),
                )
            )
        if on_schedule is not None:
            on_schedule(index, report)
    return result
