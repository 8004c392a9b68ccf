"""Differential execution: one fault plan, every algorithm, cross-checked.

The thesis' central experimental discipline — "the same random sequence
was used to test each of the algorithms" — becomes a correctness weapon
here: because a :class:`~repro.check.plan.SchedulePlan` pins every
nondeterministic choice, all registered algorithms can be driven
through *identical* faults and their behaviour compared.

Three layers of checking run per plan:

1. **Per-algorithm invariants** — the full
   :class:`~repro.sim.invariants.InvariantChecker` (at most one live
   primary, view agreement, subquorum chain) plus the strict
   stable-point check at quiescence, and livelock detection.
2. **Replay oracle** — topology evolution never depends on the
   algorithm, so every run must end on exactly the components the pure
   topology replay (:func:`~repro.check.plan.validate_plan`) predicts.
3. **Family agreement** — variants of one base protocol
   (:data:`repro.core.registry.FAMILIES`) must produce *consistent
   formed-primary chains*: no order key claimed with two different
   member sets across variants, and the merged chain must still be
   subquorum-linked.  An optimization that changes which primaries its
   family forms is a divergence finding, not a tuning knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.plan import SchedulePlan, driver_steps, validate_plan
from repro.core.quorum import is_subquorum
from repro.core.registry import algorithm_family, algorithm_names
from repro.errors import InvariantViolation, SimulationError
from repro.net.topology import Topology
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng

#: Verdict outcomes, in decreasing order of severity.
OUTCOME_VIOLATION = "violation"
OUTCOME_LIVELOCK = "livelock"
OUTCOME_OK = "ok"

Components = Tuple[Tuple[int, ...], ...]
Chain = Tuple[Tuple[int, Tuple[int, ...]], ...]
Blame = Tuple[Tuple[str, int], ...]


class _ReplayedBlame:
    """``AlgorithmVerdict.blame``: a stored tuple, or a replay on first read.

    The value given to the constructor is either the blame tuple itself
    or a zero-argument callable that computes it — :func:`run_plan`
    passes :func:`replay_blame` bound to its (plan, algorithm, rounds),
    since the fuzzer, the shrinker and the benchmark never read blame,
    and building causal spans during every run took about a third of
    the fuzzer's time (``docs/performance.md``).  The first read calls it and caches the
    tuple on the verdict, so every later read (``==`` and ``hash``
    included) sees the same value.
    """

    def __get__(self, verdict, owner=None) -> Blame:
        if verdict is None:
            return ()  # the dataclass field's default
        blame = verdict.__dict__["_blame"]
        if callable(blame):
            blame = verdict.__dict__["_blame"] = blame()
        return blame

    def __set__(self, verdict, blame) -> None:
        verdict.__dict__["_blame"] = blame


@dataclass(frozen=True)
class AlgorithmVerdict:
    """Outcome of replaying one plan under one algorithm."""

    algorithm: str
    outcome: str
    detail: str = ""
    available: Optional[bool] = None
    final_components: Components = ()
    chain: Chain = ()
    #: Structured kind of the violated invariant (``InvariantViolation
    #: .kind``), empty for non-violation outcomes.  The fault oracle
    #: (:mod:`repro.faults.oracle`) classifies findings by this label.
    violation_kind: str = ""
    #: Non-primary rounds by blame category (nonzero entries only,
    #: sorted), reconstructed by ``repro.obs.causal`` from a replay of
    #: the plan on first read (:func:`replay_blame`) — the span-level
    #: explanation a failing schedule carries into its repro file.
    blame: Blame = _ReplayedBlame()

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK

    def describe(self) -> str:
        """One line for failure reports."""
        if self.ok:
            return f"{self.algorithm}: ok (available={self.available})"
        line = f"{self.algorithm}: {self.outcome} — {self.detail}"
        if self.blame:
            breakdown = ", ".join(f"{k}={v}" for k, v in self.blame)
            line += f" [lost rounds: {breakdown}]"
        return line


@dataclass
class DifferentialReport:
    """Everything one plan revealed across all algorithms."""

    plan: SchedulePlan
    verdicts: Dict[str, AlgorithmVerdict] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[AlgorithmVerdict]:
        """Verdicts that are not clean, most severe first."""
        order = {OUTCOME_VIOLATION: 0, OUTCOME_LIVELOCK: 1}
        return sorted(
            (v for v in self.verdicts.values() if not v.ok),
            key=lambda v: (order.get(v.outcome, 9), v.algorithm),
        )

    @property
    def ok(self) -> bool:
        return not self.failures and not self.divergences

    def describe(self) -> str:
        """Multi-line summary of every finding on this plan."""
        lines = [self.plan.describe()]
        lines.extend(f"  {v.describe()}" for v in self.failures)
        lines.extend(f"  divergence: {d}" for d in self.divergences)
        if self.ok:
            lines.append("  all algorithms clean")
        return "\n".join(lines)


def _canonical_components(topology: Topology) -> Components:
    return tuple(
        sorted(tuple(sorted(component)) for component in topology.components)
    )


def _play(
    plan: SchedulePlan,
    algorithm: str,
    max_quiescence_rounds: int,
    *observers: object,
) -> Tuple[DriverLoop, str, str, str]:
    """Drive one plan under full invariant checking.

    Returns the driver with the outcome, its detail and the violated
    invariant's kind.  The driver's fault RNG is labelled but never
    consumed — every late-set is explicit — so the run is a pure
    function of its arguments.
    """
    driver = DriverLoop(
        algorithm=algorithm,
        n_processes=plan.n_processes,
        fault_rng=derive_rng(0, "check", "replay", algorithm),
        observers=[InvariantChecker(), *observers],
        max_quiescence_rounds=max_quiescence_rounds,
        fault_model=plan.faults,
    )
    try:
        driver.execute_schedule(driver_steps(plan))
        driver.checker.check_stable_primary(
            driver.algorithms,
            driver.topology.components,
            driver.topology.active_processes(),
        )
    except InvariantViolation as violation:
        return driver, OUTCOME_VIOLATION, str(violation), violation.kind
    except SimulationError as error:
        return driver, OUTCOME_LIVELOCK, str(error), ""
    return driver, OUTCOME_OK, "", ""


def replay_blame(
    plan: SchedulePlan,
    algorithm: str,
    max_quiescence_rounds: int = 400,
) -> Blame:
    """Non-primary rounds of one plan's run, by blame category.

    The run of :func:`run_plan`, replayed with a ``CausalObserver``
    beside the invariant checker, so it stops where that run stopped.
    """
    from repro.obs.causal import CausalObserver

    causal = CausalObserver()
    _play(plan, algorithm, max_quiescence_rounds, causal)
    totals = causal.finalize().blame_totals()
    return tuple(
        (category, count)
        for category, count in sorted(totals.items())
        if count
    )


def run_plan(
    plan: SchedulePlan,
    algorithm: str,
    max_quiescence_rounds: int = 400,
) -> AlgorithmVerdict:
    """Replay one plan under one algorithm with full invariant checking.

    The verdict is a pure function of (plan, algorithm); its ``blame``
    is replayed by :func:`replay_blame` the first time it is read.
    """
    driver, outcome, detail, kind = _play(
        plan, algorithm, max_quiescence_rounds
    )
    return AlgorithmVerdict(
        algorithm=algorithm,
        outcome=outcome,
        detail=detail,
        violation_kind=kind,
        available=driver.primary_exists() if outcome == OUTCOME_OK else None,
        final_components=_canonical_components(driver.topology),
        chain=tuple(
            (order_key, tuple(sorted(members)))
            for order_key, members in driver.checker.formed_chain
        ),
        blame=partial(replay_blame, plan, algorithm, max_quiescence_rounds),
    )


def _check_family_chains(
    verdicts: Dict[str, AlgorithmVerdict], divergences: List[str]
) -> None:
    """Merge the formed chains of each family and re-verify them.

    Only clean runs participate: a run that already violated has a
    failure verdict of its own, and its partial chain would produce
    noise findings here.
    """
    families: Dict[str, List[AlgorithmVerdict]] = {}
    for verdict in verdicts.values():
        if verdict.ok and verdict.chain:
            families.setdefault(
                algorithm_family(verdict.algorithm), []
            ).append(verdict)
    for family, members in sorted(families.items()):
        if len(members) < 2:
            continue
        merged: Dict[int, Tuple[int, ...]] = {}
        claimants: Dict[int, str] = {}
        for verdict in sorted(members, key=lambda v: v.algorithm):
            for order_key, chain_members in verdict.chain:
                known = merged.get(order_key)
                if known is None:
                    merged[order_key] = chain_members
                    claimants[order_key] = verdict.algorithm
                elif known != chain_members:
                    divergences.append(
                        f"family {family!r}: primary #{order_key} formed as "
                        f"{list(known)} by {claimants[order_key]} but as "
                        f"{list(chain_members)} by {verdict.algorithm}"
                    )
        ordered = sorted(merged)
        for previous, current in zip(ordered, ordered[1:]):
            if not is_subquorum(set(merged[current]), set(merged[previous])):
                divergences.append(
                    f"family {family!r}: merged chain broken — primary "
                    f"#{current} {list(merged[current])} lacks a subquorum "
                    f"of #{previous} {list(merged[previous])}"
                )


def check_plan(
    plan: SchedulePlan,
    algorithms: Optional[Sequence[str]] = None,
    max_quiescence_rounds: int = 400,
) -> DifferentialReport:
    """Run one plan under every algorithm and cross-check the results."""
    names = list(algorithms) if algorithms else algorithm_names()
    expected = _canonical_components(validate_plan(plan))
    report = DifferentialReport(plan=plan)
    for name in names:
        report.verdicts[name] = run_plan(
            plan, name, max_quiescence_rounds=max_quiescence_rounds
        )
    for name in names:
        verdict = report.verdicts[name]
        # A violating run aborts mid-plan, so only clean runs are held
        # to the oracle (the violation is already its own finding).
        if verdict.ok and verdict.final_components != expected:
            report.divergences.append(
                f"{name}: final components {list(verdict.final_components)} "
                f"differ from the topology oracle {list(expected)}"
            )
    # Family-chain agreement assumes all variants saw identical inputs.
    # Under an active fault model the settle phases of different
    # variants span different round indices, so their (round-keyed)
    # loss/delay draws legitimately diverge — the cross-variant chain
    # comparison would report that as a finding.  Per-algorithm
    # invariants and the topology oracle above still apply in full.
    if plan.faults is None or plan.faults.is_clean():
        _check_family_chains(report.verdicts, report.divergences)
    return report
