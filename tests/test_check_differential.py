"""Tests for differential plan execution and cross-algorithm checks."""

from dataclasses import fields

import pytest

from repro.check.differential import (
    OUTCOME_LIVELOCK,
    OUTCOME_OK,
    OUTCOME_VIOLATION,
    AlgorithmVerdict,
    _canonical_components,
    _check_family_chains,
    check_plan,
    run_plan,
)
from repro.check.fuzzer import FuzzConfig, generate_plan
from repro.check.plan import PlanStep, SchedulePlan, driver_steps
from repro.core.registry import algorithm_names
from repro.errors import InvariantViolation, SimulationError
from repro.net.changes import MergeChange, PartitionChange
from repro.obs.causal import CausalObserver
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng

EVEN_SPLIT = SchedulePlan(
    n_processes=4,
    steps=(
        PlanStep(
            gap=1,
            change=PartitionChange(
                component=frozenset({0, 1, 2, 3}), moved=frozenset({1, 2})
            ),
            late=frozenset({1}),
        ),
        PlanStep(
            gap=0,
            change=MergeChange(
                first=frozenset({0, 3}), second=frozenset({1, 2})
            ),
            late=frozenset(),
        ),
    ),
)


class TestRunPlan:
    def test_clean_algorithm_gets_ok_verdict(self):
        verdict = run_plan(EVEN_SPLIT, "ykd")
        assert verdict.ok
        assert verdict.available is True
        assert verdict.final_components == ((0, 1, 2, 3),)
        assert verdict.chain  # ykd reports its formed primaries

    def test_verdict_is_deterministic(self):
        assert run_plan(EVEN_SPLIT, "ykd") == run_plan(EVEN_SPLIT, "ykd")

    def test_broken_algorithm_gets_violation_verdict(self, broken_majority):
        verdict = run_plan(EVEN_SPLIT, "broken_majority")
        assert verdict.outcome == OUTCOME_VIOLATION
        assert "primary" in verdict.detail

    def test_all_registered_algorithms_clean_on_even_split(self):
        for name in algorithm_names():
            assert run_plan(EVEN_SPLIT, name).ok, name


class TestCheckPlan:
    def test_clean_plan_produces_clean_report(self):
        report = check_plan(EVEN_SPLIT)
        assert report.ok
        assert not report.divergences
        assert set(report.verdicts) == set(algorithm_names())

    def test_broken_algorithm_surfaces_as_failure(self, broken_majority):
        report = check_plan(EVEN_SPLIT)
        assert not report.ok
        failing = [v.algorithm for v in report.failures]
        assert failing == ["broken_majority"]
        assert "broken_majority" in report.describe()

    def test_explicit_algorithm_list_is_respected(self):
        report = check_plan(EVEN_SPLIT, ["ykd", "dfls"])
        assert set(report.verdicts) == {"ykd", "dfls"}


class TestFamilyChains:
    @staticmethod
    def _verdict(algorithm, chain):
        return AlgorithmVerdict(
            algorithm=algorithm, outcome="ok", chain=tuple(chain)
        )

    def test_agreeing_chains_produce_no_divergence(self):
        divergences = []
        _check_family_chains(
            {
                "ykd": self._verdict("ykd", [(1, (0, 1, 2)), (2, (0, 1))]),
                "ykd_unopt": self._verdict("ykd_unopt", [(1, (0, 1, 2))]),
            },
            divergences,
        )
        assert divergences == []

    def test_conflicting_order_key_is_a_divergence(self):
        divergences = []
        _check_family_chains(
            {
                "ykd": self._verdict("ykd", [(1, (0, 1, 2))]),
                "ykd_unopt": self._verdict("ykd_unopt", [(1, (1, 2, 3))]),
            },
            divergences,
        )
        assert len(divergences) == 1
        assert "primary #1" in divergences[0]

    def test_broken_merged_chain_is_a_divergence(self):
        divergences = []
        # Disjoint successive primaries: each run alone is a one-link
        # chain, but merged they cannot both descend from #1.
        _check_family_chains(
            {
                "ykd": self._verdict("ykd", [(1, (0, 1))]),
                "ykd_unopt": self._verdict("ykd_unopt", [(2, (2, 3))]),
            },
            divergences,
        )
        assert len(divergences) == 1
        assert "merged chain broken" in divergences[0]

    def test_different_families_are_not_compared(self):
        divergences = []
        _check_family_chains(
            {
                "ykd": self._verdict("ykd", [(1, (0, 1))]),
                "mr1p": self._verdict("mr1p", [(1, (2, 3))]),
            },
            divergences,
        )
        assert divergences == []

    def test_ykd_aggressive_is_not_in_the_strict_family(self):
        # The aggressive DELETE rule forms different primaries by
        # design (the abl_never_formed ablation); holding it to the
        # ykd family would turn that design into a false positive.
        divergences = []
        _check_family_chains(
            {
                "ykd": self._verdict("ykd", [(1, (0, 1, 2))]),
                "ykd_aggressive": self._verdict(
                    "ykd_aggressive", [(1, (0, 1))]
                ),
            },
            divergences,
        )
        assert divergences == []


@pytest.fixture
def causal_constructions(monkeypatch):
    """How many ``CausalObserver`` objects have been built so far."""
    built = []
    init = CausalObserver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CausalObserver, "__init__", counting_init)
    return built


def _eager_verdict(plan, algorithm, max_quiescence_rounds):
    """One run with both observers attached: blame built during the run."""
    causal = CausalObserver()
    driver = DriverLoop(
        algorithm=algorithm,
        n_processes=plan.n_processes,
        fault_rng=derive_rng(0, "check", "replay", algorithm),
        observers=[InvariantChecker(), causal],
        max_quiescence_rounds=max_quiescence_rounds,
        fault_model=plan.faults,
    )
    outcome, detail, kind = OUTCOME_OK, "", ""
    try:
        driver.execute_schedule(driver_steps(plan))
        driver.checker.check_stable_primary(
            driver.algorithms,
            driver.topology.components,
            driver.topology.active_processes(),
        )
    except InvariantViolation as violation:
        outcome, detail, kind = OUTCOME_VIOLATION, str(violation), violation.kind
    except SimulationError as error:
        outcome, detail = OUTCOME_LIVELOCK, str(error)
    totals = causal.finalize().blame_totals()
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
        blame=tuple(
            (category, count)
            for category, count in sorted(totals.items())
            if count
        ),
    )


class TestLazyBlame:
    def test_check_plan_builds_no_causal_observer(self, causal_constructions):
        report = check_plan(EVEN_SPLIT)
        assert report.ok
        assert causal_constructions == []

    def test_first_read_replays_once_and_is_cached(self, causal_constructions):
        verdict = run_plan(EVEN_SPLIT, "ykd")
        assert causal_constructions == []
        first = verdict.blame
        assert len(causal_constructions) == 1
        assert verdict.blame is first
        assert len(causal_constructions) == 1
        assert first and all(count > 0 for _, count in first)

    def test_given_blame_is_kept_and_defaults_to_empty(
        self, causal_constructions
    ):
        given = (("no_quorum_possible", 2),)
        assert AlgorithmVerdict("ykd", "ok", blame=given).blame == given
        assert AlgorithmVerdict("ykd", "ok").blame == ()
        assert causal_constructions == []

    def test_lazy_verdicts_equal_eager_ones_under_every_fault_class(self):
        config = FuzzConfig(
            master_seed=0,
            fault_classes=("loss", "crashrec", "byzantine", "churn"),
        )
        outcomes = set()
        for index in range(30):
            plan = generate_plan(config, index)
            for algorithm in algorithm_names():
                lazy = run_plan(
                    plan, algorithm, config.max_quiescence_rounds
                )
                eager = _eager_verdict(
                    plan, algorithm, config.max_quiescence_rounds
                )
                for f in fields(AlgorithmVerdict):
                    assert getattr(lazy, f.name) == getattr(eager, f.name), (
                        index, algorithm, f.name,
                    )
                assert type(lazy.blame) is tuple
                assert lazy == eager
                outcomes.add(lazy.outcome)
        # The sample reaches failing runs too, where the replay must
        # stop at the same violation the verdict's run stopped at.
        assert OUTCOME_VIOLATION in outcomes

    def test_explorer_counterexample_replays_blame_once(
        self, broken_majority, causal_constructions, monkeypatch
    ):
        from repro.check import differential
        from repro.sim.explore import explore

        def no_verdict_run(*args, **kwargs):
            raise AssertionError("a counterexample needs no verdict run")

        monkeypatch.setattr(differential, "run_plan", no_verdict_run)
        result = explore(
            "broken_majority", n_processes=4, depth=1, gap_options=(0,)
        )
        assert [example.blame for example in result.counterexamples] == [
            (("algorithm_idle", 1),)
        ]
        assert len(causal_constructions) == 1
