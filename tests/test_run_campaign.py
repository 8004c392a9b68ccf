"""Tests for single runs and campaign orchestration (§4.1 protocols)."""

from dataclasses import replace

import pytest

from repro.sim.campaign import (
    MODE_CASCADING,
    MODE_FRESH,
    CaseConfig,
    compare_algorithms,
    run_case,
)

from tests.conftest import outcome, run_once


class TestRunSingle:
    """One run through ``DriverLoop.execute_run`` on a drawn schedule."""

    def test_injects_requested_changes_and_quiesces(self):
        driver = run_once("ykd", 6, n_changes=5, rate=2.0, seed=1)
        assert driver.changes_injected == 5
        assert driver.round_index > 5
        assert len(driver.topology.components) >= 1

    def test_primary_membership_consistent_with_availability(self):
        driver = run_once("ykd", 6, n_changes=4, rate=3.0, seed=7)
        assert driver.primary_exists() == (
            driver.primary_members() is not None
        )

    def test_reproducible(self):
        runs = [
            run_once("dfls", 6, n_changes=6, rate=1.0, seed=21)
            for _ in range(2)
        ]
        assert outcome(runs[0]) == outcome(runs[1])

    def test_seed_changes_outcomes(self):
        rounds = {
            run_once("ykd", 8, n_changes=8, rate=1.0, seed=seed).round_index
            for seed in range(6)
        }
        assert len(rounds) > 1


class TestCaseConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            CaseConfig(algorithm="ykd", mode="sideways")

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            CaseConfig(algorithm="ykd", runs=0)

    def test_case_label_excludes_algorithm(self):
        a = CaseConfig(algorithm="ykd", n_changes=4).case_label()
        b = CaseConfig(algorithm="mr1p", n_changes=4).case_label()
        assert a == b


class TestRunCaseKnobs:
    BASE = CaseConfig(
        algorithm="ykd", n_processes=5, n_changes=3,
        mean_rounds_between_changes=1.0, runs=5, master_seed=9,
    )

    def test_unknown_kernel_refused(self):
        with pytest.raises(ValueError, match="kernel"):
            run_case(self.BASE, kernel="quantum")


class TestFreshCampaigns:
    BASE = CaseConfig(
        algorithm="ykd", n_processes=6, n_changes=6,
        mean_rounds_between_changes=1.0, runs=30, master_seed=4,
    )

    def test_runs_are_counted(self):
        result = run_case(self.BASE)
        assert result.runs == 30
        assert len(result.outcomes) == 30
        assert result.changes_total == 30 * 6

    def test_identical_faults_across_algorithms(self):
        """§4.1: "The same random sequence was used to test each of the
        algorithms" — simple majority's outcome depends only on the
        final topology, so equal-seed campaigns expose the sequences."""
        first = run_case(replace(self.BASE, algorithm="simple_majority"))
        second = run_case(replace(self.BASE, algorithm="simple_majority"))
        assert first.outcomes == second.outcomes

    def test_compare_algorithms_runs_each(self):
        results = compare_algorithms(self.BASE, ["ykd", "simple_majority"])
        assert set(results) == {"ykd", "simple_majority"}
        assert all(r.runs == 30 for r in results.values())


class TestCascadingCampaigns:
    BASE = CaseConfig(
        algorithm="ykd", n_processes=6, n_changes=6,
        mean_rounds_between_changes=1.0, runs=20, master_seed=4,
        mode=MODE_CASCADING,
    )

    def test_state_carries_across_runs(self):
        """Cascading campaigns run thousands of changes through one
        driver; the total rounds must be contiguous, not reset."""
        result = run_case(self.BASE)
        assert result.runs == 20
        assert result.changes_total == 20 * 6
        assert result.rounds_total > result.changes_total

    def test_cascading_differs_from_fresh(self):
        fresh = run_case(replace(self.BASE, mode=MODE_FRESH))
        cascading = run_case(self.BASE)
        assert fresh.outcomes != cascading.outcomes
