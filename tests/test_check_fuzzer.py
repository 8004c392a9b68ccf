"""Tests for the schedule fuzzer: determinism, coverage, findings."""

import pytest

from repro.check.fuzzer import FuzzConfig, fuzz, generate_plan
from repro.check.plan import plan_to_json, validate_plan

SMOKE = FuzzConfig(master_seed=7, schedules=40)


class TestGeneratePlan:
    def test_plans_are_deterministic_from_the_seed(self):
        for index in range(20):
            first = generate_plan(SMOKE, index)
            second = generate_plan(SMOKE, index)
            assert plan_to_json(first) == plan_to_json(second)

    def test_different_indices_give_different_plans(self):
        plans = {plan_to_json(generate_plan(SMOKE, i)) for i in range(20)}
        assert len(plans) > 15  # tiny plans may occasionally coincide

    def test_every_generated_plan_is_feasible(self):
        for index in range(50):
            validate_plan(generate_plan(SMOKE, index))

    def test_generation_respects_bounds(self):
        config = FuzzConfig(
            master_seed=1,
            min_processes=3,
            max_processes=4,
            max_changes=3,
            max_gap=1,
        )
        for index in range(30):
            plan = generate_plan(config, index)
            assert 3 <= plan.n_processes <= 4
            assert 1 <= len(plan.steps) <= 3
            assert all(step.gap <= 1 for step in plan.steps)

    def test_crash_weight_zero_generates_no_crashes(self):
        config = FuzzConfig(master_seed=5, crash_weight=0.0)
        for index in range(30):
            for step in generate_plan(config, index).steps:
                assert step.change.describe().split("(")[0] in (
                    "partition",
                    "merge",
                )


class TestFuzz:
    def test_all_real_algorithms_survive_a_smoke_campaign(self):
        result = fuzz(SMOKE)
        assert result.ok, result.describe()
        assert result.schedules_run == 40
        assert result.changes_injected > 0

    def test_campaign_is_deterministic(self):
        first = fuzz(SMOKE)
        second = fuzz(SMOKE)
        assert first.schedules_run == second.schedules_run
        assert first.changes_injected == second.changes_injected
        assert [f.index for f in first.failures] == [
            f.index for f in second.failures
        ]

    def test_broken_algorithm_is_caught(self, broken_majority):
        result = fuzz(
            FuzzConfig(
                master_seed=0, schedules=50, algorithms=("broken_majority",)
            )
        )
        assert not result.ok
        report = result.failures[0].report
        assert any(
            v.outcome == "violation" for v in report.verdicts.values()
        )

    def test_failure_indices_and_plans_are_deterministic(self, broken_majority):
        config = FuzzConfig(
            master_seed=0, schedules=50, algorithms=("broken_majority",)
        )
        first = fuzz(config)
        second = fuzz(config)
        assert [f.index for f in first.failures] == [
            f.index for f in second.failures
        ]
        assert [plan_to_json(f.plan) for f in first.failures] == [
            plan_to_json(f.plan) for f in second.failures
        ]

    def test_on_schedule_callback_sees_every_report(self):
        seen = []
        fuzz(
            FuzzConfig(master_seed=7, schedules=10, algorithms=("ykd",)),
            on_schedule=lambda index, report: seen.append(index),
        )
        assert seen == list(range(10))


class TestConfigValidation:
    def test_bad_process_bounds_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(min_processes=6, max_processes=3)

    def test_bad_max_changes_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(max_changes=0)

    def test_negative_schedules_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(schedules=-1)
