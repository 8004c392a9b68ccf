"""Tests for the statistics collectors."""

import pytest

from repro.sim.campaign import CaseConfig, run_case
from repro.sim.stats import (
    AmbiguousSessionCollector,
    AvailabilityCollector,
    MessageSizeCollector,
)

from tests.conftest import make_driver, split


class TestAvailabilityCollector:
    def test_records_run_outcomes(self):
        collector = AvailabilityCollector()
        driver = make_driver("ykd", 5, observers=[collector])
        driver.execute_run(gaps=[2, 2])
        assert collector.runs == 1
        assert collector.outcomes[0] == driver.primary_exists()

    def test_percentage_requires_runs(self):
        with pytest.raises(ValueError):
            AvailabilityCollector().availability_percent

    def test_percentage_arithmetic(self):
        collector = AvailabilityCollector()
        collector.outcomes = [True, True, False, True]
        assert collector.availability_percent == 75.0
        assert collector.available_runs == 3


class TestAmbiguousSessionCollector:
    def test_samples_at_changes_and_run_end(self):
        collector = AmbiguousSessionCollector(monitored_pid=0)
        driver = make_driver("ykd", 5, observers=[collector])
        driver.execute_run(gaps=[1, 1, 1])
        assert sum(collector.in_progress.values()) == 3
        assert sum(collector.stable.values()) == 1

    def test_case_plumbing(self):
        case = CaseConfig(
            algorithm="ykd", n_processes=6, n_changes=6,
            mean_rounds_between_changes=1.0, runs=20, collect_ambiguous=True,
        )
        result = run_case(case)
        assert sum(result.ambiguous_stable.values()) == 20
        assert sum(result.ambiguous_in_progress.values()) == 20 * 6
        assert result.ambiguous_max >= 0


class TestMessageSizeCollector:
    def test_measures_broadcast_sizes(self):
        collector = MessageSizeCollector()
        driver = make_driver("ykd", 6, observers=[collector])
        split(driver, {4, 5})
        driver.run_until_quiescent()
        assert collector.broadcasts > 0
        assert collector.max_bytes > 0
        assert collector.mean_bytes <= collector.max_bytes

    def test_empty_collector_reports_zero(self):
        collector = MessageSizeCollector()
        assert collector.mean_bytes == 0.0
        assert collector.max_bytes == 0.0
