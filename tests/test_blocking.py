"""Tests for the blocking-period collector and experiment."""

import math

import pytest

from repro.experiments.extras import run_blocking_table
from repro.experiments.spec import get_spec
from repro.experiments.report import render
from repro.sim.campaign import CaseConfig, _build_driver, run_case
from repro.sim.rng import derive_rng
from repro.sim.stats import BlockingCollector

from tests.conftest import heal, make_driver, split
from tests.test_experiments import TINY


class TestBlockingCollector:
    @pytest.mark.parametrize(
        "algorithm, durations",
        [("ykd", [2]), ("simple_majority", [0])],
        ids=["ykd", "simple_majority"],
    )
    def test_counts_formed_views(self, algorithm, durations):
        collector = BlockingCollector()
        driver = make_driver(algorithm, 5, observers=[collector])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert collector.views_observed == 2
        assert collector.formed_durations == durations  # {0,1,2} formed

    def test_counts_terminally_blocked_at_run_end(self):
        collector = BlockingCollector()
        driver = make_driver("ykd", 5, observers=[collector])
        driver.execute_run(gaps=[0])
        # One change splits the system in two views; the minority view
        # is terminally blocked at quiescence.
        assert collector.terminally_blocked >= 1

    def test_counts_replaced_views_as_blocked(self):
        collector = BlockingCollector()
        driver = make_driver("ykd", 5, observers=[collector])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        heal(driver)  # replaces the blocked {3,4} view
        assert collector.blocked_lifetimes
        assert all(lifetime >= 0 for lifetime in collector.blocked_lifetimes)

    def test_rates_and_means(self):
        collector = BlockingCollector()
        driver = make_driver("ykd", 5, observers=[collector])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert collector.formation_rate == 0.5  # 1 of 2 views formed
        assert collector.mean_rounds_to_form == 2.0

    def test_empty_collector_reports_nan(self):
        collector = BlockingCollector()
        assert math.isnan(collector.formation_rate)
        assert math.isnan(collector.mean_rounds_to_form)
        assert math.isnan(collector.mean_blocked_lifetime)

    def test_no_double_counting_across_cascading_runs(self):
        collector = BlockingCollector()
        case = CaseConfig(
            algorithm="ykd", n_processes=6, n_changes=4,
            mean_rounds_between_changes=1.0, runs=10, mode="cascading",
        )
        run_case(case, observers=[collector])
        accounted = (
            len(collector.formed_durations)
            + len(collector.blocked_lifetimes)
            + collector.terminally_blocked
        )
        assert accounted <= collector.views_observed


    @pytest.mark.parametrize("algorithm", ["dfls", "ykd", "simple_majority"])
    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_shared_over_fresh_runs_equals_per_run_sum(self, algorithm, rate):
        # Fresh runs restart view numbering, so a collector keyed by
        # view seq that kept state across runs would drop formations;
        # one collector shared by a campaign must count every run.
        case = CaseConfig(
            algorithm=algorithm, n_processes=8, n_changes=6,
            mean_rounds_between_changes=rate, runs=40, mode="fresh",
        )
        shared = BlockingCollector()
        run_case(case, observers=[shared])
        per_run = []
        schedule = case.make_schedule()
        for run_index in range(case.runs):
            collector = BlockingCollector()
            fault_rng = derive_rng(
                case.master_seed, *case.case_label(), run_index
            )
            driver = _build_driver(case, fault_rng, [collector])
            driver.execute_run(schedule.draw_gaps(fault_rng, case.n_changes))
            per_run.append(collector)
        assert shared.views_observed == sum(c.views_observed for c in per_run)
        assert sorted(shared.formed_durations) == sorted(
            d for c in per_run for d in c.formed_durations
        )
        assert sorted(shared.blocked_lifetimes) == sorted(
            d for c in per_run for d in c.blocked_lifetimes
        )
        assert shared.terminally_blocked == sum(
            c.terminally_blocked for c in per_run
        )
        assert shared.formed_durations


class TestBlockingExperiment:
    def test_runs_and_renders(self):
        table = run_blocking_table(get_spec("tab_blocking"), TINY)
        assert len(table.rows) == len(get_spec("tab_blocking").algorithms) * 2
        text = render(table)
        assert "formed %" in text
        assert "blocked lifetime" in text
